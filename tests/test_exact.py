import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_det, reference_rank, reference_snf
from cywps.exact import (
    format_rational,
    hermite,
    primitive_vector,
    rat_det,
    rat_nullspace,
    rat_rank,
    rat_solve,
    smith_normal_form,
    unimodular_inverse,
)


def test_rational_rendering():
    assert format_rational(Fraction(1032, 5)) == "1032/5"
    assert format_rational(Fraction(-126)) == "-126"
    assert format_rational(Fraction(-3, 6)) == "-1/2"


@given(
    st.fractions(max_denominator=1000),
    st.fractions(max_denominator=1000),
)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _check_snf(a):
    u, s, v = smith_normal_form(a)
    assert _mul(_mul(u, s), v) == a
    assert abs(reference_det(u)) == 1
    assert abs(reference_det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x and y % x == 0
    return diag


def test_snf_identity():
    ident = _eye(3)
    u, s, v = smith_normal_form(ident)
    assert s == ident
    _check_snf(ident)


def test_snf_row_examples():
    diag = _check_snf([[1, 1, 1]])
    assert diag == [1]
    diag = _check_snf([[2, 4, 6]])
    assert diag == [2]


def test_snf_deterministic():
    a = [[6, 4], [8, 10]]
    assert smith_normal_form(a) == smith_normal_form(a)
    assert a == [[6, 4], [8, 10]]  # the input rows are not modified


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random(m, n, data):
    entries = data.draw(
        st.lists(st.integers(-30, 30), min_size=m * n, max_size=m * n)
    )
    if not any(entries):
        entries[0] = 1
    a = [entries[i * n : (i + 1) * n] for i in range(m)]
    # the Smith diagonal is unique, so it must equal the reference's
    _, ref, _ = reference_snf(a)
    assert _check_snf(a) == [ref[i][i] for i in range(min(m, n))]


def test_snf_zero_matrix_refused():
    with pytest.raises(ValueError):
        smith_normal_form([[0, 0], [0, 0]])


@pytest.mark.parametrize(
    "fn, rows, message",
    [
        (rat_det, [[1, 2], [3]], "ragged"),
        (rat_det, [[1], [2, 3]], "ragged"),
        (unimodular_inverse, [[1, 0], [0]], "ragged"),
        (unimodular_inverse, [[1], [0, 1]], "ragged"),
        (smith_normal_form, [[1, 2], [3]], "ragged"),
        (smith_normal_form, [[1], [2, 3]], "ragged"),
        (rat_det, [[1, 2, 3], [4, 5, 6]], "square"),
        (rat_det, [[1, 2], [3, 4], [5, 6]], "square"),
        (unimodular_inverse, [[1, 0, 0], [0, 1, 0]], "square"),
        (unimodular_inverse, [[1], [0]], "square"),
    ],
)
def test_ragged_and_non_square_refused(fn, rows, message):
    with pytest.raises(ValueError, match=message):
        fn(rows)


def test_det_is_the_signed_pivot_product():
    # a transposition, a singular matrix without a zero entry, the empty matrix
    assert rat_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert rat_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert rat_det([]) == 1


def test_unimodular_inverse():
    m = [[1, 2], [0, 1]]
    inv = unimodular_inverse(m)
    assert _mul(m, inv) == _eye(2)
    assert unimodular_inverse([]) == []
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        unimodular_inverse([[1, 2], [2, 4]])


def test_rational_linear_algebra():
    assert rat_rank([[1, 2], [2, 4]]) == 1
    assert rat_det([[2, 0], [0, 3]]) == 6
    assert rat_det([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]) == Fraction(-5, 6)
    ns = rat_nullspace([[1, 1, 1]], 3)
    assert len(ns) == 2
    # no rows: rank 0, the whole space as kernel, the empty solution
    assert rat_rank([]) == 0
    assert rat_nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rat_solve([], []) == ()
    assert rat_solve([[1, 2], [2, 4]], [1, 2]) is None
    assert rat_solve([[1, 2], [2, 4]], [1, 3]) is None
    assert primitive_vector([Fraction(2, 3), Fraction(-4, 3)]) == ((1, -2), Fraction(2, 3))


# -- the rational readings of hermite against plain Fraction Gauss-Jordan -----


_entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def _matrices(draw, square=False):
    """Int/Fraction matrices up to 7 x 8; duplicated and combined rows make
    many of them rank-deficient."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 8))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "duplicate", "combine"])) if rows else "fresh"
        if kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_entries), draw(_entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_entries, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_rank_and_nullspace_match_reference(rows):
    ncols = len(rows[0])
    rank = reference_rank(rows)
    assert rat_rank(rows) == rank
    basis = rat_nullspace(rows, ncols)
    assert len(basis) == ncols - rank
    for vec in basis:
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows)
    assert rat_rank(basis) == len(basis)


@settings(max_examples=150, deadline=None)
@given(_matrices(square=True), st.data())
def test_det_and_solve_match_reference(rows, data):
    n = len(rows)
    det = reference_det(rows)
    assert rat_det(rows) == det
    b = data.draw(st.lists(_entries, min_size=n, max_size=n))
    x = rat_solve(rows, b)
    assert (x is None) == (det == 0)
    if x is not None:
        assert [sum(a * xi for a, xi in zip(row, x)) for row in rows] == b


@st.composite
def _elementary_products(draw):
    """Products of elementary integer matrices: row additions, swaps, negations."""
    n = draw(st.integers(1, 7))
    rows = _eye(n)
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(st.integers(-5, 5))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-x for x in rows[i]]
    return rows


@settings(max_examples=100, deadline=None)
@given(_elementary_products(), st.data())
def test_unimodular_inverse_of_elementary_products(m, data):
    n = len(m)
    assert _mul(unimodular_inverse(m), m) == _eye(n)
    i = data.draw(st.integers(0, n - 1))
    doubled = [[2 * x for x in r] if k == i else r for k, r in enumerate(m)]
    assert abs(rat_det(doubled)) == 2
    with pytest.raises(ValueError):
        unimodular_inverse(doubled)


# -- the column-reduction kernel against the minors it reads -------------------


@st.composite
def _wide_int_matrices(draw):
    """k x n integer matrices, k <= n <= 7, entries in [-30, 30]; some get a
    zero row or a row that combines two others."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    rows = [draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)) for _ in range(k)]
    kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combine"]))
    i = draw(st.integers(0, k - 1))
    if kind == "zero":
        rows[i] = [0] * n
    elif kind == "combine" and k > 1:
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [s * x + t * y for x, y in zip(rows[i - 1], rows[i - 2])]
    return rows


@settings(max_examples=150, deadline=None)
@given(_wide_int_matrices())
@example([[0, 0, 0], [1, 2, 3]])
@example([[2, 4, 6], [1, 2, 3]])
@example([[1, 1, 1]])
def test_hermite_pivots_are_the_minor_gcd(rows):
    k, n = len(rows), len(rows[0])
    h, t = hermite(rows, transform=True)
    minors = [reference_det([[r[j] for j in cols] for r in rows]) for cols in combinations(range(n), k)]
    assert abs(math.prod(h[i][i] for i in range(k))) == math.gcd(*(int(x) for x in minors))
    assert _mul(rows, t) == h
    assert _mul(t, unimodular_inverse(t)) == _eye(n)
    assert hermite(rows)[0] == h


@settings(max_examples=150, deadline=None)
@given(_wide_int_matrices())
@example([[0, 0, 0], [1, 2, 3], [2, 4, 6]])
def test_hermite_prefix_is_the_hermite_of_the_prefix(rows):
    # the row step leaves the rows above alone, so the subset walk of
    # ``polytope.simplex_indices`` may extend a parent's reduction by one row
    h = hermite(rows)[0]
    for k in range(len(rows) + 1):
        assert hermite(rows[:k])[0] == h[:k]


def test_hermite_weight_row_with_unit_first_weight_is_pinned():
    # w_0 = 1 divides every entry, so every step is a plain column subtraction
    _, t = hermite([[1, 1, 2, 3]], transform=True)
    assert t == [[1, -1, -2, -3], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert unimodular_inverse(t) == [[1, 1, 2, 3], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
