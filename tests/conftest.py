import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from cywps.quasismooth import has_ip_property, iter_weight_partitions
from cywps.wps import WeightVector, weight_flags

IP_POOL_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "ip_pool.json")
NONTRANSVERSE_IP_PATH = os.path.join(os.path.dirname(__file__), "data", "nontransverse_ip.json")
NEWTON_CHI_PATH = os.path.join(os.path.dirname(__file__), "data", "nontransverse_newton_chi.json")

# ``pytest --hypothesis-profile=timing``: every run draws the same examples, so
# tier-1 wall times of two trees can be compared; the default profile is unchanged
settings.register_profile("timing", derandomize=True, database=None)


def ip_pool() -> dict[str, str]:
    """The pinned IP pool of the benchmark, read only: every d = 3 and every
    d = 4 transverse weight vector of degree <= 120 but the showcase ones,
    mapped to its orbifold Euler number."""
    with open(IP_POOL_PATH, encoding="ascii") as fh:
        return json.load(fh)


def nontransverse_ip() -> dict[str, str]:
    """Every well-formed IP weight vector that is not transverse, with d = 4 and
    weights <= 9 or d = 5 and weights <= 6, mapped to its orbifold Euler number."""
    with open(NONTRANSVERSE_IP_PATH, encoding="ascii") as fh:
        return json.load(fh)


def nontransverse_newton_chi() -> dict[str, str | None]:
    """The same vectors mapped to the stringy Euler number of the Calabi-Yau
    hypersurface of their Newton polytope, ``stringy_reflexive(newton_hull(...))``,
    or to null when that polytope is not reflexive."""
    with open(NEWTON_CHI_PATH, encoding="ascii") as fh:
        return json.load(fh)


def small_ip_vectors(dims, max_weight=4):
    """Well-formed IP weight vectors, unsorted, with d in ``dims`` and every
    weight at most ``max_weight``."""
    return (
        st.sampled_from(dims)
        .flatmap(lambda d: st.lists(st.integers(1, max_weight), min_size=d + 1, max_size=d + 1))
        .map(lambda ws: WeightVector(tuple(ws)))
        .filter(lambda w: weight_flags(w)[0] and has_ip_property(w))
    )


def well_formed_vectors(dim, max_degree):
    """All sorted well-formed weight vectors with the given dimension."""
    for degree in range(dim + 1, max_degree + 1):
        for ws in iter_weight_partitions(dim, degree):
            w = WeightVector(ws)
            if weight_flags(w)[0]:
                yield w


def random_well_formed(rng: random.Random, dim: int, max_degree: int) -> WeightVector:
    while True:
        k = dim + 1
        cuts = sorted(rng.sample(range(1, max_degree), k - 1))
        ws = tuple(
            sorted(b - a for a, b in zip((0, *cuts), (*cuts, rng.randint(cuts[-1] + 1, max_degree))))
        )
        if any(x < 1 for x in ws):
            continue
        w = WeightVector(ws)
        if weight_flags(w)[0]:
            return w


def fake_mirror_generators(monkeypatch, gens):
    """Make ``mirror_lattice`` read the generators ``gens`` off its column
    reduction of the weight row, to drive its invariant checks."""
    from cywps import wps

    real = wps.hermite

    def fake(rows, transform=False):
        h, t = real(rows, transform)
        if transform:
            t = [[row[0], *g] for row, g in zip(t, gens)]
        return h, t

    monkeypatch.setattr(wps, "hermite", fake)


@pytest.fixture(scope="session")
def k3_weight_vectors():
    """The 95 sorted transverse weight vectors with d = 3."""
    from cywps.quasismooth import census

    records = census(3, 100, "transverse")
    assert len(records) == 95
    return [WeightVector(r.weights) for r in records]


def reference_det(rows):
    """Determinant of a square matrix by plain Fraction Gaussian elimination."""
    a = [list(map(Fraction, r)) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def reference_rank(rows):
    """Rank of a matrix by plain Fraction Gauss-Jordan elimination."""
    work = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col] / work[rank][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def reference_inverse(rows):
    """Inverse of a regular square matrix by plain Fraction Gauss-Jordan
    elimination on [A | I], with integral entries as int."""
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    work = [list(map(Fraction, [*r, *e])) for r, e in zip(rows, eye)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [[x.numerator if x.denominator == 1 else x for x in r[n:]] for r in work]


def reference_snf(rows):
    """The smallest-pivot Smith normal form that ``exact.smith_normal_form``
    replaced, kept as the oracle of the SNF and of the volumes: returns (u, s, v)
    as lists of rows with rows = u s v, u and v unimodular, s diagonal with
    d1 | d2 | ... >= 0.  The pivot is the smallest nonzero entry by absolute
    value, ties broken by position."""
    m, n = len(rows), len(rows[0])
    s = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def add_row(i, t, q):
        # s.row[i] += q * s.row[t]; keeps rows = u s v by u.col[t] -= q * u.col[i]
        s[i] = [x + q * y for x, y in zip(s[i], s[t])]
        for r in u:
            r[t] -= q * r[i]

    def add_col(j, t, q):
        # s.col[j] += q * s.col[t]; keeps rows = u s v by v.row[t] -= q * v.row[j]
        for r in s:
            r[j] += q * r[t]
        v[t] = [x - q * y for x, y in zip(v[t], v[j])]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        for r in u:
            r[i] = -r[i]

    for t in range(min(m, n)):
        while True:
            nonzero = [(abs(s[i][j]), i, j) for i in range(t, m) for j in range(t, n) if s[i][j]]
            if not nonzero:
                break
            _, pi, pj = min(nonzero)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if s[t][t] < 0:
                negate_row(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    add_row(i, t, -(s[i][t] // p))
                    dirty = dirty or s[i][t] != 0
            for j in range(t + 1, n):
                if s[t][j]:
                    add_col(j, t, -(s[t][j] // p))
                    dirty = dirty or s[t][j] != 0
            if dirty:
                continue
            # enforce d_t | every remaining entry before moving on
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if s[i][j] % p), None
            )
            if offender is None:
                break
            add_row(t, offender, 1)
    return u, s, v


def reference_vafa_double_sum(w):
    """The double sum as ``euler.vafa_double_sum`` computed it before it summed
    integers: the same fixed-set counts, with Fraction subset products."""
    ws = w.weights
    deg = w.degree
    n = len(ws)
    periods = [deg // math.gcd(deg, wi) for wi in ws]
    lcms = [1] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        lcms[mask] = math.lcm(lcms[mask ^ low], periods[low.bit_length() - 1])
    counts = [deg // m for m in lcms]
    for i in range(n):
        for mask in range(1 << n):
            if not mask >> i & 1:
                counts[mask] -= counts[mask | 1 << i]
    factors = [Fraction(wi - deg, wi) for wi in ws]
    prod_cache = {0: Fraction(1)}

    def product(mask):
        got = prod_cache.get(mask)
        if got is None:
            low = mask & -mask
            got = product(mask ^ low) * factors[low.bit_length() - 1]
            prod_cache[mask] = got
        return got

    total = Fraction(0)
    items = [(mask, count) for mask, count in enumerate(counts) if count]
    for s_mask, s_count in items:
        for t_mask, t_count in items:
            total += s_count * t_count * product(s_mask & t_mask)
    return total / deg


def reference_stringy_mirror_closed(w):
    """The closed form as ``euler.stringy_mirror_closed`` computed it before it
    summed integers, term by term in Fractions, with no IP check."""
    ws = w.weights
    deg = w.degree
    d = w.dim
    full = (1 << (d + 1)) - 1
    total = Fraction(0)
    for mask in range(1 << (d + 1)):
        size = mask.bit_count()
        if size < 2:
            continue
        comp = full ^ mask
        n_c = math.gcd(deg, *(ws[i] for i in range(d + 1) if comp >> i & 1))
        term = Fraction(n_c * n_c)
        for i in range(d + 1):
            if comp >> i & 1:
                term *= Fraction(deg, ws[i])
        if size % 2:
            term = -term
        total += term
    return total / deg
