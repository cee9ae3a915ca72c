"""Exact integer/rational arithmetic and small integer linear algebra.

Everything downstream (polytopes, volumes, Euler numbers) is computed over
exact rationals; there is no floating point anywhere in the package.  The
rational type is the stdlib ``fractions.Fraction`` (always reduced,
denominator >= 1), and a matrix is a plain list of rows (``list[list[int]]``
for the integer routines).

There is one elimination kernel, the unimodular column reduction ``hermite``,
the fold of one row step: Euclid's algorithm on a row by column steps of
determinant 1, with the transform kept on request.  Every other routine is a
reading of it.  Over Z: determinants, primitive kernel vectors, simplex
volumes (the gcd of the edges' maximal minors; of every subset at once, by the
step on copies of a parent's rows), the mirror lattice's basis, the unimodular
inverse (the transform's inverse is one) and the Smith normal form.  Over Q,
on rows cleared of their denominators: the rank is the number of rows that
take a pivot, a nullspace basis is the transform's columns past the rank, and
a solution of A x = b is a kernel vector of [A | -b], ``Fraction`` only in results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def format_rational(x: Fraction | int) -> str:
    """Canonical text form: "p/q" reduced, "n" for integers, sign on the numerator."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _shape(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(row count, column count) of a row list; ragged rows are refused."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged rows")
    return len(rows), n


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transpose(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*rows)]


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _clear_row(live: list[list[int]], c: int) -> int:
    """``hermite``'s step on live[0] from column c, on all of ``live``: the pivot, or 0."""
    pivot_row, n = live[0], len(live[0])
    while True:  # c stays; Euclid's remainders end the loop
        p, least = c, 0
        for j in range(c, n):
            x = abs(pivot_row[j])
            if x and (x < least or not least):
                p, least = j, x
        if not least:
            return 0
        if p != c:
            for row in live:
                row[c], row[p] = row[p], -row[c]
        for j in range(c + 1, n):
            if pivot_row[j]:  # q = floor(b / a + 1/2) for b, a = row[j], row[c]
                q = (2 * pivot_row[j] + pivot_row[c]) // (2 * pivot_row[c])
                for row in live:
                    row[j] -= q * row[c]
        if not any(pivot_row[c + 1 :]):
            return pivot_row[c]


def hermite(
    rows: Sequence[Sequence[int]], transform: bool = False
) -> tuple[list[list[int]], list[list[int]] | None]:
    """Unimodular column reduction of a k x n integer matrix A.

    Returns ``(h, t)``: h = A t in column echelon form and t unimodular, None
    unless asked for.  Row by row, Euclid's algorithm runs on the entries from
    the pivot column c on: the swap (col_c, col_p) -> (col_p, -col_c) moves the
    least nonzero one a into column c, and col_j -= round(b/a) col_c cuts each
    later entry b to its nearest remainder, until the row is zero from c on (no
    pivot) or nonzero only in column c (its pivot): ``_clear_row``, which
    leaves the rows above alone, so h[:r] is hermite of the first r rows.  Each
    step has determinant 1, so it keeps the gcd of the k x k minors
    (Cauchy-Binet), for k <= n |prod h_ii|: Cohen, GTM 138, 2.4.  Remainders of
    at most |a|/2 keep t small.  The columns of t past the last nonzero column
    of h are a basis of the integer kernel {x in Z^n : A x = 0}, each one
    primitive.  t^-1 is a reading of t, ``unimodular_inverse``.
    """
    h = [list(r) for r in rows]
    t = _identity(len(rows[0])) if transform and rows else []
    c = 0
    for r in range(len(h)):
        c += bool(_clear_row(h[r:] + t, c))  # a pivot moves c on
    return h, t if transform else None


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Decompose ``a = U S V`` with U, V unimodular and S diagonal, d1 | d2 | ...

    ``hermite`` passes on S and on S^T alternate until S is diagonal, and
    U^-1 a V^-1 = S holds throughout: a pass on S with transform t is
    V^-1 -> V^-1 t, one on S^T is U^-1 -> t^T U^-1.  This terminates: after
    two passes on a nonzero S the pivot S_00 is nonzero, and each pass
    replaces it by a divisor, the gcd of its row or column; when it divides
    that line, the pass only subtracts multiples of it, and its row and column
    end clear and stay clear.  So |S_00| falls finitely often, then the passes
    act on S[1:, 1:].  A d_i that does not divide a later d_j (0 divides only
    0) gets row j added to its row; the next pass makes d_i gcd(d_i, d_j), a
    proper divisor, and keeps the entries before it, so this too repeats
    finitely often.  Signs are fixed last, and U, V are read off U^-1, V^-1 by
    ``unimodular_inverse``.  Deterministic for a fixed input.
    """
    m, n = _shape(rows)
    if not any(map(any, rows)):
        raise ValueError("Smith normal form of the zero matrix is not supported")
    uinv, s, vinv = _identity(m), [list(row) for row in rows], _identity(n)
    while True:
        while any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            s, t = hermite(s, transform=True)  # s -> s t
            vinv = _matmul(vinv, t)
            s, t = hermite(_transpose(s), transform=True)  # s -> t^T s
            s, uinv = _transpose(s), _matmul(_transpose(t), uinv)
        diag = [s[i][i] for i in range(min(m, n))]
        bad = [(i, j) for i, di in enumerate(diag) for j in range(i + 1, len(diag))
               if (diag[j] % di if di else diag[j])]
        if not bad:
            break
        i, j = bad[0]
        s[i][j] = s[j][j]  # s -> E s adds row j to row i, and so does uinv -> E uinv
        uinv[i] = [x + y for x, y in zip(uinv[i], uinv[j])]
    for i, di in enumerate(diag):
        if di < 0:
            s[i][i] = -di
            uinv[i] = [-x for x in uinv[i]]
    return unimodular_inverse(uinv), s, unimodular_inverse(vinv)


# -- readings of the column reduction ------------------------------------------


def clear_denominators(row: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(m, m * row) with m the lcm of the row's denominators, so m * row is integral."""
    m = math.lcm(*(x.denominator for x in row))
    return m, [x.numerator * (m // x.denominator) for x in row]


def pivot_rows(h: Sequence[Sequence[int]]) -> list[int]:
    """The rows of a ``hermite`` result h that took a pivot column: the first
    linearly independent rows of its input, in order, one per column of h
    that is not zero."""
    out: list[int] = []
    for r, row in enumerate(h):
        if len(out) < len(row) and row[len(out)]:
            out.append(r)
    return out


def _reduce(rows: Sequence[Sequence[Fraction | int]], ncols: int):
    """``hermite`` with its transform on the rows, each cleared of its
    denominators; no rows read as one zero row of ``ncols`` columns."""
    return hermite([clear_denominators(row)[1] for row in rows] or [[0] * ncols], transform=True)


def unimodular_inverse(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix M.

    M t = h is lower triangular, and its diagonal is +-1 exactly when M is
    unimodular; column steps on h and t that clear h below its diagonal and
    fix its signs turn h into I and t into M^-1."""
    m, n = _shape(rows)
    if m != n:
        raise ValueError("not square")
    h, t = hermite(rows, transform=True)
    if not all(row[i] for i, row in enumerate(h)):
        raise ValueError("matrix is singular")
    if any(abs(row[i]) != 1 for i, row in enumerate(h)):
        raise ValueError("matrix is not unimodular")
    for i in range(n):  # column i is zero above row i until its turn
        for c in range(i):
            f = h[i][c] * h[i][i]
            if f:
                for row in h[i:] + t:
                    row[c] -= f * row[i]
    return [[x * h[j][j] for j, x in enumerate(row)] for row in t]


def rat_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(pivot_rows(_reduce(rows, 0)[0]))


def rat_solve(a_rows: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]):
    """Solve the square system A x = b exactly; returns None if singular.

    The kernel of [A | -b] is spanned by one (s x, s) with s != 0 exactly
    when A is regular: for a singular A, [A | -b] has rank below n or its
    kernel vector has s = 0."""
    n = len(a_rows)
    h, t = _reduce([[*row, -rhs] for row, rhs in zip(a_rows, b)], n + 1)
    *v, s = (row[-1] for row in t)
    if len(pivot_rows(h)) < n or not s:
        return None
    return tuple(Fraction(x, s) for x in v)


def rat_nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace {x : rows @ x = 0}: the primitive integer
    columns of the ``hermite`` transform past the rank."""
    h, t = _reduce(rows, ncols)
    return [tuple(row[j] for row in t) for j in range(len(pivot_rows(h)), ncols)]


def rat_det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """The signed pivot product of ``hermite`` on the cleared rows: its column
    steps have determinant 1, and a singular matrix leaves its last pivot 0."""
    m, n = _shape(rows)
    if m != n:
        raise ValueError("determinant of non-square matrix")
    cleared = [clear_denominators(row) for row in rows]
    h = hermite([r for _, r in cleared])[0]
    return Fraction(math.prod(row[i] for i, row in enumerate(h)), math.prod(k for k, _ in cleared))


def primitive_vector(vec: Sequence[Fraction | int]) -> tuple[tuple[int, ...], Fraction]:
    """Write ``vec = scale * prim`` with prim a primitive integer vector, scale > 0.

    Raises on the zero vector.
    """
    denom, ints = clear_denominators(vec)
    g = math.gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in ints), Fraction(g, denom)


def as_exact(x) -> int | Fraction:
    """Normalize a number to int when integral, Fraction otherwise."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f
