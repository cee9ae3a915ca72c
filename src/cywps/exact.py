"""Exact integer/rational arithmetic and small integer linear algebra.

Everything downstream (polytopes, volumes, Euler numbers) is computed over
exact rationals; there is no floating point anywhere in the package.  The
rational type is the stdlib ``fractions.Fraction`` (always reduced,
denominator >= 1), re-exported here as ``Rational``.

Every row reduction in the package goes through one integer kernel,
``echelon``: it clears each row's denominators once, at entry, and then
runs fraction-free Gauss-Jordan elimination, dividing each updated row by its
content so the entries stay small.  Rank, nullspace, solve and unimodular
inverse are thin readings of its output; determinants use the Bareiss
elimination in ``IntMatrix.det``.  ``Fraction`` appears only in results.
The Smith normal form is separate, because it needs unimodular transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def gcd_fold(seed: int, extras: Iterable[int]) -> int:
    """gcd of ``seed`` and all ``extras``; the empty fold returns ``seed``."""
    g = seed
    for x in extras:
        g = math.gcd(g, x)
    return g


def format_rational(x: Fraction | int) -> str:
    """Canonical text form: "p/q" reduced, "n" for integers, sign on the numerator."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows * cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def det(self) -> int:
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Decompose ``a = U S V`` with U, V unimodular and S diagonal, d1 | d2 | ...

    Deterministic for a fixed input: the pivot is always the smallest nonzero
    entry by absolute value (ties broken by position).
    """
    if not any(a.entries):
        raise ValueError("Smith normal form of the zero matrix is not supported")
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i: int, j: int) -> None:
        for r in s:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def add_row(i: int, t: int, q: int) -> None:
        # s.row[i] += q * s.row[t]; keeps a = u s v by u.col[t] -= q * u.col[i]
        si, st = s[i], s[t]
        for j in range(n):
            si[j] += q * st[j]
        for r in u:
            r[t] -= q * r[i]

    def add_col(j: int, t: int, q: int) -> None:
        # s.col[j] += q * s.col[t]; keeps a = u s v by v.row[t] -= q * v.row[j]
        for r in s:
            r[j] += q * r[t]
        vt, vj = v[t], v[j]
        for k in range(n):
            vt[k] -= q * vj[k]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        for r in u:
            r[i] = -r[i]

    for t in range(min(m, n)):
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = s[i][j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            if s[t][t] < 0:
                negate_row(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = -(s[i][t] // p)
                    add_row(i, t, q)
                    if s[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = -(s[t][j] // p)
                    add_col(j, t, q)
                    if s[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Enforce d_t | every remaining entry before moving on.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if t < m and t < n and s[t][t] < 0:
            negate_row(t)

    U = IntMatrix.from_rows(u)
    S = IntMatrix.from_rows(s)
    V = IntMatrix.from_rows(v)
    return U, S, V


# -- the elimination kernel and its readings ------------------------------------


def clear_denominators(row: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(m, m * row) with m the lcm of the row's denominators, so m * row is integral."""
    m = math.lcm(*(x.denominator for x in row))
    return m, [x.numerator * (m // x.denominator) for x in row]


def echelon(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the integers, without fractions.

    Returns ``(reduced, pivots)``: one integer row per pivot, in pivot order.
    Row i is positive in column ``pivots[i]`` and zero in every other pivot
    column, so over Q it is the i-th row of the reduced echelon form times
    that entry.  The pivots are the first linearly independent columns.
    """
    work = [r for _, r in map(clear_denominators, rows) if any(r)]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        if work[r][col] < 0:
            work[r] = [-x for x in work[r]]
        prow = work[r]
        p = prow[col]
        for i, row in enumerate(work):
            f = row[col]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return work[: len(pivots)], pivots


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    ident = IntMatrix.identity(n)
    reduced, pivots = echelon([m.row(i) + ident.row(i) for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    # each row of [M | I] and of its updates is primitive, so row i ends as
    # p * (e_i | i-th row of M^-1) with p = 1 exactly when that row is integral
    if any(row[i] != 1 for i, row in enumerate(reduced)):
        raise ValueError("matrix is not unimodular")
    return IntMatrix.from_rows([row[n:] for row in reduced])


def rat_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(echelon(rows)[1])


def rat_solve(a_rows: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]):
    """Solve the square system A x = b exactly; returns None if singular."""
    n = len(a_rows)
    reduced, pivots = echelon([[*row, rhs] for row, rhs in zip(a_rows, b)])
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(reduced))


def rat_nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace {x : rows @ x = 0}, as integer vectors."""
    reduced, pivots = echelon(rows)
    scale = math.lcm(*(row[pc] for row, pc in zip(reduced, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        basis.append(tuple(vec))
    return basis


def rat_det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    scale = 1
    ints = []
    for row in rows:
        m, r = clear_denominators(row)
        scale *= m
        ints.append(r)
    return Fraction(IntMatrix.from_rows(ints).det(), scale)


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
