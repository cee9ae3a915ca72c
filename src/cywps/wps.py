"""Weight vectors and their attached lattices.

A weight vector (w_0, ..., w_d) of positive integers defines the weighted
projective space P(w) and the Calabi-Yau degree w = sum(w_i).  This module
supplies the combinatorial tests on the vector itself (well-formedness,
Gorenstein, subset gcds n_J), the exponent vectors of degree-w monomials
(Newton points), and the rank-d quotient lattice Z^{d+1} / Z*w with its
generators v_0, ..., v_d satisfying sum(w_i v_i) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import EnumerationLimitError, NotWellFormedError
from .exact import IntMatrix, gcd_fold, smith_normal_form, unimodular_inverse
from .polytope import Polytope, hull_with_faces

NEWTON_POINT_LIMIT = 10_000_000


@dataclass(frozen=True)
class WeightVector:
    """Tuple of d+1 positive integer weights with degree w = sum of weights."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 3:
            raise ValueError("need at least three weights (d >= 2)")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        try:
            weights = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse weight vector {text!r}") from exc
        return cls(weights)

    @property
    def degree(self) -> int:
        return sum(self.weights)

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    @property
    def charges(self) -> tuple[Fraction, ...]:
        w = self.degree
        return tuple(Fraction(wi, w) for wi in self.weights)

    def __str__(self) -> str:
        return ",".join(str(w) for w in self.weights)


def weight_flags(w: WeightVector) -> tuple[bool, bool]:
    """(well_formed, gorenstein): every d weights coprime; every weight divides w."""
    ws = w.weights
    well_formed = all(
        gcd_fold(0, (ws[j] for j in range(len(ws)) if j != i)) == 1 for i in range(len(ws))
    )
    gorenstein = all(w.degree % wi == 0 for wi in ws)
    return well_formed, gorenstein


def subset_gcd(w: WeightVector, members: int) -> int:
    """n_J = gcd(w, w_j for j in J), with J given as a bitmask; n_empty = w."""
    return gcd_fold(w.degree, (wi for i, wi in enumerate(w.weights) if members >> i & 1))


def newton_count(w: WeightVector) -> int:
    """Number of exponent vectors u >= 0 with sum(w_i u_i) = degree."""
    ws = sorted(w.weights, reverse=True)
    target = w.degree
    counts = [0] * (target + 1)
    counts[0] = 1
    for wi in ws:
        for t in range(wi, target + 1):
            counts[t] += counts[t - wi]
    return counts[target]


def newton_points(w: WeightVector) -> list[tuple[int, ...]]:
    """All u in Z_{>=0}^{d+1} with sum(w_i u_i) = w, sorted lexicographically.

    Enumeration is a bounded knapsack recursion over the weights sorted in
    descending order; refuses to materialize more than NEWTON_POINT_LIMIT
    points.
    """
    total = newton_count(w)
    if total > NEWTON_POINT_LIMIT:
        raise EnumerationLimitError(f"{total} monomials exceed the enumeration limit")
    ws = w.weights
    order = sorted(range(len(ws)), key=lambda i: -ws[i])
    out: list[tuple[int, ...]] = []
    u = [0] * len(ws)

    def rec(pos: int, remaining: int) -> None:
        if pos == len(order) - 1:
            i = order[pos]
            if remaining % ws[i] == 0:
                u[i] = remaining // ws[i]
                out.append(tuple(u))
            return
        i = order[pos]
        for a in range(remaining // ws[i] + 1):
            u[i] = a
            rec(pos + 1, remaining - a * ws[i])

    rec(0, w.degree)
    out.sort()
    return out


@dataclass(frozen=True)
class MirrorLattice:
    """Generators v_0..v_d of N = Z^{d+1}/Z*w in a chosen basis, plus the map
    sending a vector of Z^{d+1} orthogonal to w to its dual-side coordinates."""

    weights: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    _dual_rows: tuple[tuple[int, ...], ...]  # rows 1..d of the basis change

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def m_coords(self, u):
        """Coordinates of u (with sum(w_i u_i) = 0) in the dual basis, so that
        pairing with v_i reads off u_i."""
        return tuple(sum(r * x for r, x in zip(row, u)) for row in self._dual_rows)


@lru_cache(maxsize=64)
def mirror_lattice(w: WeightVector) -> MirrorLattice:
    """Present Z^{d+1}/Z*w via the Smith normal form of the weight row.

    For w_0 = 1 the basis is pinned so that v_i = e_i (i >= 1) and
    v_0 = -(w_1, ..., w_d); otherwise the SNF basis is used.  Fails on
    non-well-formed vectors, whose generator images are not all primitive.
    """
    if not weight_flags(w)[0]:
        raise NotWellFormedError(f"weight vector {w} is not well-formed")
    ws = w.weights
    d = w.dim
    if ws[0] == 1:
        gens = [tuple(-x for x in ws[1:])]
        gens += [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        dual_rows = tuple(
            tuple(1 if j == i + 1 else 0 for j in range(d + 1)) for i in range(d)
        )
    else:
        row = IntMatrix.from_rows([list(ws)])
        u_mat, s_mat, v_mat = smith_normal_form(row)
        vinv = unimodular_inverse(v_mat)
        v_rows = v_mat.to_rows()
        vinv_rows = vinv.to_rows()
        if u_mat.at(0, 0) * s_mat.at(0, 0) == -1:
            v_rows[0] = [-x for x in v_rows[0]]
            for r in vinv_rows:
                r[0] = -r[0]
        # now weights @ vinv = e_0, so vinv rows without their first entry are the v_i
        gens = [tuple(r[1:]) for r in vinv_rows]
        dual_rows = tuple(tuple(r) for r in v_rows[1:])
    assert all(
        gcd_fold(0, (abs(x) for x in g)) == 1 for g in gens
    ), "well-formed weights must give primitive generators"
    lattice = MirrorLattice(ws, tuple(gens), dual_rows)
    assert all(
        sum(wi * g[j] for wi, g in zip(ws, lattice.generators)) == 0 for j in range(d)
    ), "generators must satisfy the weight relation"
    gen_matrix = IntMatrix.from_rows([list(g) for g in lattice.generators])
    _, s, _ = smith_normal_form(gen_matrix)
    assert all(s.at(i, i) == 1 for i in range(d)), "generators must span the full lattice"
    return lattice


def mirror_simplex(lattice: MirrorLattice) -> Polytope:
    """conv(v_0, ..., v_d): the Newton polytope of the mirror family."""
    return hull_with_faces(lattice.generators)


def dual_simplex(w: WeightVector, lattice: MirrorLattice) -> Polytope:
    """The rational simplex dual to the mirror simplex at level -1.

    Its vertices are the images of (w/w_i) e_i - (1, ..., 1) and its
    H-representation is exactly <., v_i> >= -1.
    """
    deg = w.degree
    verts = []
    for i, wi in enumerate(w.weights):
        u = [Fraction(-1)] * len(w.weights)
        u[i] += Fraction(deg, wi)
        verts.append(lattice.m_coords(u))
    poly = hull_with_faces(verts)
    got = {(f.normal, f.offset) for f in poly.facets}
    want = {(g, 1) for g in lattice.generators}
    assert got == want, "dual simplex facets must pair to -1 against the generators"
    return poly


def newton_hull(w: WeightVector, lattice: MirrorLattice) -> Polytope:
    """Hull of the shifted Newton points in the dual-side coordinates.

    This equals bracket(dual_simplex(w)); for IP vectors it is the canonical
    Fano polytope whose spanning fan compactifies the mirror hypersurface.
    """
    pts = [
        lattice.m_coords([x - 1 for x in u]) for u in newton_points(w)
    ]
    return hull_with_faces(pts)
