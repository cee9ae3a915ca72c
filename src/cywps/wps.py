"""Weight vectors and their attached lattices.

A weight vector (w_0, ..., w_d) of positive integers defines the weighted
projective space P(w) and the Calabi-Yau degree w = sum(w_i).  This module
supplies the combinatorial tests on the vector itself (well-formedness,
Gorenstein, subset gcds n_J), the exponent vectors of degree-w monomials
(Newton points), and the rank-d quotient lattice Z^{d+1} / Z*w with its
generators v_0, ..., v_d satisfying sum(w_i v_i) = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import EnumerationLimitError, InternalError, NotWellFormedError
from .exact import as_exact, hermite, unimodular_inverse
from .polytope import Facet, Polytope, dual_polytope, hull_with_faces

NEWTON_POINT_LIMIT = 10_000_000
WEIGHT_COUNT_LIMIT = 16  # every Euler route and the transversality test run 2^(d+1) subsets


class _Weights(NamedTuple):
    weights: tuple[int, ...]


class WeightVector(_Weights):
    """Tuple of d+1 positive integer weights with degree w = sum of weights."""

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...]) -> "WeightVector":
        if len(weights) < 3:
            raise ValueError("need at least three weights (d >= 2)")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        if len(weights) > WEIGHT_COUNT_LIMIT:
            raise EnumerationLimitError(f"more than {WEIGHT_COUNT_LIMIT} weights exceed the limit")
        return super().__new__(cls, weights)

    @classmethod
    def _make(cls, iterable) -> "WeightVector":
        return cls(*iterable)  # so that ``_replace`` checks the new weights too

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
    well_formed = all(gcd(*ws[:i], *ws[i + 1 :]) == 1 for i in range(len(ws)))
    gorenstein = all(w.degree % wi == 0 for wi in ws)
    return well_formed, gorenstein


def subset_gcds(w: WeightVector) -> list[int]:
    """n_J = gcd(w, w_j for j in J) for every J, by its bitmask; n_empty = w."""
    table = [w.degree]
    for wi in w.weights:
        table += [gcd(n, wi) for n in table]
    return table


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


class MirrorLattice(NamedTuple):
    """Generators v_0..v_d of N = Z^{d+1}/Z*w in a chosen basis, plus the map
    sending a vector of Z^{d+1} orthogonal to w to its dual-side coordinates."""

    weights: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    dual_rows: tuple[tuple[int, ...], ...]  # rows 1..d of the basis change

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def m_coords(self, u):
        """Coordinates of u (with sum(w_i u_i) = 0) in the dual basis, so that
        pairing with v_i reads off u_i."""
        return tuple(sum(r * x for r, x in zip(row, u)) for row in self.dual_rows)


def mirror_lattice(w: WeightVector) -> MirrorLattice:
    """Present Z^{d+1}/Z*w by one unimodular column reduction of the weight row.

    ``hermite`` gives w t = (+-1, 0, ..., 0) (w is primitive), so u -> u t
    maps Z*w onto Z*e_0 and the rows of t without their first entry are the
    v_i, kept short by its nearest remainders.  Row 0 of t^-1, read off t by
    ``unimodular_inverse``, is +-w, so on w-perp its rows 1..d are coordinates
    in which pairing with v_i reads off u_i; det t = +-1 also makes the d x d
    minors of the v_i coprime, so they span the lattice.  For w_0 = 1 every
    step is a plain column subtraction, t has columns e_0 and e_j - w_j e_0,
    and v_i = e_i (i >= 1), v_0 = -(w_1, ..., w_d).  Fails on non-well-formed
    vectors, whose generator images are not all primitive.
    """
    if not weight_flags(w)[0]:
        raise NotWellFormedError(f"weight vector {w} is not well-formed")
    ws = w.weights
    d = w.dim
    _, t = hermite([ws], transform=True)
    gens = tuple(tuple(r[1:]) for r in t)
    if not all(gcd(*g) == 1 for g in gens):
        raise InternalError("well-formed weights must give primitive generators")
    if any(sum(wi * g[j] for wi, g in zip(ws, gens)) for j in range(d)):
        raise InternalError("generators must satisfy the weight relation")
    try:
        tinv = unimodular_inverse(t)
    except ValueError:
        raise InternalError("generators must span the full lattice") from None
    return MirrorLattice(ws, gens, tuple(tuple(r) for r in tinv[1:]))


def polar_vertices(lattice: MirrorLattice) -> list[tuple[int, ...]]:
    """w_i * m_i in generator order, m_i the image of (w/w_i) e_i - (1, ..., 1):
    the vertices of the dual simplex, scaled to integers.  Pairing w_i * m_i
    with v_j reads off w * [i = j] - w_i, checked in integers, so m_i lies on
    the facet <., v_j> = -1 of every j != i and strictly inside that of i."""
    ws, deg = lattice.weights, sum(lattice.weights)
    out = []
    for i, wi in enumerate(ws):
        u = [deg - wi if j == i else -wi for j in range(len(ws))]
        out.append(lattice.m_coords(u))
        if any(sum(a * b for a, b in zip(out[-1], g)) != x for g, x in zip(lattice.generators, u)):
            raise InternalError("dual simplex facets must pair to -1 against the generators")
    return out


def mirror_simplex(lattice: MirrorLattice) -> Polytope:
    """conv(v_0, ..., v_d), the mirror Newton polytope: the polar dual of ``dual_simplex``."""
    return dual_polytope(dual_simplex(lattice))


def dual_simplex(lattice: MirrorLattice) -> Polytope:
    """The rational simplex dual to the mirror simplex at level -1, built from
    the lattice pairing: its vertices are the m_i of ``polar_vertices`` and
    its facets are <., v_i> >= -1, the one of v_i through every m_j, j != i
    (Batyrev, "Dual polyhedra and mirror symmetry", 1994)."""
    scaled = zip(polar_vertices(lattice), lattice.weights)
    verts = [tuple(as_exact(Fraction(x, wi)) for x in wm) for wm, wi in scaled]
    gens = lattice.generators
    facets = [Facet(g, 1, tuple(j for j in range(len(gens)) if j != i)) for i, g in enumerate(gens)]
    return Polytope(lattice.dim, lattice.dim, verts, facets)


def newton_hull(lattice: MirrorLattice) -> Polytope:
    """Hull of the shifted Newton points in the dual-side coordinates.

    This equals bracket(dual_simplex(lattice)); for IP vectors it is the
    canonical Fano polytope whose spanning fan compactifies the mirror
    hypersurface.

    Only exchange-free monomials are hulled: if u_i*w_i and u_j*w_j are both at
    least l = lcm(w_i, w_j) for some i != j, u is the midpoint of the degree-w
    monomials u +- (l/w_i*e_i - l/w_j*e_j), and so is its image under the linear
    m_coords.  No vertex is dropped, so the vertices and facets are unchanged.
    """
    ws = lattice.weights
    pairs = [(i, j, lcm(ws[i], ws[j])) for j in range(len(ws)) for i in range(j)]
    pts = [
        lattice.m_coords([x - 1 for x in u])
        for u in newton_points(WeightVector(ws))
        if not any(u[i] * ws[i] >= l and u[j] * ws[j] >= l for i, j, l in pairs)
    ]
    return hull_with_faces(pts)
