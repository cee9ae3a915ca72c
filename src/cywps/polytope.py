"""Exact rational polytope engine for dimensions up to 6.

Integers are the only number type inside the hull, lattice-point and volume
loops: each clears the denominators of its input once, on entry, and divides
once on exit.  Hulls
are built by incremental beneath-beyond insertion on the scaled integer
points (simplicial pieces, merged into true facets at the end), so there is
no epsilon anywhere.  A polytope carries its V-representation, its
H-representation {x : <normal, x> >= -offset} with primitive integer normals,
and a lazily built face lattice obtained by closing the vertex-facet
incidence under intersection.

Normalized volumes Vol_k = k! * vol_k are computed by a pulling triangulation
over the face lattice, measured against the saturated sublattice of the face
direction span; a rational face F is measured as the lattice face lF, by the
scaling rule Vol_k(F) = Vol_k(lF) / l^k.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, EnumerationLimitError
from .exact import (
    IntMatrix,
    as_exact,
    clear_denominators,
    echelon,
    format_rational,
    primitive_vector,
    rat_nullspace,
    rat_rank,
    smith_normal_form,
    unimodular_inverse,
)

Point = tuple  # coordinates are int or Fraction

LATTICE_SCAN_LIMIT = 10_000_000


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _normalize_point(p: Sequence) -> Point:
    return tuple(as_exact(x) for x in p)


def origin(n: int) -> Point:
    return (0,) * n


@dataclass(frozen=True)
class Facet:
    """Supporting halfspace <normal, x> >= -offset together with its vertex set."""

    normal: tuple[int, ...]
    offset: Fraction | int
    vertex_ids: tuple[int, ...]

    def polar_vertex(self) -> Point:
        """normal / offset: the vertex of the polar dual that this facet gives."""
        off = self.offset
        return tuple(as_exact(Fraction(c * off.denominator, off.numerator)) for c in self.normal)


@dataclass(frozen=True)
class Face:
    dim: int
    vertex_ids: tuple[int, ...]
    facet_ids: tuple[int, ...]


class FanoFlags(NamedTuple):
    canonical: bool
    reflexive: bool
    pseudoreflexive: bool
    almost_pseudoreflexive: bool


class Polytope:
    """Immutable exact polytope; lower-dimensional hulls carry an affine chart."""

    def __init__(
        self,
        ambient_dim: int,
        dim: int,
        vertices: Sequence[Point],
        facets: Sequence[Facet],
        chart: tuple[Point, tuple[Point, ...]] | None = None,
    ):
        order = sorted(range(len(vertices)), key=lambda i: vertices[i])
        remap = {old: new for new, old in enumerate(order)}
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.vertices: tuple[Point, ...] = tuple(vertices[i] for i in order)
        fs = [
            Facet(f.normal, as_exact(f.offset), tuple(sorted(remap[i] for i in f.vertex_ids)))
            for f in facets
        ]
        fs.sort(key=lambda f: (f.normal, f.offset))
        self.facets: tuple[Facet, ...] = tuple(fs)
        self._chart = chart
        self._faces: dict[int, tuple[Face, ...]] | None = None
        self._triangulations: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, nvertices={len(self.vertices)})"

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_dim

    @property
    def is_lattice(self) -> bool:
        return all(isinstance(x, int) for v in self.vertices for x in v)

    @property
    def is_simplex(self) -> bool:
        return len(self.vertices) == self.dim + 1

    def origin_interior(self) -> bool:
        return self.is_full_dimensional and all(f.offset > 0 for f in self.facets)

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        p = _normalize_point(point)
        if self.is_full_dimensional:
            for f in self.facets:
                v = _dot(f.normal, p) + f.offset
                if v < 0 or (strict and v == 0):
                    return False
            return True
        if self.dim == 0:
            return not strict and p == self.vertices[0]
        base, basis = self._chart
        coords = _chart_coordinates(basis, [tuple(a - b for a, b in zip(p, base))])
        if coords is None:
            return False
        if strict:
            return False
        (c,) = coords
        return all(_dot(f.normal, c) + f.offset >= 0 for f in self.facets)

    # -- face lattice -----------------------------------------------------------

    @property
    def faces_by_dim(self) -> dict[int, tuple[Face, ...]]:
        """All faces (including the polytope itself), keyed by dimension."""
        if self._faces is None:
            self._faces = self._build_face_lattice()
        return self._faces

    def faces(self, k: int) -> tuple[Face, ...]:
        return self.faces_by_dim.get(k, ())

    def _build_face_lattice(self) -> dict[int, tuple[Face, ...]]:
        nv = len(self.vertices)
        facet_vsets = [frozenset(f.vertex_ids) for f in self.facets]
        seen: set[frozenset] = set(facet_vsets)
        queue = deque(seen)
        while queue:
            cur = queue.popleft()
            for fv in facet_vsets:
                meet = cur & fv
                if meet and meet not in seen:
                    seen.add(meet)
                    queue.append(meet)
        seen.add(frozenset(range(nv)))
        out: dict[int, list[Face]] = {}
        for vset in seen:
            pts = [self.vertices[i] for i in vset]
            dim = _affine_dim(pts)
            facet_ids = tuple(j for j, fv in enumerate(facet_vsets) if vset <= fv)
            out.setdefault(dim, []).append(Face(dim, tuple(sorted(vset)), facet_ids))
        return {
            k: tuple(sorted(faces, key=lambda f: f.vertex_ids)) for k, faces in sorted(out.items())
        }

    @property
    def top_face(self) -> Face:
        return self.faces(self.dim)[0]

    def subfaces(self, face: Face) -> tuple[Face, ...]:
        """Faces of one dimension lower contained in ``face``."""
        vset = set(face.vertex_ids)
        return tuple(f for f in self.faces(face.dim - 1) if set(f.vertex_ids) <= vset)

    def _triangulate(self, face: Face) -> list[tuple[int, ...]]:
        """Pulling triangulation of a face into simplices (tuples of vertex ids)."""
        key = face.vertex_ids
        memo = self._triangulations
        if key in memo:
            return memo[key]
        if len(face.vertex_ids) == face.dim + 1:
            memo[key] = [face.vertex_ids]
            return memo[key]
        apex = face.vertex_ids[0]
        simplices = []
        for child in self.subfaces(face):
            if apex in child.vertex_ids:
                continue
            for s in self._triangulate(child):
                simplices.append((apex,) + s)
        memo[key] = simplices
        return simplices

    def dump(self) -> str:
        """Vertex dump, one vertex per line, space-separated rationals."""
        return "\n".join(" ".join(format_rational(x) for x in v) for v in self.vertices) + "\n"


# -- construction ---------------------------------------------------------------


def _cleared(points: Sequence[Point], factor: int) -> tuple[int, list[tuple[int, ...]]]:
    """(m, m * points) with m = factor * lcm of every coordinate denominator."""
    lcm, flat = clear_denominators([x for p in points for x in p])
    n = len(points[0])
    return factor * lcm, [tuple(factor * x for x in flat[i : i + n]) for i in range(0, len(flat), n)]


def _affine_dim(points: Sequence[Point]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return rat_rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def _affine_basis(points: Sequence[Point]) -> tuple[int, list[int]]:
    """Indices (base, independents) spanning the affine hull of the points;
    the independents are the first independent differences, in input order."""
    base = points[0]
    _, pivots = echelon([[p[j] - base[j] for p in points[1:]] for j in range(len(base))])
    return 0, [c + 1 for c in pivots]


def _chart_coordinates(basis: Sequence[Point], diffs: Sequence[Point]):
    """Coordinates of each diff in the given independent basis rows, or None
    if some diff lies outside their span."""
    k = len(basis)
    cols = [*basis, *diffs]
    reduced, pivots = echelon([[c[j] for c in cols] for j in range(len(basis[0]))])
    if pivots != list(range(k)):
        return None
    return [
        tuple(as_exact(Fraction(row[k + t], row[i])) for i, row in enumerate(reduced))
        for t in range(len(diffs))
    ]


def _hyperplane(points: Sequence[Point], inside: Point) -> tuple[tuple[int, ...], int]:
    """Primitive normal and offset of the hyperplane through k integer points
    in R^k, oriented so that <normal, inside> > -offset."""
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    null = rat_nullspace(rows, len(base))
    if len(null) != 1:
        raise ValueError("points do not span a hyperplane")
    normal, _ = primitive_vector(null[0])
    level = _dot(normal, base)
    side = _dot(normal, inside)
    if side < level:
        normal = tuple(-x for x in normal)
        level = -level
    elif side == level:
        raise ValueError("reference point lies on the hyperplane")
    return normal, -level


def _hull_full_dim(pts: list[Point]) -> list[tuple[tuple[int, ...], Fraction, list[int]]]:
    """Beneath-beyond hull of points affinely spanning R^k (k >= 1).

    The points are scaled once by m = (k + 1) * lcm(denominators), which makes
    them and the centroid of the start simplex integral, so insertion, merging
    and vertex identification run on integers; offsets are divided by m on
    return.  Returns the true facets as (normal, offset, point_ids); point ids
    refer to ``pts``.
    """
    k = len(pts[0])
    m, pts = _cleared(pts, k + 1)
    base, chosen = _affine_basis(pts)
    start = [base] + chosen
    centre = tuple(sum(pts[i][j] for i in start) // (k + 1) for j in range(k))

    pieces: dict[int, tuple[frozenset[int], tuple[int, ...], int]] = {}
    ridge_map: dict[frozenset[int], set[int]] = {}
    next_id = 0

    def add_piece(vset: frozenset[int]) -> None:
        nonlocal next_id
        normal, offset = _hyperplane([pts[i] for i in sorted(vset)], centre)
        pid = next_id
        next_id += 1
        pieces[pid] = (vset, normal, offset)
        for v in vset:
            ridge_map.setdefault(vset - {v}, set()).add(pid)

    def drop_piece(pid: int) -> None:
        vset, _, _ = pieces.pop(pid)
        for v in vset:
            r = vset - {v}
            ridge_map[r].discard(pid)
            if not ridge_map[r]:
                del ridge_map[r]

    for omit in start:
        add_piece(frozenset(start) - {omit})

    todo = [i for i in range(len(pts)) if i not in start]
    todo.sort(key=lambda i: (-max(map(abs, pts[i])), pts[i]))
    for i in todo:
        p = pts[i]
        visible = [pid for pid, (_, nrm, off) in pieces.items() if _dot(nrm, p) + off < 0]
        if not visible:
            continue
        visible_set = set(visible)
        horizon: list[frozenset[int]] = []
        for pid in visible:
            vset = pieces[pid][0]
            for v in vset:
                ridge = vset - {v}
                others = ridge_map[ridge] - visible_set
                if others:
                    horizon.append(ridge)
        for pid in visible:
            drop_piece(pid)
        for ridge in horizon:
            add_piece(ridge | {i})

    merged: dict[tuple[tuple[int, ...], int], set[int]] = {}
    for vset, nrm, off in pieces.values():
        merged.setdefault((nrm, off), set()).update(vset)

    candidates = sorted(set().union(*merged.values()))
    incident: dict[int, list[tuple[int, ...]]] = {c: [] for c in candidates}
    facet_points: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for (nrm, off) in merged:
        on_plane = [c for c in candidates if _dot(nrm, pts[c]) + off == 0]
        facet_points[(nrm, off)] = on_plane
        for c in on_plane:
            incident[c].append(nrm)
    vertex_ids = {c for c in candidates if rat_rank(incident[c]) == k}
    return [
        (nrm, Fraction(off, m), sorted(v for v in pt_ids if v in vertex_ids))
        for (nrm, off), pt_ids in facet_points.items()
    ]


def hull_with_faces(points: Iterable[Sequence]) -> Polytope:
    """Exact convex hull with minimal V-representation and H-representation.

    Lower-dimensional input is returned as a polytope marked with an explicit
    affine chart; its facet data lives in chart coordinates.
    """
    seen: set[Point] = set()
    pts: list[Point] = []
    for p in points:
        q = _normalize_point(p)
        if q not in seen:
            seen.add(q)
            pts.append(q)
    if not pts:
        raise ValueError("empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")

    base, chosen = _affine_basis(pts)
    dim = len(chosen)
    if dim == 0:
        return Polytope(ambient, 0, [pts[0]], [])

    chart = None
    coords = pts
    if dim < ambient:
        basis = tuple(tuple(x - b for x, b in zip(pts[i], pts[base])) for i in chosen)
        coords = _chart_coordinates(basis, [tuple(x - b for x, b in zip(p, pts[base])) for p in pts])
        assert coords is not None
        chart = (pts[base], basis)
    raw = _hull_full_dim(coords)
    vertex_ids = sorted(set().union(*(f[2] for f in raw)))
    remap = {old: new for new, old in enumerate(vertex_ids)}
    facets = [Facet(nrm, off, tuple(remap[i] for i in ids)) for nrm, off, ids in raw]
    return Polytope(ambient, dim, [pts[i] for i in vertex_ids], facets, chart)


# -- duality ---------------------------------------------------------------------


def dual_polytope(p: Polytope) -> Polytope:
    """Polar dual {y : <x, y> >= -1 for all x in P} at level -1.

    Vertices of the dual are the facet normals of P scaled so the supporting
    level is -1; facets of the dual correspond to the vertices of P.
    """
    if not p.origin_interior():
        raise DomainError("dual polytope requires the origin strictly interior")
    d = p.ambient_dim
    dual_vertices = [f.polar_vertex() for f in p.facets]
    facets = []
    for j, v in enumerate(p.vertices):
        prim, scale = primitive_vector(v)
        vset = tuple(i for i, f in enumerate(p.facets) if j in f.vertex_ids)
        facets.append(Facet(prim, 1 / scale, vset))
    return Polytope(d, d, dual_vertices, facets)


def dual_face(p: Polytope, dual: Polytope, face: Face) -> Face:
    """The face of ``dual`` polar to ``face`` of ``p`` (dimension d - k - 1)."""
    coords = {p.facets[j].polar_vertex() for j in face.facet_ids}
    want = tuple(sorted(i for i, v in enumerate(dual.vertices) if v in coords))
    k = p.dim - face.dim - 1
    for g in dual.faces(k):
        if g.vertex_ids == want:
            return g
    raise ValueError("no polar face found; polytope data inconsistent")


# -- lattice points ----------------------------------------------------------------


def _lattice_points_simplex(p: Polytope) -> list[Point] | None:
    """Knapsack enumeration in facet coordinates; None if not applicable.

    For a full-dimensional simplex the d+1 inward facet normals satisfy a
    unique positive integer relation sum(lam_i * normal_i) = 0; lattice points
    correspond to bounded integer solutions in the facet-value coordinates.
    """
    if not (p.is_full_dimensional and p.is_simplex and len(p.facets) == p.dim + 1):
        return None
    d = p.ambient_dim
    normals = [f.normal for f in p.facets]
    # the pivots of the d x (d + 1) matrix with the normals as columns are the
    # first d independent normals; its one free column gives the relation
    reduced, idx = echelon([[n[c] for n in normals] for c in range(d)])
    if len(idx) != d:
        return None
    rest = next(i for i in range(d + 1) if i not in idx)
    lam_vec, _ = primitive_vector(rat_nullspace(reduced, d + 1)[0])
    if all(x < 0 for x in lam_vec):
        lam_vec = tuple(-x for x in lam_vec)
    if any(x <= 0 for x in lam_vec):
        return None
    # |det| of the independent normals is lam[rest] times the index of the
    # lattice all normals span; only at index 1 is every knapsack solution a
    # lattice point, otherwise the enumeration grows by that index
    if abs(IntMatrix.from_rows([normals[i] for i in idx]).det()) != lam_vec[rest]:
        return None
    lows = [math.ceil(-f.offset) for f in p.facets]
    budget = -sum(l * lo for l, lo in zip(lam_vec, lows))
    if budget < 0:
        return []

    # d independent normals N give back the point from its facet values:
    # row j of [N | I] reduces to p_j * (e_j | row j of N^-1)
    inv, _ = echelon([[*normals[i], *(int(r == c) for c in range(d))] for r, i in enumerate(idx)])

    order = sorted(range(d + 1), key=lambda i: -lam_vec[i])
    points: list[Point] = []

    def recover(tvals: list[int]) -> None:
        x = []
        for j, row in enumerate(inv):
            num = sum(row[d + c] * tvals[idx[c]] for c in range(d))
            if num % row[j]:
                return
            x.append(num // row[j])
        if _dot(normals[rest], x) != tvals[rest]:
            return
        points.append(tuple(x))

    tvals = [0] * (d + 1)

    def dfs(pos: int, remaining: int) -> None:
        i = order[pos]
        if pos == d:
            if remaining % lam_vec[i] == 0:
                tvals[i] = lows[i] + remaining // lam_vec[i]
                recover(tvals)
            return
        for s in range(remaining // lam_vec[i] + 1):
            tvals[i] = lows[i] + s
            dfs(pos + 1, remaining - s * lam_vec[i])

    dfs(0, budget)
    points.sort()
    return points


def lattice_points(p: Polytope, limit: int = LATTICE_SCAN_LIMIT) -> list[Point]:
    """All lattice points of a bounded polytope, sorted lexicographically.

    Full-dimensional simplices whose facet normals span the lattice use an
    exact knapsack in facet coordinates; everything else falls back to a
    pruned bounding-box scan.
    """
    if p.dim == 0:
        v = p.vertices[0]
        return [v] if all(isinstance(x, int) for x in v) else []
    fast = _lattice_points_simplex(p)
    if fast is not None:
        return fast

    n = p.ambient_dim
    lo = [math.ceil(min(v[j] for v in p.vertices)) for j in range(n)]
    hi = [math.floor(max(v[j] for v in p.vertices)) for j in range(n)]
    if any(l > h for l, h in zip(lo, hi)):
        return []
    box = 1
    for l, h in zip(lo, hi):
        box *= h - l + 1
    if box > limit:
        raise EnumerationLimitError(f"lattice point scan over {box} candidates exceeds limit")

    if p.is_full_dimensional:
        # each inequality times its offset's denominator, so every sum is an int
        ineqs = [
            (tuple(f.offset.denominator * c for c in f.normal), f.offset.numerator)
            for f in p.facets
        ]
        # max attainable contribution of coordinates j..n-1 for each inequality
        maxrem = []
        for nrm, _ in ineqs:
            suffix = [0] * (n + 1)
            for j in range(n - 1, -1, -1):
                suffix[j] = suffix[j + 1] + max(nrm[j] * lo[j], nrm[j] * hi[j])
            maxrem.append(suffix)
        out: list[Point] = []
        pt = [0] * n

        def scan(j: int, partial: list[int]) -> None:
            if j == n:
                out.append(tuple(pt))
                return
            for x in range(lo[j], hi[j] + 1):
                nxt = [pp + nrm[j] * x for pp, (nrm, _) in zip(partial, ineqs)]
                ok = True
                for fi, (nrm, off) in enumerate(ineqs):
                    if nxt[fi] + maxrem[fi][j + 1] + off < 0:
                        ok = False
                        break
                if ok:
                    pt[j] = x
                    scan(j + 1, nxt)

        scan(0, [0] * len(ineqs))
        out.sort()
        return out

    # lower-dimensional: scan the box, test membership through the chart
    out = []
    from itertools import product

    for combo in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if p.contains(combo):
            out.append(tuple(combo))
    return sorted(out)


def interior_lattice_points(p: Polytope) -> list[Point]:
    if not p.is_full_dimensional:
        return []
    return [q for q in lattice_points(p) if p.contains(q, strict=True)]


def bracket(p: Polytope) -> Polytope:
    """Convex hull of the lattice points of ``p``; may be lower-dimensional."""
    pts = lattice_points(p)
    if not pts:
        raise DomainError("polytope has no lattice points")
    return hull_with_faces(pts)


# -- volumes ----------------------------------------------------------------------


def _saturated_coords(vertices: Sequence[Point]) -> list[tuple[int, ...]]:
    """Coordinates of integer vertices w.r.t. the saturated lattice of their
    direction span."""
    base = vertices[0]
    diffs = [tuple(x - b for x, b in zip(v, base)) for v in vertices[1:]]
    prim_rows = []
    for d in diffs:
        if any(d):
            prim, _ = primitive_vector(d)
            prim_rows.append(list(prim))
    k = rat_rank(prim_rows)
    _, _, V = smith_normal_form(IntMatrix.from_rows(prim_rows))
    vinv = unimodular_inverse(V)
    n = vinv.rows
    coords = []
    for d in [tuple(0 for _ in base)] + diffs:
        full = [sum(d[i] * vinv.at(i, j) for i in range(n)) for j in range(n)]
        assert all(x == 0 for x in full[k:]), "direction outside saturated span"
        coords.append(tuple(full[:k]))
    return coords


def _simplex_volume(coords: Sequence[Sequence[int]]) -> int:
    base = coords[0]
    return abs(IntMatrix.from_rows([[x - b for x, b in zip(c, base)] for c in coords[1:]]).det())


def face_volume(p: Polytope, face: Face) -> Fraction:
    """Normalized volume Vol_k of a face, relative to span(face) intersect Z^n."""
    if face.dim == 0:
        return Fraction(1)
    # Vol_k(F) = Vol_k(lF) / l^k, with lF integral
    scale, verts = _cleared([p.vertices[i] for i in face.vertex_ids], 1)
    coords = _saturated_coords(verts)
    index = {vid: i for i, vid in enumerate(face.vertex_ids)}
    total = sum(
        _simplex_volume([coords[index[v]] for v in simplex]) for simplex in p._triangulate(face)
    )
    return Fraction(total, scale**face.dim)


def normalized_volume(p: Polytope) -> Fraction:
    """Normalized volume of the whole polytope (Vol_0 of a point is 1)."""
    if p.dim == 0:
        return Fraction(1)
    return face_volume(p, p.top_face)


# -- classification ------------------------------------------------------------------


def fano_classification(p: Polytope) -> FanoFlags:
    """Canonical / reflexive / pseudoreflexive / almost-pseudoreflexive flags.

    A canonical Fano polytope has the origin as its only interior lattice
    point; reflexivity asks the dual to be a lattice polytope; the bracket
    conditions follow the combinatorial duality [P*] of canonical polytopes.
    Lower-dimensional input has empty interior, hence reports all flags false.
    """
    if not p.is_full_dimensional:
        return FanoFlags(False, False, False, False)
    if not p.is_lattice:
        raise ValueError("classification requires a lattice polytope")
    zero = origin(p.ambient_dim)
    ips = interior_lattice_points(p)
    if len(ips) == 1 and ips[0] != zero:
        raise ValueError("unique interior lattice point is not the origin; translate first")
    if ips != [zero]:
        return FanoFlags(False, False, False, False)
    reflexive = all(f.offset == 1 for f in p.facets)
    b1 = bracket(dual_polytope(p))
    almost = b1.is_full_dimensional and interior_lattice_points(b1) == [zero]
    pseudo = False
    if almost:
        b2 = bracket(dual_polytope(b1))
        pseudo = b2 == p
    return FanoFlags(True, reflexive, pseudo, almost)


def normal_cone_section(p: Polytope, face: Face) -> Polytope:
    """The pyramid over the polar face: conv({0} + vertices of face*), of
    dimension d - k; for the top face this is the single point {0}."""
    if not p.origin_interior():
        raise DomainError("normal cone section requires the origin strictly interior")
    zero = origin(p.ambient_dim)
    if face.dim == p.dim:
        return hull_with_faces([zero])
    return hull_with_faces([zero] + [p.facets[j].polar_vertex() for j in face.facet_ids])
