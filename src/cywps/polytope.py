"""Exact rational polytope engine for dimensions up to 6.

Integers are the only number type inside the hull, lattice-point and volume
loops: each clears the denominators of its input once, on entry, and divides
once on exit.  The one hull loop, ``BeneathBeyond``, inserts integer points
into a growing hull of simplicial boundary pieces, so there is no epsilon
anywhere; ``hull_with_faces`` clears its points once, inserts all of them and
merges the pieces into true facets, and the IP certificate of ``quasismooth``
grows one hull round by round and reads its pieces raw.  The mirror simplex
and its dual are not hulled: ``wps`` builds both, vertices and facets, from
the lattice pairing, and the hull is only their test oracle.  A polytope
carries its V-representation, its H-representation
{x : <normal, x> >= -offset} with primitive integer normals, and a lazily
built face lattice graded from the vertex-facet incidences alone: the faces
one dimension below a face are the inclusion-maximal nonempty proper meets
of it with the facets.

A lower-dimensional polytope is hulled as its projection onto the
coordinates its affine hull projects onto one-to-one, so the hull sees the
input's own numbers; its chart keeps, per ambient coordinate, the integer
affine form that lifts a projected point back.  There is no rational
elimination: ``_affine_basis`` (once per hull, for its dimension and start
simplex) and ``_chart`` read pivot rows and kernel vectors of the integer
column reduction ``exact.hermite`` on the hull's cleared points.  Lattice
points come from one pruned bounding-box scan for every polytope, the dual
simplex of a weight vector included; its lattice points are also the
degree-w monomials that ``wps.newton_points`` lists.

A facet normal and its offset are the primitive integer kernel vector of the
rows (p, 1) of its points.  For the start simplex of a hull it is the last
column of the transform of one unimodular column reduction, ``exact.hermite``;
every later piece, a horizon ridge joined to the new point, takes it from the
pencil of the two pieces on that ridge, an integer combination divided by its
gcd (Edelsbrunner, Algorithms in Combinatorial Geometry, 1987, 8.4).  A hull
point is a vertex when the facets through it meet in it alone.  Normalized
volumes Vol_k = k! * vol_k measure a lattice simplex by the index of its edge
lattice in the saturated lattice of its span, the gcd of the edges' k x k
minors: the pivot product of the same column reduction, one row step a vertex,
grown over every vertex subset by ``simplex_indices`` and down the chains of
faces of a pulling triangulation by ``_pulling_index``.  A rational face F is
measured as lF, its vertices cleared once: Vol_k(F) = Vol_k(lF) / l^k.  The
face of the polar dual polar to F is measured on the same face lattice read
upward, so no dual polytope is built for a volume.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, EnumerationLimitError
from .exact import (
    _clear_row,
    as_exact,
    clear_denominators,
    format_rational,
    hermite,
    pivot_rows,
    primitive_vector,
)

Point = tuple  # coordinates are int or Fraction
Chart = tuple[list[int], list[tuple[int, tuple[int, ...], int]]]  # see ``_chart``
Piece = tuple[frozenset[int], tuple[int, ...], int]  # see ``BeneathBeyond``

LATTICE_SCAN_LIMIT = 10_000_000


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _normalize_point(p: Sequence) -> Point:
    return tuple(as_exact(x) for x in p)


def origin(n: int) -> Point:
    return (0,) * n


class Facet(NamedTuple):
    """Supporting halfspace <normal, x> >= -offset together with its vertex set."""

    normal: tuple[int, ...]
    offset: Fraction | int
    vertex_ids: tuple[int, ...]

    def polar_vertex(self) -> Point:
        """normal / offset: the vertex of the polar dual that this facet gives."""
        off = self.offset
        return tuple(as_exact(Fraction(c * off.denominator, off.numerator)) for c in self.normal)


class Face(NamedTuple):
    dim: int
    vertex_ids: tuple[int, ...]
    facet_ids: tuple[int, ...]


class FanoFlags(NamedTuple):
    canonical: bool
    reflexive: bool
    pseudoreflexive: bool
    almost_pseudoreflexive: bool


class Polytope:
    """Immutable exact polytope; lower-dimensional hulls carry a chart, a
    coordinate projection with its integer lifts (see ``_chart``)."""

    def __init__(
        self,
        ambient_dim: int,
        dim: int,
        vertices: Sequence[Point],
        facets: Sequence[Facet],
        chart: Chart | None = None,
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

    def origin_interior(self) -> bool:
        return self.is_full_dimensional and all(f.offset > 0 for f in self.facets)

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        p = _normalize_point(point)
        if len(p) != self.ambient_dim:
            raise ValueError(f"point of dimension {len(p)} in a polytope in R^{self.ambient_dim}")
        if self._chart is not None:
            coords, lifts = self._chart
            y = tuple(p[c] for c in coords)
            # a lower-dimensional polytope has no interior
            if strict or any(m * x != _dot(g, y) + g0 for x, (m, g, g0) in zip(p, lifts)):
                return False
            p = y
        for f in self.facets:
            v = _dot(f.normal, p) + f.offset
            if v < 0 or (strict and v == 0):
                return False
        return True

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
        # graded from the vertex-facet incidences alone (Kaibel-Pfetsch): the
        # faces of dimension k - 1 are the inclusion-maximal nonempty proper
        # meets of a k-face with the facets; vertex sets are bitmasks
        facet_masks = [sum(1 << i for i in f.vertex_ids) for f in self.facets]
        out: dict[int, tuple[Face, ...]] = {}
        level = {(1 << len(self.vertices)) - 1}
        for k in range(self.dim, -1, -1):
            faces = [
                Face(
                    k,
                    tuple(i for i in range(len(self.vertices)) if mask >> i & 1),
                    tuple(j for j, fm in enumerate(facet_masks) if mask & fm == mask),
                )
                for mask in level
            ]
            out[k] = tuple(sorted(faces, key=lambda f: f.vertex_ids))
            below: set[int] = set()
            for mask in level:
                meets = {mask & fm for fm in facet_masks} - {0, mask}
                below.update(a for a in meets if not any(a != b and a & b == a for b in meets))
            level = below
        return dict(sorted(out.items()))

    @property
    def top_face(self) -> Face:
        return Face(self.dim, tuple(range(len(self.vertices))), ())

    def subfaces(self, face: Face) -> tuple[Face, ...]:
        """Faces of one dimension lower contained in ``face``."""
        vset = set(face.vertex_ids)
        return tuple(f for f in self.faces(face.dim - 1) if set(f.vertex_ids) <= vset)

    def superfaces(self, face: Face) -> tuple[Face, ...]:
        """Faces of one dimension higher containing ``face``."""
        vset = set(face.vertex_ids)
        return tuple(f for f in self.faces(face.dim + 1) if vset <= set(f.vertex_ids))

    def dump(self) -> str:
        """Vertex dump, one vertex per line, space-separated rationals."""
        return "\n".join(" ".join(format_rational(x) for x in v) for v in self.vertices) + "\n"


# -- construction ---------------------------------------------------------------


def _cleared(points: Sequence[Point]) -> tuple[int, list[tuple[int, ...]]]:
    """(l, l * points) with l the lcm of every coordinate denominator."""
    l, flat = clear_denominators([x for p in points for x in p])
    n = len(points[0])
    return l, [tuple(flat[i : i + n]) for i in range(0, len(flat), n)]


def _affine_basis(points: Sequence[tuple[int, ...]]) -> list[int]:
    """Indices of the integer points whose differences from points[0] are the
    first independent ones (their ``hermite`` pivot rows); with points[0] they
    span the affine hull, so their number is its dimension."""
    base, *rest = points
    h = hermite([[x - b for x, b in zip(p, base)] for p in rest])[0]
    return [r + 1 for r in pivot_rows(h)]


def _chart(l: int, base: tuple[int, ...], spanning: Sequence[tuple[int, ...]]) -> Chart:
    """Chart of the affine hull of x = p / l over the cleared ``base`` and the
    affinely independent cleared ``spanning`` points p: the first coordinates
    ``coords`` onto which it projects one-to-one, the pivot rows of
    ``hermite`` on the transposed edges, and for each ambient coordinate j the
    primitive (m, g, g0), m > 0, with m * x_j = <g, y> + g0 for y the
    projection of x: as in ``_hyperplane``, the kernel vector (a, a_j, a_0) of
    the rows (p_coords, p_j, 1), a_j != 0 as coords fix p_j."""
    cleared = [base, *spanning]
    edges = [[x - y for x, y in zip(p, base)] for p in spanning]
    coords = pivot_rows(hermite(list(zip(*edges)))[0])
    lifts = []
    for j in range(len(base)):
        t = hermite([[*(p[c] for c in coords), p[j], 1] for p in cleared], transform=True)[1]
        *a, aj, a0 = (row[-1] if t[-2][-1] < 0 else -row[-1] for row in t)  # so m > 0
        m, *g, g0 = primitive_vector([-aj * l, *(l * x for x in a), a0])[0]
        lifts.append((m, tuple(g), g0))
    return coords, lifts


def _hyperplane(points: Sequence[Point], inside: Point) -> tuple[tuple[int, ...], int]:
    """Primitive normal and offset of the hyperplane through k integer points
    in R^k, oriented so that <normal, inside> > -offset.

    (normal, offset) is the primitive kernel vector of the k x (k + 1) matrix
    of rows (p, 1), the last column of its ``hermite`` transform; a zero last
    pivot means the points do not span a hyperplane."""
    h, t = hermite([[*p, 1] for p in points], transform=True)
    if not h[-1][-2]:
        raise ValueError("points do not span a hyperplane")
    *normal, offset = (row[-1] for row in t)
    side = _dot(normal, inside) + offset
    if side < 0:
        return tuple(-x for x in normal), -offset
    if side == 0:
        raise ValueError("reference point lies on the hyperplane")
    return tuple(normal), offset


class BeneathBeyond:
    """Beneath-beyond hull of integer points affinely spanning R^k (k >= 1),
    started from the simplex ``start`` and grown by ``insert``: its ``pieces``
    are the boundary pieces (point_ids, normal, offset), each a simplex in the
    halfspace <normal, x> + offset >= 0.  A facet is the union of its pieces.

    Only the start simplex's k + 1 pieces come from ``_hyperplane``, each
    oriented by the start vertex it omits, which lies strictly on its inner
    side.  A later piece joins a horizon ridge to the new point p, and lies in
    the pencil of the two pieces on that ridge: with b = H_v(p) < 0 on the
    visible one and a = H_u(p) >= 0 on the kept one, a H_v - b H_u vanishes on
    the ridge and on p and is positive inside, so divided by the gcd of its
    entries it is the primitive kernel vector that ``_hyperplane`` would
    return."""

    def __init__(self, pts: Sequence[tuple[int, ...]], start: list[int]):
        self.points = list(pts)
        self._pieces: dict[int, Piece] = {}
        self._ridges: dict[frozenset[int], set[int]] = {}
        self._next_id = 0
        for omit in start:
            vset = frozenset(start) - {omit}
            self._add(vset, *_hyperplane([pts[i] for i in sorted(vset)], pts[omit]))
        todo = [i for i in range(len(pts)) if i not in start]
        todo.sort(key=lambda i: (-max(map(abs, pts[i])), pts[i]))
        for i in todo:
            self._grow(i)

    @property
    def pieces(self) -> list[Piece]:
        return list(self._pieces.values())

    def insert(self, p: tuple[int, ...]) -> None:
        """Append the point p and grow the hull over it."""
        self.points.append(p)
        self._grow(len(self.points) - 1)

    def _add(self, vset: frozenset[int], normal: tuple[int, ...], offset: int) -> None:
        pid = self._next_id
        self._next_id += 1
        self._pieces[pid] = (vset, normal, offset)
        for v in vset:
            self._ridges.setdefault(vset - {v}, set()).add(pid)

    def _drop(self, pid: int) -> None:
        vset, _, _ = self._pieces.pop(pid)
        for v in vset:
            r = vset - {v}
            self._ridges[r].discard(pid)
            if not self._ridges[r]:
                del self._ridges[r]

    def _grow(self, i: int) -> None:
        p = self.points[i]
        pieces = self._pieces
        visible = {}
        for pid, (_, nrm, off) in pieces.items():
            b = _dot(nrm, p) + off
            if b < 0:
                visible[pid] = b
        new: list[Piece] = []
        for pid, b in visible.items():
            vset, nrm_v, off_v = pieces[pid]
            for v in vset:
                ridge = vset - {v}
                for uid in self._ridges[ridge]:
                    if uid in visible:
                        continue
                    _, nrm_u, off_u = pieces[uid]
                    a = _dot(nrm_u, p) + off_u
                    h = [a * x - b * y for x, y in zip((*nrm_v, off_v), (*nrm_u, off_u))]
                    g = math.gcd(*h)
                    new.append((ridge | {i}, tuple(x // g for x in h[:-1]), h[-1] // g))
        for pid in visible:
            self._drop(pid)
        for piece in new:
            self._add(*piece)


def hull_with_faces(points: Iterable[Sequence]) -> Polytope:
    """Exact convex hull with minimal V-representation and H-representation.

    The points are cleared once, to l * points with l the lcm of their
    denominators: ``BeneathBeyond`` runs on those integers from points[0] and
    the points ``_affine_basis`` chooses, and the offsets of its pieces,
    merged into facets, are divided by l.  Lower-dimensional input carries a
    chart: it is hulled as its projection onto the coordinates its affine
    hull projects onto one-to-one, and its facets are stated in those
    coordinates.
    """
    pts = list(dict.fromkeys(map(_normalize_point, points)))
    if not pts:
        raise ValueError("empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed dimension")
    if not ambient:
        raise ValueError("points with no coordinates")

    l, cleared = _cleared(pts)
    chosen = _affine_basis(cleared)
    dim = len(chosen)
    chart = None
    if dim < ambient:
        chart = _chart(l, cleared[0], [cleared[i] for i in chosen])
        # an injective affine map keeps the points' affine dependences, so
        # the basis chosen on the input is the basis of its projection
        cleared = [tuple(p[c] for c in chart[0]) for p in cleared]
    if dim == 0:
        return Polytope(ambient, 0, [pts[0]], [], chart)
    pieces = BeneathBeyond(cleared, [0, *chosen]).pieces
    planes = dict.fromkeys((nrm, off) for _, nrm, off in pieces)  # the facets

    # a candidate is a vertex when the facets through it meet in it alone,
    # i.e. no other candidate lies on all of them: otherwise they meet in a
    # face of positive dimension, whose vertices are candidates too
    candidates = sorted(set().union(*(vset for vset, _, _ in pieces)))
    meets = {c: -1 for c in candidates}  # bitsets over candidate ids
    for nrm, off in planes:
        on = planes[nrm, off] = [c for c in candidates if _dot(nrm, cleared[c]) + off == 0]
        mask = sum(1 << c for c in on)
        for c in on:
            meets[c] &= mask
    vertex_ids = [c for c in candidates if meets[c] == 1 << c]
    remap = {old: new for new, old in enumerate(vertex_ids)}
    facets = [
        Facet(nrm, Fraction(off, l), tuple(remap[i] for i in on if i in remap))
        for (nrm, off), on in planes.items()
    ]
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


# -- lattice points ----------------------------------------------------------------


def _box_scan(
    lo: list[int], hi: list[int], ineqs: list[tuple[tuple[int, ...], int]]
) -> list[Point]:
    """Integer points of the box lo <= x <= hi with <normal, x> + offset >= 0
    for every integer inequality, pruned coordinate by coordinate."""
    n = len(lo)
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
    return out


def lattice_points(p: Polytope) -> list[Point]:
    """All lattice points of a bounded polytope, sorted lexicographically.

    One algorithm serves every polytope: a bounding-box scan pruned
    coordinate by coordinate against integer facet inequalities.  A
    lower-dimensional polytope is scanned on the coordinates of its chart,
    which its facets are stated in; each scanned point is lifted to the
    affine hull and kept when integral.  A box of more than
    LATTICE_SCAN_LIMIT candidates raises EnumerationLimitError.
    """
    coords, lifts = p._chart or (range(p.ambient_dim), None)
    # each inequality times its offset's denominator, so every sum is an int
    ineqs = [
        (tuple(f.offset.denominator * c for c in f.normal), f.offset.numerator) for f in p.facets
    ]
    lo = [math.ceil(min(v[j] for v in p.vertices)) for j in coords]
    hi = [math.floor(max(v[j] for v in p.vertices)) for j in coords]
    if any(l > h for l, h in zip(lo, hi)):
        return []
    box = 1
    for l, h in zip(lo, hi):
        box *= h - l + 1
    if box > LATTICE_SCAN_LIMIT:
        raise EnumerationLimitError(f"lattice point scan over {box} candidates exceeds limit")

    out = _box_scan(lo, hi, ineqs)
    if lifts is not None:
        lifted = ([divmod(_dot(g, y) + g0, m) for m, g, g0 in lifts] for y in out)
        out = [tuple(q for q, _ in x) for x in lifted if not any(r for _, r in x)]
    out.sort()
    return out


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


def simplex_indices(rows: Sequence[Sequence[int]]) -> Iterator[tuple[int, int]]:
    """(mask, index) for every independent subset S of ``rows``, the index the
    gcd of rows[S]'s maximal minors: Vol of conv(0, p_S) on rows p, and of
    conv(p_S) on rows (1, p), as subtracting the first row leaves the
    edges' minors and integer combinations of them.  Depth-first, a child
    S + {j} clears row j by ``hermite``'s row step on copies of S's reduced rows
    from j on, multiplies S's index by its pivot, and skips j's subtree if none."""
    stack = [(0, 1, 0, rows)]  # mask, index, next pivot column, reduced rows past the mask
    while stack:
        mask, index, c, rest = stack.pop()
        yield mask, index
        for i in range(len(rest)):
            live = [list(row) for row in rest[i:]]
            if pivot := _clear_row(live, c):
                j = len(rows) - len(rest) + i
                stack.append((mask | 1 << j, index * abs(pivot), c + 1, live[1:]))


def _pulling_index(face: Face, k: int, rows: dict, ids: Callable, children: Callable) -> int:
    """Vol_k of the k-polytope with a row (1, v) per id of ``face``, summed over
    its pulling triangulation: a simplex joins the apexes (first ids) of a chain
    of faces, each a child of the last that misses its apex.  A link clears its
    apex's row by ``hermite``'s row step on copies of the rows, multiplies the
    index by the pivot and hands the rest, past that column, to those children;
    a simplex, k + 1 ids, folds its rows in turn.  ``ids`` and ``children`` read
    the face lattice down (``vertex_ids``, ``subfaces``) or up (``facet_ids``,
    ``superfaces``: the polar face)."""
    members = ids(face)
    live = [list(rows[i]) for i in members]
    if len(members) == k + 1:
        return abs(math.prod(_clear_row(live[r:], r) for r in range(k + 1)))
    pivot = abs(_clear_row(live, 0))
    below = {i: row[1:] for i, row in zip(members[1:], live[1:])}
    return pivot * sum(
        _pulling_index(child, k - 1, below, ids, children)
        for child in children(face)
        if members[0] not in ids(child)
    )


def face_volume(p: Polytope, face: Face) -> Fraction:
    """Normalized volume Vol_k of a face, relative to span(face) intersect Z^n:
    its vertices cleared once to l * vertices, the ``_pulling_index`` of the
    rows (1, l * v) down the face lattice, divided once by l^k, as
    Vol_k(S) = Vol_k(lS) / l^k; a vertex measures 1."""
    l, cleared = _cleared([p.vertices[i] for i in face.vertex_ids])
    rows = {i: (1, *v) for i, v in zip(face.vertex_ids, cleared)}
    index = _pulling_index(face, face.dim, rows, attrgetter("vertex_ids"), p.subfaces)
    return Fraction(index, l**face.dim)


def polar_volume(p: Polytope, face: Face) -> Fraction:
    """Vol_{d-k-1} of the face polar to a proper k-face, the hull of the polar
    vertices normal_j / offset_j of its facets j, read upward on p's own face
    lattice: with l the lcm of those offsets' numerators, the ``_pulling_index``
    of the rows (1, normal_j * den_j * (l / num_j)), over l^(d-k-1)."""
    if not p.origin_interior() or face.dim == p.dim:
        raise DomainError("polar volume requires the origin strictly interior and a proper face")
    offsets = {j: p.facets[j].offset for j in face.facet_ids}
    l = math.lcm(*(off.numerator for off in offsets.values()))
    scale = {j: off.denominator * (l // off.numerator) for j, off in offsets.items()}
    rows = {j: (1, *(c * scale[j] for c in p.facets[j].normal)) for j in scale}
    k = p.dim - face.dim - 1
    return Fraction(_pulling_index(face, k, rows, attrgetter("facet_ids"), p.superfaces), l**k)


def normalized_volume(p: Polytope) -> Fraction:
    """Normalized volume of the whole polytope (Vol_0 of a point is 1)."""
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
    pts = lattice_points(dual_polytope(p))
    b1 = hull_with_faces(pts)  # [P*] lies in P*, so its lattice points are pts
    almost = b1.is_full_dimensional and [q for q in pts if b1.contains(q, strict=True)] == [zero]
    pseudo = False
    if almost:
        b2 = bracket(dual_polytope(b1))
        pseudo = b2 == p
    return FanoFlags(True, reflexive, pseudo, almost)


def normal_cone_section(p: Polytope, face: Face) -> Polytope:
    """The pyramid over the polar face: conv({0} + vertices of face*), of
    dimension d - k; for the top face this is the single point {0}.  This
    general construction builds a hull; it is the test oracle of
    ``stringy_polytope``, which measures conv(0, polar vertices off the face)."""
    if not p.origin_interior():
        raise DomainError("normal cone section requires the origin strictly interior")
    zero = origin(p.ambient_dim)
    return hull_with_faces([zero] + [p.facets[j].polar_vertex() for j in face.facet_ids])
