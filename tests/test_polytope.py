import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cywps import polytope
from cywps.errors import DomainError, EnumerationLimitError
from cywps.exact import primitive_vector
from cywps.polytope import (
    BeneathBeyond,
    Face,
    _affine_basis,
    _chart,
    _cleared,
    _hyperplane,
    bracket,
    dual_polytope,
    face_volume,
    fano_classification,
    hull_with_faces,
    interior_lattice_points,
    lattice_points,
    normal_cone_section,
    normalized_volume,
    polar_volume,
    simplex_indices,
)
from cywps.wps import WeightVector, dual_simplex, mirror_lattice, mirror_simplex, newton_hull
from conftest import (
    ip_pool,
    nontransverse_ip,
    random_well_formed,
    reference_det,
    reference_inverse,
    reference_rank,
    reference_snf,
    small_ip_vectors,
)


def _simplex(dim):
    pts = [tuple(0 for _ in range(dim))]
    pts += [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return hull_with_faces(pts)


def test_square_with_interior_point():
    poly = hull_with_faces([(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))])
    assert len(poly.vertices) == 4
    assert len(poly.facets) == 4


def test_simplex_f_vector():
    lat = mirror_lattice(WeightVector((1, 1, 1, 1, 1)))
    poly = mirror_simplex(lat)
    fvec = tuple(len(poly.faces(k)) for k in range(4))
    assert fvec == (5, 10, 10, 5)


def test_hull_of_collinear_points_is_lower_dimensional():
    poly = hull_with_faces([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert poly.dim == 1
    assert poly.vertices == ((0, 0), (3, 3))


def test_newton_hull_dimension():
    from cywps.wps import newton_hull

    w = WeightVector((1, 1, 6, 14, 21))
    hull = newton_hull(mirror_lattice(w))
    assert hull.dim == 4


def _assert_vh_consistent(poly):
    d = poly.dim
    for f in poly.facets:
        # supported by at least d affinely independent vertices
        pts = [poly.vertices[i] for i in f.vertex_ids]
        base = pts[0]
        assert reference_rank([[x - b for x, b in zip(p, base)] for p in pts[1:]]) == d - 1
        from math import gcd

        acc = 0
        for x in f.normal:
            acc = gcd(acc, abs(x))
        assert acc == 1
    for i, v in enumerate(poly.vertices):
        tight = [f for f in poly.facets if sum(n * x for n, x in zip(f.normal, v)) + f.offset == 0]
        assert len(tight) >= d
        for f in poly.facets:
            assert sum(n * x for n, x in zip(f.normal, v)) + f.offset >= 0
            assert (i in f.vertex_ids) == (
                sum(n * x for n, x in zip(f.normal, v)) + f.offset == 0
            )


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


_coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_hull_vh_consistency_random(dim, data):
    npts = data.draw(st.integers(dim + 1, 9))
    pts = data.draw(st.lists(st.tuples(*[_coord] * dim), min_size=npts, max_size=npts))
    first = hull_with_faces(pts)
    if first.dim < dim:
        return
    # boundary points that are not vertices: facet barycentres, and the
    # midpoints of vertex pairs that share an edge or a face
    extra = [tuple(Fraction(a + b, 2) for a, b in zip(u, v)) for u, v in combinations(first.vertices, 2)]
    for f in first.facets:
        vs = [first.vertices[i] for i in f.vertex_ids]
        extra.append(tuple(Fraction(sum(c), len(vs)) for c in zip(*vs)))
    # listed first, the extra points seed the start simplex and survive as
    # hull candidates, so the vertex test has to reject them
    for points in (pts + extra, extra + pts):
        poly = hull_with_faces(points)
        assert poly.vertices == first.vertices
        assert poly.facets == first.facets
        _assert_vh_consistent(poly)
        for p in points:
            assert poly.contains(p)
            # the rank definition: p is a vertex iff its tight facet normals have rank d
            tight = [f.normal for f in poly.facets if _dot(f.normal, p) + f.offset == 0]
            assert (p in poly.vertices) == (reference_rank(tight) == dim)


def test_hyperplane_cofactor_normal_and_degenerate_input():
    assert _hyperplane([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (0, 0, 0)) == ((-1, -1, -1), 1)
    assert _hyperplane([(0, 0), (4, 6)], (1, 0)) == ((3, -2), 0)
    with pytest.raises(ValueError, match="do not span"):
        _hyperplane([(0, 0, 0), (1, 1, 1), (2, 2, 2)], (1, 0, 0))
    with pytest.raises(ValueError, match="lies on the hyperplane"):
        _hyperplane([(0, 0, 0), (1, 0, 0), (0, 1, 0)], (1, 1, 0))


def _cofactor_hyperplane(points, inside):
    """The construction ``_hyperplane`` replaced: the normal is the vector of
    signed maximal minors (cofactors) of the k - 1 edge vectors, divided by
    their gcd, with the minors from a plain Fraction elimination."""
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    # reversed, the minors come in the order of the column each one omits
    minors = [
        int(reference_det([[r[j] for j in cols] for r in rows]))
        for cols in combinations(range(len(base)), len(rows))
    ][::-1]
    g = math.gcd(*minors)
    if not g:
        raise ValueError("points do not span a hyperplane")
    normal = tuple((-x if j % 2 else x) // g for j, x in enumerate(minors))
    level = sum(a * b for a, b in zip(normal, base))
    side = sum(a * b for a, b in zip(normal, inside))
    if side < level:
        normal, level = tuple(-x for x in normal), -level
    elif side == level:
        raise ValueError("reference point lies on the hyperplane")
    return normal, -level


@st.composite
def _hyperplane_inputs(draw):
    """k points in R^k for k = 1..7, some repeated, and a reference point
    that is random or on their plane."""
    k = draw(st.integers(1, 7))
    coords = st.lists(st.integers(-1000, 1000), min_size=k, max_size=k)
    points = []
    for _ in range(k):
        repeat = points and draw(st.integers(0, 3)) == 0
        points.append(draw(st.sampled_from(points)) if repeat else tuple(draw(coords)))
    if draw(st.booleans()):
        inside = tuple(draw(coords))
    else:
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        inside = tuple(2 * x - y for x, y in zip(a, b))
    return points, inside


def _outcome(fn, points, inside):
    try:
        return fn(points, inside)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_hyperplane_inputs())
@example(([(-16,)], (-8,)))  # k = 1: the edge-vector matrix has no rows
def test_hyperplane_matches_cofactor_oracle(case):
    points, inside = case
    assert _outcome(_hyperplane, points, inside) == _outcome(_cofactor_hyperplane, points, inside)


@st.composite
def _growing_hull_inputs(draw):
    """Integer points in R^k for k = 1..5, doubled so that the midpoints of
    pairs are integers, with midpoints and repeated points shuffled in, and
    where to split them into a first and a second batch."""
    k = draw(st.integers(1, 5))
    coords = st.tuples(*[st.integers(-4, 4)] * k)
    points = [tuple(2 * x for x in p) for p in draw(st.lists(coords, min_size=k + 1, max_size=8))]
    pairs = st.tuples(st.sampled_from(points), st.sampled_from(points))
    points += [tuple((x + y) // 2 for x, y in zip(a, b)) for a, b in draw(st.lists(pairs, max_size=6))]
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    points = draw(st.permutations(points))
    return points, draw(st.integers(0, len(points)))


@settings(max_examples=300, deadline=None)
@given(_growing_hull_inputs())
@example(([(0,), (2,), (-2,), (4,), (1,)], 2))  # k = 1: every ridge is empty
def test_pencil_pieces_match_hyperplane_and_one_shot_hull(case):
    points, split = case
    k = len(points[0])
    m, scaled = _cleared(points)
    chosen = _affine_basis(scaled)
    if len(chosen) < k:
        return
    first = max(split, chosen[-1] + 1)
    hull = BeneathBeyond(scaled[:first], [0, *chosen])
    for p in scaled[first:]:
        hull.insert(p)
    start = [scaled[i] for i in (0, *chosen)]
    centroid = tuple(Fraction(sum(c), k + 1) for c in zip(*start))
    merged = {}
    for vset, normal, offset in hull.pieces:
        assert _hyperplane([hull.points[i] for i in sorted(vset)], centroid) == (normal, offset)
        merged.setdefault((normal, Fraction(offset, m)), set()).update(hull.points[i] for i in vset)
    poly = hull_with_faces(points)
    assert set(merged) == {(f.normal, f.offset) for f in poly.facets}
    for f in poly.facets:
        vertices = {tuple(m * x for x in poly.vertices[i]) for i in f.vertex_ids}
        assert vertices <= merged[f.normal, f.offset]


@settings(max_examples=100, deadline=None)
@given(_growing_hull_inputs())
@example(([(0, 0), (1, 0), (0, 1)], 3))  # centroid (1/3, 1/3)
def test_start_simplex_needs_no_integral_centroid(case):
    # each start piece is oriented by the vertex it omits, so the hull of the
    # points as they are has the pieces of the hull of (k + 1) times them,
    # whose start centroid is integral, with the offsets divided by k + 1
    points, _ = case
    k = len(points[0])
    chosen = _affine_basis(points)
    if len(chosen) < k:
        return
    start = [0, *chosen]
    scaled = [tuple((k + 1) * x for x in p) for p in points]
    pieces = BeneathBeyond(points, start).pieces
    assert [(v, n, (k + 1) * o) for v, n, o in pieces] == BeneathBeyond(scaled, start).pieces


def test_hull_refuses_points_without_coordinates():
    for bad, message in (([()], "no coordinates"), ([(), ()], "no coordinates"), ([(1,), (1, 2)], "mixed")):
        with pytest.raises(ValueError, match=message):
            hull_with_faces(bad)


def test_cross_polytope_dual_is_cube():
    cross = hull_with_faces(
        [tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)]
    )
    cube = dual_polytope(cross)
    assert len(cube.vertices) == 8
    assert set(cube.vertices) == set(product((-1, 1), repeat=3))
    assert dual_polytope(cube) == cross


def test_dual_requires_interior_origin():
    shifted = hull_with_faces([(1, 1), (2, 1), (1, 2)])
    with pytest.raises(DomainError):
        dual_polytope(shifted)


def test_polar_volume_requires_interior_origin_and_a_proper_face():
    # with the origin on a facet, that facet's offset numerator 0 leaves no lcm to scale by
    for shifted in (hull_with_faces([(1, 1), (2, 1), (1, 2)]), hull_with_faces([(0, 0), (1, 0), (0, 1)])):
        for face in shifted.faces(0):
            with pytest.raises(DomainError):
                polar_volume(shifted, face)
    tri = hull_with_faces([(1, 0), (0, 1), (-1, -1)])
    assert [polar_volume(tri, face) for face in tri.faces(0)] == [3, 3, 3]
    with pytest.raises(DomainError):
        polar_volume(tri, tri.top_face)


def test_dual_involution_and_hull_consistency():
    w = WeightVector((1, 1, 2, 4, 5))
    poly = mirror_simplex(mirror_lattice(w))
    dual = dual_polytope(poly)
    assert dual_polytope(dual) == poly
    # independent reconstruction of the dual H-representation via a fresh hull
    redo = hull_with_faces(dual.vertices)
    assert {(f.normal, Fraction(f.offset)) for f in redo.facets} == {
        (f.normal, Fraction(f.offset)) for f in dual.facets
    }


def test_dual_simplex_agrees_with_dual_polytope():
    w = WeightVector((1, 2, 3, 4, 5))
    lat = mirror_lattice(w)
    assert dual_polytope(mirror_simplex(lat)) == dual_simplex(lat)


def test_lower_dimensional_chart():
    # a rational quadrilateral spanning a plane in R^4
    quad = hull_with_faces(
        [(0, 0, 0, 0), (2, 0, 0, 0), (0, Fraction(3, 2), Fraction(3, 2), 0), (1, 1, 1, 0)]
    )
    assert quad.dim == 2
    half = Fraction(1, 2)
    assert quad.contains((half, 0, 0, 0))
    assert quad.contains((1, half, half, 0))
    assert not quad.contains((0, 0, 1, 0))  # off the span
    assert not quad.contains((2, Fraction(3, 2), Fraction(3, 2), 0))  # in the plane, outside
    assert not quad.contains((1, half, half, 1))
    assert not quad.contains((1, half, half, 0), strict=True)
    assert lattice_points(quad) == [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 1, 0), (2, 0, 0, 0)]


def test_lower_dimensional_hull_sees_integers_only(monkeypatch):
    # the quadrilateral above, doubled to integer vertices: its projection
    # onto the chart coordinates hands the hull the input's own integers
    seen = []
    hull = polytope.BeneathBeyond

    def spy(pts, start):
        seen.extend(pts)
        return hull(pts, start)

    monkeypatch.setattr(polytope, "BeneathBeyond", spy)
    quad = hull_with_faces([(0, 0, 0, 0), (4, 0, 0, 0), (0, 3, 3, 0), (2, 2, 2, 0)])
    assert quad.dim == 2
    assert seen and all(type(x) is int for p in seen for x in p)
    assert seen == [(0, 0), (4, 0), (0, 3), (2, 2)]


def test_contains_rejects_a_point_of_the_wrong_dimension():
    square = hull_with_faces([(0, 0), (1, 0), (0, 1), (1, 1)])
    segment = hull_with_faces([(0, 0, 0), (1, 1, 1)])
    point = hull_with_faces([(1, 2)])
    for poly, bad in ((square, (0, 0, 5)), (square, (1,)), (segment, (1, 1)), (point, (1, 2, 0))):
        for strict in (False, True):
            with pytest.raises(ValueError, match="dimension"):
                poly.contains(bad, strict=strict)


def test_lattice_points_unit_square():
    square = hull_with_faces([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert lattice_points(square) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_lattice_points_thin_triangle():
    thin = hull_with_faces([(0, 0), (1, Fraction(1, 3)), (2, Fraction(1, 2))])
    assert thin.dim == 2
    # rational thin triangle: no interior points, only its lattice boundary
    assert lattice_points(thin) == [(0, 0)]


def test_lattice_points_cubic_dual_bijection():
    w = WeightVector((1, 1, 1))
    lat = mirror_lattice(w)
    poly = dual_simplex(lat)
    assert len(lattice_points(poly)) == 10


def test_dual_simplex_lattice_points_match_box_scan():
    rng = random.Random(5)
    for _ in range(10):
        dim = rng.choice((2, 3))
        w = random_well_formed(rng, dim, 18)
        lat = mirror_lattice(w)
        poly = dual_simplex(lat)
        fast = lattice_points(poly)
        box = [
            p
            for p in _box_points(poly)
            if poly.contains(p)
        ]
        assert fast == sorted(box)


def _box_points(poly):
    import math

    los = [math.ceil(min(Fraction(v[j]) for v in poly.vertices)) for j in range(poly.ambient_dim)]
    his = [math.floor(max(Fraction(v[j]) for v in poly.vertices)) for j in range(poly.ambient_dim)]
    return product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))


@st.composite
def rational_point_sets(draw, max_n=4):
    """k + 1 to k + 5 rational points in R^2..R^max_n, in general position
    (k = n) or confined to an affine subspace of dimension at most k < n."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n))
    npts = draw(st.integers(k + 1, k + 5))
    if k == n:
        return draw(st.lists(st.tuples(*[_coord] * n), min_size=npts, max_size=npts))
    base = draw(st.tuples(*[_coord] * n))
    dirs = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(_coord, min_size=k, max_size=k), min_size=npts, max_size=npts))
    return [
        tuple(b + sum(c * d[j] for c, d in zip(cs, dirs)) / 4 for j, b in enumerate(base))
        for cs in coeffs
    ]


@settings(max_examples=60, deadline=None)
@given(rational_point_sets(), st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
@example([(0, 0), (1, 0), (0, 1), (1, 1)], Fraction(5, 3))
def test_hull_scaling_random(pts, q):
    poly = hull_with_faces(pts)
    big = hull_with_faces([tuple(q * x for x in p) for p in pts])
    assert big.dim == poly.dim
    assert big.vertices == tuple(tuple(q * x for x in v) for v in poly.vertices)
    # facets of a lower-dimensional hull live in projected coordinates, which
    # scale with the points as well
    assert [(f.normal, f.offset, f.vertex_ids) for f in big.facets] == [
        (f.normal, q * f.offset, f.vertex_ids) for f in poly.facets
    ]
    assert big.faces_by_dim == poly.faces_by_dim
    for k, faces in poly.faces_by_dim.items():
        for face in faces:
            assert face_volume(big, face) == q**k * face_volume(poly, face)


@settings(max_examples=60, deadline=None)
@given(rational_point_sets())
# a thin rational simplex whose facet normals span a sublattice of index 14,183,138
@example([(Fraction(5, 2), 3, 2), (-6, 0, 2), (Fraction(2, 3), Fraction(-1, 3), -1),
          (Fraction(1, 2), -5, Fraction(1, 3))])
def test_lattice_points_match_box_scan_random(pts):
    poly = hull_with_faces(pts)
    assert lattice_points(poly) == sorted(p for p in _box_points(poly) if poly.contains(p))


def _face_closure(poly):
    """Every nonempty intersection of facet vertex sets, plus the whole
    vertex set: the faces as the closure of the facets under intersection."""
    facet_sets = [frozenset(f.vertex_ids) for f in poly.facets]
    seen = set(facet_sets)
    todo = list(seen)
    while todo:
        cur = todo.pop()
        for fv in facet_sets:
            meet = cur & fv
            if meet and meet not in seen:
                seen.add(meet)
                todo.append(meet)
    return seen | {frozenset(range(len(poly.vertices)))}


def _chart_point(poly, p):
    """p in the coordinates the facets of ``poly`` are stated in."""
    return p if poly._chart is None else tuple(p[c] for c in poly._chart[0])


@settings(max_examples=80, deadline=None)
@given(rational_point_sets(max_n=5))
@example([(0, 0), (3, 3)])
@example([(Fraction(1, 2), 1, 2)])
def test_face_lattice_graded_from_incidences(pts):
    poly = hull_with_faces(pts)
    lattice = poly.faces_by_dim
    assert sorted(lattice) == list(range(poly.dim + 1))
    assert {frozenset(f.vertex_ids) for fs in lattice.values() for f in fs} == _face_closure(poly)
    for k, faces in lattice.items():
        assert list(faces) == sorted(faces, key=lambda f: f.vertex_ids)
        for face in faces:
            verts = [poly.vertices[i] for i in face.vertex_ids]
            # the dimension oracle is the affine rank of the face's vertices
            assert face.dim == k == reference_rank([[x - b for x, b in zip(v, verts[0])] for v in verts])
            assert face.facet_ids == tuple(
                j for j, f in enumerate(poly.facets) if set(face.vertex_ids) <= set(f.vertex_ids)
            )
            on_all = tuple(
                i
                for i, v in enumerate(poly.vertices)
                if all(
                    _dot(poly.facets[j].normal, _chart_point(poly, v)) + poly.facets[j].offset == 0
                    for j in face.facet_ids
                )
            )
            assert on_all == face.vertex_ids
    # Euler-Poincare, the polytope itself counted as its face of top dimension
    assert sum((-1) ** k * len(faces) for k, faces in lattice.items()) == 1


@settings(max_examples=60, deadline=None)
@given(
    rational_point_sets(max_n=5).filter(lambda pts: hull_with_faces(pts).dim < len(pts[0])),
    st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4),
    st.integers(0, 4),
    _coord,
)
def test_lower_dimensional_contains_matches_hull(pts, combos, axis, shift):
    poly = hull_with_faces(pts)
    verts = poly.vertices
    n = poly.ambient_dim
    queries = list(verts)
    u, v, w = verts[0], verts[len(verts) // 2], verts[-1]
    for a, b in combos:
        # affine combinations of vertices lie on the flat, inside or not
        on = tuple(x + a * (y - x) + b * (z - x) for x, y, z in zip(u, v, w))
        off = tuple(x + shift if j == axis % n else x for j, x in enumerate(on))
        queries += [on, off]
    for q in queries:
        assert poly.contains(q) == (hull_with_faces([*verts, q]) == poly)
        assert not poly.contains(q, strict=True)


def polar_volume_by_coordinates(poly, dual, face):
    """Vol of the polar face by coordinates: the face of the built ``dual``
    polar to ``face`` is found by its vertices, the polar vertices of the
    facets through ``face``, and measured by ``face_volume``."""
    polar = {poly.facets[j].polar_vertex() for j in face.facet_ids}
    want = tuple(i for i, v in enumerate(dual.vertices) if v in polar)
    (match,) = [g for g in dual.faces(poly.dim - face.dim - 1) if g.vertex_ids == want]
    return face_volume(dual, match)


def _newton(key):
    return newton_hull(mirror_lattice(WeightVector.parse(key)))


def _simplex_of(key):
    return mirror_simplex(mirror_lattice(WeightVector.parse(key)))


def _centred(pts):
    """The hull of ``pts`` moved by minus their mean, which lies inside when
    the hull is full-dimensional, as every point has a positive weight."""
    mean = [sum(c) / len(pts) for c in zip(*pts)]
    return hull_with_faces([tuple(x - m for x, m in zip(p, mean)) for p in pts])


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.sampled_from(sorted(nontransverse_ip())).map(_newton),
        st.sampled_from(sorted(ip_pool())).map(_simplex_of),
        rational_point_sets().map(_centred).filter(lambda poly: poly.is_full_dimensional),
    )
)
@example(_newton("1,1,6,14,21"))
@example(_simplex_of("1,1,2,4,5"))
@example(_centred([(Fraction(2, 3), 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1), (-1, -1, 0), (0, 0, -2)]))
def test_polar_volume_matches_the_dual_by_coordinates(poly):
    # Newton hulls and mirror simplices (the k3_identity path) have integer
    # offsets, the simplices' polar vertices denominators; centred rational
    # hulls have fractional offsets; every proper face is measured both ways
    dual = dual_polytope(poly)
    for k in range(poly.dim):
        for face in poly.faces(k):
            assert polar_volume(poly, face) == polar_volume_by_coordinates(poly, dual, face), face


def pulling_triangulation(poly, face):
    """Simplices (tuples of vertex ids) of the pulling triangulation of a face,
    read off ``poly.faces``: the first vertex joined to the triangulations of
    the facets of the face that miss it."""
    if len(face.vertex_ids) == face.dim + 1:
        return [face.vertex_ids]
    apex = face.vertex_ids[0]
    children = [
        g for g in poly.faces(face.dim - 1)
        if set(g.vertex_ids) <= set(face.vertex_ids) and apex not in g.vertex_ids
    ]
    return [(apex, *s) for g in children for s in pulling_triangulation(poly, g)]


def simplex_index(points):
    """Vol_k of a lattice simplex by its definition: the gcd of the k x k
    minors of its edge vectors, each a ``reference_det``, read until it is 1;
    0 when the points are affinely dependent, 1 for a point (the empty minor)."""
    base, *rest = points
    edges = [[x - b for x, b in zip(p, base)] for p in rest]
    if edges and reference_rank(edges) < len(edges):
        return 0
    index = 0
    for cols in combinations(range(len(base)), len(edges)):
        index = math.gcd(index, int(reference_det([[row[c] for c in cols] for row in edges])))
        if index == 1:
            break
    return index


def volume_by_snf(poly, face):
    """Vol_k of a face by an independent route: coordinates of the cleared
    vertices in a basis of the saturated lattice of the face direction span,
    read off the reference Smith normal form of the tests, then one
    determinant per simplex of ``pulling_triangulation``; it shares no code
    with the volume walk of the package."""
    if face.dim == 0:
        return Fraction(1)
    verts = [poly.vertices[i] for i in face.vertex_ids]
    scale = math.lcm(*(Fraction(x).denominator for v in verts for x in v))
    base, *rest = [tuple(int(scale * x) for x in v) for v in verts]
    diffs = [(0,) * len(base)] + [tuple(x - b for x, b in zip(v, base)) for v in rest]
    prim_rows = [list(primitive_vector(d)[0]) for d in diffs if any(d)]
    k = reference_rank(prim_rows)
    _, _, v = reference_snf(prim_rows)
    vinv = reference_inverse(v)
    coords = {}
    for vid, d in zip(face.vertex_ids, diffs):
        full = [sum(x * y for x, y in zip(d, col)) for col in zip(*vinv)]
        assert not any(full[k:]), "direction outside saturated span"
        coords[vid] = full[:k]
    total = 0
    for simplex in pulling_triangulation(poly, face):
        b = coords[simplex[0]]
        edges = [[x - y for x, y in zip(coords[u], b)] for u in simplex[1:]]
        total += abs(reference_det(edges))
    return Fraction(total, scale**face.dim)


@st.composite
def _integer_point_lists(draw):
    """1-8 integer points in dimension 1-6; some repeat an earlier point or
    are an affine combination of two earlier ones."""
    dim = draw(st.integers(1, 6))
    pts = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "affine"]))
        if kind == "repeat" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "affine" and len(pts) > 1:
            u, v = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            a = draw(st.integers(-2, 2))
            pts.append(tuple(x + a * (y - x) for x, y in zip(u, v)))
        else:
            pts.append(tuple(draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim))))
    return pts


@settings(max_examples=150, deadline=None)
@given(_integer_point_lists())
@example([(0, 0), (1, 0), (0, 1), (1, 1)])
@example([(3,), (3,), (5,)])
@example([(0, 0, 0), (2, 4, 6), (1, 2, 3)])
def test_simplex_indices_walk_matches_simplex_index(pts):
    # the walk on rows (1, p) measures conv(p_S) and on rows p conv(0, p_S), on every subset
    zero = (0,) * len(pts[0])
    affine = dict(simplex_indices([(1, *p) for p in pts]))
    based = dict(simplex_indices(pts))
    assert affine[0] == based[0] == 1
    for mask in range(1, 1 << len(pts)):
        subset = [p for i, p in enumerate(pts) if mask >> i & 1]
        assert affine.get(mask, 0) == simplex_index(subset), (pts, mask)
        assert based.get(mask, 0) == simplex_index([zero, *subset]), (pts, mask)


@settings(max_examples=60, deadline=None)
@given(rational_point_sets(max_n=5))
# a segment of lattice length 2 in R^3, and a triangle of index 2 in a plane of R^4
@example([(0, 0, 0), (2, 4, 6)])
@example([(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, Fraction(1, 2))])
def test_face_volumes_match_snf_oracle(pts):
    poly = hull_with_faces(pts)
    for faces in poly.faces_by_dim.values():
        for face in faces:
            assert face_volume(poly, face) == volume_by_snf(poly, face)


def test_oracles_do_not_run_on_the_kernel(monkeypatch):
    # an oracle that called hermite or its row step would move with a defect of
    # them, so every oracle of these tests (volume_by_snf with its triangulation,
    # simplex_index) has to answer with both raising in every module
    poly = hull_with_faces([(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, Fraction(1, 2)), (2, 0, 1, 3)])
    faces = [face for faces in poly.faces_by_dim.values() for face in faces]
    volumes = [face_volume(poly, face) for face in faces]
    plane = _hyperplane([(1, 0, 0), (0, 2, 0), (0, 0, 3)], (0, 0, 0))
    tri = hull_with_faces([(0, 0), (2, 0), (0, 2)])

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle ran on hermite")

    for name, module in list(sys.modules.items()):
        for kernel in ("hermite", "_clear_row"):
            if name.split(".")[0] == "cywps" and hasattr(module, kernel):
                monkeypatch.setattr(module, kernel, refuse)
    with pytest.raises(AssertionError, match="oracle ran"):
        face_volume(tri, Face(2, (0, 1, 2), ()))
    assert reference_rank([[1, 2, 3], [2, 4, 6], [0, 1, Fraction(1, 2)]]) == 2
    assert reference_det([[2, 1], [1, 1]]) == 1
    assert reference_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert [row[i] for i, row in enumerate(reference_snf([[2, 4], [6, 8]])[1])] == [2, 4]
    assert [volume_by_snf(poly, face) for face in faces] == volumes
    assert simplex_index([(0, 0, 0), (2, 4, 6), (1, 0, 1)]) == 4
    assert simplex_index([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)]) == 2
    assert simplex_index([(0, 0), (1, 1), (2, 2)]) == 0
    assert _cofactor_hyperplane([(1, 0, 0), (0, 2, 0), (0, 0, 3)], (0, 0, 0)) == plane


@settings(max_examples=80, deadline=None)
@given(rational_point_sets(max_n=5))
@example([(Fraction(1, 2), 1, 2)])
@example([(0, 0, 0), (0, 0, 0), (1, 2, 3), (2, 4, 6), (0, 1, 0)])
def test_affine_basis_is_greedy_and_chart_lifts_hold(pts):
    diffs = [[x - b for x, b in zip(p, pts[0])] for p in pts]
    l, cleared = _cleared(pts)
    chosen = _affine_basis(cleared)
    assert chosen == [
        i for i in range(1, len(pts)) if reference_rank(diffs[1 : i + 1]) > reference_rank(diffs[1:i])
    ]
    # the chart projects onto the first independent coordinates of the edges
    columns = list(zip(*(diffs[i] for i in chosen)))
    coords, lifts = _chart(l, cleared[0], [cleared[i] for i in chosen])
    assert coords == [
        j for j in range(len(columns)) if reference_rank(columns[: j + 1]) > reference_rank(columns[:j])
    ]
    for m, g, g0 in lifts:
        assert m > 0 and math.gcd(m, *g, g0) == 1
    for p in pts:
        y = [p[c] for c in coords]
        assert all(m * x == _dot(g, y) + g0 for x, (m, g, g0) in zip(p, lifts))


def test_lattice_points_of_cube_on_hyperplane():
    # the cube [0, 10]^3 placed in R^4 on x4 = x1 + x2 + x3, and a rational
    # shift of it whose lattice points need the last coordinate solved
    cube = hull_with_faces(
        [(a, b, c, a + b + c) for a, b, c in product((0, 10), repeat=3)]
    )
    assert cube.dim == 3
    points = lattice_points(cube)
    assert len(points) == 1331
    assert points == [(*p, sum(p)) for p in product(range(11), repeat=3)]
    half = Fraction(1, 2)
    shifted = hull_with_faces(
        [(a, b, c, (a + b + c) / 2 + half) for a, b, c in product((0, 10), repeat=3)]
    )
    odd = [p for p in product(range(11), repeat=3) if sum(p) % 2]
    assert lattice_points(shifted) == [(*p, (sum(p) + 1) // 2) for p in odd]


def test_lattice_points_refuses_large_box():
    # 90,046 lattice points in a bounding box of 13,473,698 candidates
    w = WeightVector((1, 1, 1, 1, 2, 6, 24))
    with pytest.raises(EnumerationLimitError):
        lattice_points(dual_simplex(mirror_lattice(w)))


def test_bracket_examples():
    w = WeightVector((1, 1, 1, 1, 1))
    lat = mirror_lattice(w)
    dual = dual_simplex(lat)
    br = bracket(dual)
    assert br == dual  # Gorenstein: rational dual simplex is a lattice simplex
    # bracket is contained in the polytope and idempotent
    assert all(dual.contains(v) for v in br.vertices)
    assert bracket(br) == br


def test_bracket_monotone_idempotent_random():
    rng = random.Random(11)
    for _ in range(8):
        pts = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(7)]
        poly = hull_with_faces(pts)
        if poly.dim < 2:
            continue
        br = bracket(poly)
        for v in br.vertices:
            assert poly.contains(v)
        assert bracket(br) == br


def test_normalized_volume_examples():
    for dim in (1, 2, 3, 4):
        assert normalized_volume(_simplex(dim)) == 1
    # edge of the (1,1,2) mirror simplex has lattice length 2 = gcd(4, 2)
    lat = mirror_lattice(WeightVector((1, 1, 2)))
    poly = mirror_simplex(lat)
    idx = {v: i for i, v in enumerate(poly.vertices)}
    edge_ids = tuple(sorted((idx[(-1, -2)], idx[(1, 0)])))
    edge = next(f for f in poly.faces(1) if f.vertex_ids == edge_ids)
    assert face_volume(poly, edge) == 2
    # quintic mirror simplex
    quintic = mirror_simplex(mirror_lattice(WeightVector((1, 1, 1, 1, 1))))
    assert normalized_volume(quintic) == 5


def test_volume_scaling_rule():
    tri = hull_with_faces([(0, 0), (1, 0), (0, 1)])
    scaled = hull_with_faces([(0, 0), (3, 0), (0, 3)])
    assert normalized_volume(scaled) == 9 * normalized_volume(tri)
    half = hull_with_faces(
        [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))]
    )
    assert normalized_volume(half) == Fraction(1, 4)
    # two simplices of Vol_2 = 1/4 each, summed as integers and divided once
    square = hull_with_faces([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))])
    assert face_volume(square, square.top_face) == Fraction(1, 2)
    point = hull_with_faces([(Fraction(1, 3), 2, 5)])
    assert face_volume(point, point.faces(0)[0]) == 1


def test_fano_reflexive_triangle():
    tri = hull_with_faces([(1, 0), (0, 1), (-1, -1)])
    flags = fano_classification(tri)
    assert flags == (True, True, True, True)


def test_fano_11245():
    w = WeightVector((1, 1, 2, 4, 5))
    lat = mirror_lattice(w)
    simplex = mirror_simplex(lat)
    flags = fano_classification(simplex)
    assert flags.canonical
    assert not flags.reflexive
    assert flags.almost_pseudoreflexive
    hull = bracket(dual_simplex(lat))
    assert fano_classification(hull).reflexive


def test_fano_scans_the_dual_once(monkeypatch):
    # [P*]'s interior points are read off the dual's scan: P, P* and [[P*]*] make three
    simplex = mirror_simplex(mirror_lattice(WeightVector((1, 1, 2, 4, 5))))
    scanned = []

    def spy(p):
        scanned.append(p)
        return lattice_points(p)

    monkeypatch.setattr(polytope, "lattice_points", spy)
    flags = fano_classification(simplex)
    assert flags.almost_pseudoreflexive and not flags.reflexive
    assert len(scanned) == 3


def test_fano_degree7_p111112():
    w = WeightVector((1, 1, 1, 1, 1, 2))
    lat = mirror_lattice(w)
    hull = bracket(dual_simplex(lat))
    flags = fano_classification(hull)
    assert flags.pseudoreflexive
    assert not flags.reflexive


def test_fano_translation_error():
    shifted = hull_with_faces([(2, 1), (1, 2), (0, 0)])
    with pytest.raises(ValueError):
        fano_classification(shifted)


def test_pseudoreflexive_equals_reflexive_dim_le_4():
    rng = random.Random(3)
    polys = [
        mirror_simplex(mirror_lattice(WeightVector(ws)))
        for ws in ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1), (1, 1, 2, 4, 5), (1, 2, 3, 4, 5))
    ]
    for _ in range(6):
        w = random_well_formed(rng, rng.choice((2, 3)), 16)
        polys.append(mirror_simplex(mirror_lattice(w)))
    for poly in polys:
        flags = fano_classification(poly)
        if flags.canonical:
            assert flags.pseudoreflexive == flags.reflexive


def test_normal_cone_section_top_face():
    poly = mirror_simplex(mirror_lattice(WeightVector((1, 1, 1, 1, 1))))
    section = normal_cone_section(poly, poly.top_face)
    assert section.dim == 0
    assert normalized_volume(section) == 1


def test_normal_cone_section_quintic_edge():
    poly = mirror_simplex(mirror_lattice(WeightVector((1, 1, 1, 1, 1))))
    edge = poly.faces(1)[0]
    section = normal_cone_section(poly, edge)
    assert section.dim == 3
    assert normalized_volume(section) == 25


def test_normal_cone_section_facet_lengths():
    w = WeightVector((1, 2, 3, 4, 5))
    lat = mirror_lattice(w)
    poly = mirror_simplex(lat)
    idx = {v: i for i, v in enumerate(poly.vertices)}
    for drop, wd in enumerate(w.weights):
        keep = tuple(sorted(idx[lat.generators[i]] for i in range(5) if i != drop))
        facet_face = next(f for f in poly.faces(3) if f.vertex_ids == keep)
        section = normal_cone_section(poly, facet_face)
        assert section.dim == 1
        from math import gcd

        assert normalized_volume(section) == Fraction(gcd(w.degree, wd), wd)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(ip_pool())).map(WeightVector.parse), small_ip_vectors((2, 3, 4)))
)
@example(WeightVector((1, 1, 6, 14, 21)))
def test_simplex_sections_match_hull_oracle(w):
    # the general hull construction is the oracle for the simplex sections
    poly = mirror_simplex(mirror_lattice(w))
    zero = (0,) * poly.ambient_dim
    for faces in poly.faces_by_dim.values():
        for face in faces:
            polar = [poly.facets[j].polar_vertex() for j in face.facet_ids]
            oracle = normalized_volume(normal_cone_section(poly, face))
            l, cleared = _cleared([zero, *polar])
            assert Fraction(simplex_index(cleared), l ** len(polar)) == oracle


def test_interior_lattice_points():
    tri = hull_with_faces([(1, 0), (0, 1), (-1, -1)])
    assert interior_lattice_points(tri) == [(0, 0)]


def test_dump_format():
    tri = hull_with_faces([(1, 0), (0, Fraction(1, 2)), (-1, -1)])
    text = tri.dump()
    assert text.splitlines() == ["-1 -1", "0 1/2", "1 0"]
