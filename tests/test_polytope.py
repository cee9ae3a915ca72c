import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cywps.errors import DomainError
from cywps.exact import rat_det, rat_rank
from cywps.polytope import (
    Polytope,
    bracket,
    dual_face,
    dual_polytope,
    face_volume,
    fano_classification,
    hull_with_faces,
    interior_lattice_points,
    lattice_points,
    normal_cone_section,
    normalized_volume,
)
from cywps.wps import WeightVector, dual_simplex, mirror_lattice, mirror_simplex
from conftest import random_well_formed


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
    hull = newton_hull(w, mirror_lattice(w))
    assert hull.dim == 4


def _assert_vh_consistent(poly):
    d = poly.dim
    for f in poly.facets:
        # supported by at least d affinely independent vertices
        pts = [poly.vertices[i] for i in f.vertex_ids]
        base = pts[0]
        assert rat_rank([[x - b for x, b in zip(p, base)] for p in pts[1:]]) == d - 1
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


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3),
    st.data(),
)
def test_hull_vh_consistency_random(dim, data):
    npts = data.draw(st.integers(dim + 1, 12))
    pts = data.draw(
        st.lists(
            st.tuples(*(st.integers(-5, 5) for _ in range(dim))),
            min_size=npts,
            max_size=npts,
        )
    )
    poly = hull_with_faces(pts)
    if poly.dim < dim:
        return
    _assert_vh_consistent(poly)
    # every input point lies inside
    for p in pts:
        assert poly.contains(p)


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
    assert dual_polytope(mirror_simplex(lat)) == dual_simplex(w, lat)


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
    poly = dual_simplex(w, lat)
    assert len(lattice_points(poly)) == 10


def test_simplex_knapsack_matches_box_scan():
    rng = random.Random(5)
    for _ in range(10):
        dim = rng.choice((2, 3))
        w = random_well_formed(rng, dim, 18)
        lat = mirror_lattice(w)
        poly = dual_simplex(w, lat)
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


_coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@st.composite
def rational_point_sets(draw):
    """k + 1 to k + 5 rational points in R^2..R^4, in general position (k = n)
    or confined to an affine subspace of dimension at most k < n."""
    n = draw(st.integers(2, 4))
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
@given(rational_point_sets(), st.sampled_from((2, 3, Fraction(1, 2), Fraction(2, 3), Fraction(5, 3))))
def test_hull_scaling_random(pts, q):
    poly = hull_with_faces(pts)
    big = hull_with_faces([tuple(q * x for x in p) for p in pts])
    assert big.dim == poly.dim
    assert big.vertices == tuple(tuple(q * x for x in v) for v in poly.vertices)
    # chart coordinates do not change, as the chart basis scales with the points
    s = q if poly.is_full_dimensional else 1
    assert [(f.normal, f.offset, f.vertex_ids) for f in big.facets] == [
        (f.normal, s * f.offset, f.vertex_ids) for f in poly.facets
    ]
    assert big.faces_by_dim == poly.faces_by_dim
    for k, faces in poly.faces_by_dim.items():
        for face in faces:
            assert face_volume(big, face) == q**k * face_volume(poly, face)


@settings(max_examples=60, deadline=None)
@given(rational_point_sets())
# a simplex whose facet normals span a sublattice of index 14,183,138: the
# knapsack in facet coordinates would try that many tuples per lattice point
@example([(Fraction(5, 2), 3, 2), (-6, 0, 2), (Fraction(2, 3), Fraction(-1, 3), -1),
          (Fraction(1, 2), -5, Fraction(1, 3))])
def test_lattice_points_match_box_scan_random(pts):
    poly = hull_with_faces(pts)
    assert lattice_points(poly) == sorted(p for p in _box_points(poly) if poly.contains(p))


def test_bracket_examples():
    w = WeightVector((1, 1, 1, 1, 1))
    lat = mirror_lattice(w)
    dual = dual_simplex(w, lat)
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
    hull = bracket(dual_simplex(w, lat))
    assert fano_classification(hull).reflexive


def test_fano_degree7_p111112():
    w = WeightVector((1, 1, 1, 1, 1, 2))
    lat = mirror_lattice(w)
    hull = bracket(dual_simplex(w, lat))
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


def test_interior_lattice_points():
    tri = hull_with_faces([(1, 0), (0, 1), (-1, -1)])
    assert interior_lattice_points(tri) == [(0, 0)]


def test_dump_format():
    tri = hull_with_faces([(1, 0), (0, Fraction(1, 2)), (-1, -1)])
    text = tri.dump()
    assert text.splitlines() == ["-1 -1", "0 1/2", "1 0"]
