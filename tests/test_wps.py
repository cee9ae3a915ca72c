import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cywps.errors import EnumerationLimitError, InternalError, NotWellFormedError
from cywps.polytope import FanoFlags, fano_classification, hull_with_faces, lattice_points
from cywps.wps import (
    WEIGHT_COUNT_LIMIT,
    WeightVector,
    dual_simplex,
    mirror_lattice,
    mirror_simplex,
    newton_count,
    newton_hull,
    newton_points,
    subset_gcds,
    weight_flags,
)
from conftest import fake_mirror_generators, ip_pool, random_well_formed, reference_det


def test_parse():
    assert WeightVector.parse("1, 2,3").weights == (1, 2, 3)
    with pytest.raises(ValueError):
        WeightVector.parse("0,1,2")
    with pytest.raises(ValueError):
        WeightVector.parse("1,x,3")
    with pytest.raises(ValueError):
        WeightVector.parse("1,2")
    assert WeightVector.parse(",".join(["1"] * WEIGHT_COUNT_LIMIT)).dim == WEIGHT_COUNT_LIMIT - 1
    with pytest.raises(EnumerationLimitError, match="limit"):
        WeightVector.parse(",".join(["1"] * (WEIGHT_COUNT_LIMIT + 1)))
    with pytest.raises(ValueError):  # _replace builds through the same checks
        WeightVector((1, 2, 3))._replace(weights=(0, 1, 2))


def test_weight_flags_examples():
    assert weight_flags(WeightVector((1, 1, 1, 1, 1))) == (True, True)
    assert weight_flags(WeightVector((1, 2, 3, 4, 5))) == (True, False)
    assert weight_flags(WeightVector((2, 2, 3)))[0] is False


def test_subset_gcd_examples():
    w = WeightVector((1, 2, 3, 4, 5))
    n_j = subset_gcds(w)
    assert len(n_j) == 1 << 5
    assert n_j[0] == 15
    assert n_j[1 << 2] == 3
    assert subset_gcds(WeightVector((1, 1, 2, 4, 8)))[1 << 4] == 8
    for mask, n in enumerate(n_j):
        assert n == math.gcd(w.degree, *(wi for i, wi in enumerate(w.weights) if mask >> i & 1))


def test_newton_points_cubic_against_brute_force():
    w = WeightVector((1, 1, 1))
    pts = newton_points(w)
    brute = [
        (a, b, c)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if a + b + c == 3
    ]
    assert sorted(brute) == pts
    assert len(pts) == 10
    assert newton_count(w) == 10


def test_newton_points_contains_all_ones_and_pure_power():
    for ws in ((1, 2, 3), (1, 1, 6, 14, 21), (2, 3, 5, 5)):
        w = WeightVector(ws)
        assert (1,) * len(ws) in newton_points(w)
    assert (43, 0, 0, 0, 0) in newton_points(WeightVector((1, 1, 6, 14, 21)))


def test_mirror_lattice_cubic():
    lat = mirror_lattice(WeightVector((1, 1, 1)))
    assert set(lat.generators) == {(1, 0), (0, 1), (-1, -1)}


def test_mirror_lattice_112():
    lat = mirror_lattice(WeightVector((1, 1, 2)))
    v0, v1, v2 = lat.generators
    assert tuple(1 * a + 1 * b + 2 * c for a, b, c in zip(v0, v1, v2)) == (0, 0)
    assert v0 == (-1, -2)


def test_mirror_lattice_rejects_non_well_formed():
    with pytest.raises(NotWellFormedError):
        mirror_lattice(WeightVector((2, 2, 3)))


@pytest.mark.parametrize(
    "gens, message",
    [
        (((0, 2), (1, 0), (-1, -1)), "primitive"),
        (((1, 0), (0, 1), (1, 1)), "weight relation"),
        # primitive, and (-3, -1) + (1, -1) + 2 (1, 1) = 0, but of index 2
        (((-3, -1), (1, -1), (1, 1)), "full lattice"),
    ],
)
def test_mirror_lattice_faults_are_internal_errors(monkeypatch, gens, message):
    fake_mirror_generators(monkeypatch, gens)
    with pytest.raises(InternalError, match=message):
        mirror_lattice(WeightVector((1, 1, 2)))


def test_dual_simplex_pairing_fault_is_an_internal_error():
    w = WeightVector((1, 2, 3, 4, 5))
    lattice = mirror_lattice(w)
    negated = tuple(tuple(-x for x in g) for g in lattice.generators)
    with pytest.raises(InternalError, match="pair to -1"):
        dual_simplex(lattice._replace(generators=negated))


def _same_polytope(built, oracle):
    assert (built.dim, built.ambient_dim) == (oracle.dim, oracle.ambient_dim)
    assert built.vertices == oracle.vertices
    assert built.facets == oracle.facets  # normals, offsets and vertex ids
    assert built.dump() == oracle.dump()


@st.composite
def _shuffled_well_formed(draw):
    # d = 2..6 in random weight order, so w_0 != 1 and the reduction's own basis are common
    rng = random.Random(draw(st.integers(0, 10**9)))
    w = random_well_formed(rng, draw(st.integers(2, 6)), 60)
    ws = list(w.weights)
    rng.shuffle(ws)
    return WeightVector(tuple(ws))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(sorted(ip_pool())).map(WeightVector.parse), _shuffled_well_formed()))
@example(WeightVector((5, 6, 22, 33)))
@example(WeightVector((1, 1, 1, 1, 2, 6, 24)))
def test_simplex_pair_matches_hull_oracle(w):
    # the hull is the oracle: both simplices are built from the lattice pairing
    lat = mirror_lattice(w)
    _same_polytope(mirror_simplex(lat), hull_with_faces(lat.generators))
    dual = dual_simplex(lat)
    _same_polytope(dual, hull_with_faces(dual.vertices))


def test_quintic_simplex_volume_by_determinant():
    lat = mirror_lattice(WeightVector((1, 1, 1, 1, 1)))
    v0 = lat.generators[0]
    rows = [[x - y for x, y in zip(v, v0)] for v in lat.generators[1:]]
    assert abs(reference_det(rows)) == 5


def _scan_box(p):
    """Candidates of the bounding box that ``lattice_points`` scans on a
    full-dimensional polytope."""
    assert p.is_full_dimensional
    lows = (math.ceil(min(v[j] for v in p.vertices)) for j in range(p.ambient_dim))
    highs = (math.floor(max(v[j] for v in p.vertices)) for j in range(p.ambient_dim))
    return math.prod(max(h - l + 1, 0) for l, h in zip(lows, highs))


def test_mirror_basis_keeps_lattice_scans_small(k3_weight_vectors):
    # an unreduced basis gave (21,24,25,30,50) the generator (-8,-175,-3570,-5950),
    # a scan box of 3.8e11 and a K3 box total of 3,116,759
    simplex = mirror_simplex(mirror_lattice(WeightVector((21, 24, 25, 30, 50))))
    flags = FanoFlags(canonical=True, reflexive=False, pseudoreflexive=False, almost_pseudoreflexive=True)
    assert fano_classification(simplex) == flags
    lattices = [mirror_lattice(w) for w in k3_weight_vectors]
    total = sum(_scan_box(mirror_simplex(lat)) + _scan_box(dual_simplex(lat)) for lat in lattices)
    assert total <= 46_074  # the total before the mirror basis was read off hermite


def test_dual_simplex_triangle():
    w = WeightVector((1, 1, 1))
    poly = dual_simplex(mirror_lattice(w))
    assert set(poly.vertices) == {(2, -1), (-1, 2), (-1, -1)}
    assert poly.contains((0, 0), strict=True)


def test_dual_simplex_contains_newton_hull():
    w = WeightVector((1, 1, 2, 4, 5))
    lat = mirror_lattice(w)
    poly = dual_simplex(lat)
    for u in newton_points(w):
        assert poly.contains(lat.m_coords([x - 1 for x in u]))


def test_pairing_consistency_small():
    rng = random.Random(7)
    for _ in range(12):
        w = random_well_formed(rng, rng.choice((2, 3)), 25)
        lat = mirror_lattice(w)
        for u in newton_points(w):
            m = lat.m_coords([x - 1 for x in u])
            for i, v in enumerate(lat.generators):
                assert sum(a * b for a, b in zip(m, v)) == u[i] - 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mirror_lattice_properties_random(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    dim = data.draw(st.sampled_from((2, 3, 4)))
    # w_0 = 1 has the pinned basis, w_0 != 1 the reduction's own: draw both
    unit_first = data.draw(st.booleans())
    w = random_well_formed(rng, dim, 200)
    while (w.weights[0] == 1) != unit_first:
        w = random_well_formed(rng, dim, 200)
    lat = mirror_lattice(w)
    gens = lat.generators
    # weighted relation
    for j in range(dim):
        assert sum(wi * g[j] for wi, g in zip(w.weights, gens)) == 0
    # primitivity
    from math import gcd

    for g in gens:
        acc = 0
        for x in g:
            acc = gcd(acc, abs(x))
        assert acc == 1
    # index 1: the d x d minors of the generators (each omits one) have gcd 1
    minors = [reference_det([g for k, g in enumerate(gens) if k != i]) for i in range(dim + 1)]
    assert gcd(*(int(x) for x in minors)) == 1
    # normalized volume of conv(v_i) equals the degree (determinant oracle)
    rows = [[x - y for x, y in zip(v, gens[0])] for v in gens[1:]]
    assert abs(reference_det(rows)) == w.degree


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.lists(st.integers(1, 7), min_size=d + 1, max_size=d + 1)))
@example([1, 1, 1])
@example([1, 1, 6, 14, 21])
def test_dual_simplex_lattice_points_match_newton_points(ws):
    # the lattice points of the dual simplex are the shifted degree-w monomials
    w = WeightVector(tuple(ws))
    assume(weight_flags(w)[0])
    lat = mirror_lattice(w)
    images = sorted(lat.m_coords([x - 1 for x in u]) for u in newton_points(w))
    assert lattice_points(dual_simplex(lat)) == images


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.lists(st.integers(1, 9), min_size=d + 1, max_size=d + 1)))
@example([1, 1, 6, 14, 21])
@example([1, 1, 2, 4, 5])
def test_newton_hull_matches_hull_of_all_monomials(ws):
    # the oracle hulls every shifted monomial, including the exchangeable ones
    w = WeightVector(tuple(ws))
    assume(weight_flags(w)[0])
    lat = mirror_lattice(w)
    full = hull_with_faces(lat.m_coords([x - 1 for x in u]) for u in newton_points(w))
    hull = newton_hull(lat)
    assert hull.vertices == full.vertices
    assert [(f.normal, f.offset) for f in hull.facets] == [(f.normal, f.offset) for f in full.facets]


def test_newton_hull_d6():
    # bracket(dual_simplex(lat)) refuses this one: its box has 13.5 M candidates
    w = WeightVector((1, 1, 1, 1, 2, 6, 24))
    lat = mirror_lattice(w)
    hull = newton_hull(lat)
    assert (len(hull.vertices), len(hull.facets)) == (12, 8)
    pts = newton_points(w)
    assert len(pts) == 90_046
    assert all(hull.contains(lat.m_coords([x - 1 for x in u])) for u in pts)
