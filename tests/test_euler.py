import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cywps import euler, polytope, quasismooth
from cywps.errors import DomainError, NotIPError
from cywps.euler import (
    k3_identity,
    mirror_test,
    stringy_mirror_closed,
    stringy_polytope,
    stringy_reflexive,
    vafa_double_sum,
    vafa_subset_sum,
)
from cywps.exact import format_rational
from cywps.polytope import dual_polytope, fano_classification, hull_with_faces
from cywps.quasismooth import census, has_ip_property, is_transverse, transverse_candidates
from cywps.wps import (
    WeightVector,
    dual_simplex,
    mirror_lattice,
    mirror_simplex,
    newton_hull,
    weight_flags,
)
from conftest import (
    ip_pool,
    nontransverse_ip,
    nontransverse_newton_chi,
    random_well_formed,
    reference_stringy_mirror_closed,
    reference_vafa_double_sum,
    small_ip_vectors,
)


def vafa_literal(w: WeightVector) -> Fraction:
    """Straightforward double loop over (l, r), as an independent oracle."""
    deg = w.degree
    qs = w.charges
    total = Fraction(0)
    for l in range(deg):
        for r in range(deg):
            prod = Fraction(1)
            for q in qs:
                if (l * q).denominator == 1 and (r * q).denominator == 1:
                    prod *= 1 - 1 / q
            total += prod
    return total / deg


def test_double_sum_examples():
    assert vafa_double_sum(WeightVector((1, 2, 3, 4, 5))) == -126
    assert vafa_double_sum(WeightVector((1, 1, 1))) == 0
    assert vafa_double_sum(WeightVector((1, 1, 1, 1, 1))) == -200
    assert vafa_double_sum(WeightVector((1, 1, 2, 4, 5))) == Fraction(-1032, 5)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.lists(st.integers(1, 9), min_size=d + 1, max_size=d + 1)
    )
)
@example([1, 1, 1])
@example([1, 2, 3])
@example([1, 1, 2, 4, 5])
@example([2, 2, 4, 6])  # not well-formed: all four periods coincide
def test_double_sum_against_literal_loop(weights):
    w = WeightVector(tuple(weights))
    assert vafa_double_sum(w) == vafa_literal(w)


def test_subset_sum_partials():
    value, partials = vafa_subset_sum(WeightVector((1, 2, 3, 4, 5)))
    assert value == -126
    assert partials == (
        Fraction(225),
        Fraction(-585, 4),
        Fraction(3375, 8),
        Fraction(-19125, 8),
    )


def test_subset_sum_empty_term_is_degree_squared():
    for ws in ((1, 1, 1), (1, 2, 3, 4, 5), (1, 1, 6, 14, 21)):
        w = WeightVector(ws)
        assert vafa_subset_sum(w).partials[0] == w.degree**2


def test_subset_sum_examples():
    assert vafa_subset_sum(WeightVector((1, 1, 6, 14, 21))).value == -506


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_double_equals_subset_random(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    dim = data.draw(st.sampled_from((2, 3, 4)))
    w = random_well_formed(rng, dim, 80)
    assert vafa_double_sum(w) == vafa_subset_sum(w).value


# d = 2..6, weights up to 10^6, the first k of them times a shared factor,
# so non-well-formed vectors and degrees of 10^6 and more are both common
_sum_vectors = st.tuples(
    st.lists(st.integers(1, 10**6), min_size=3, max_size=7), st.integers(1, 12), st.integers(0, 7)
).map(lambda t: WeightVector(tuple(x * t[1] if i < t[2] else x for i, x in enumerate(t[0]))))


@settings(max_examples=60, deadline=None)
@given(_sum_vectors)
@example(WeightVector((1, 1, 1, 1, 10**7)))
@example(WeightVector((2, 2, 4, 6)))  # not well-formed
@example(WeightVector((2, 4 * 10**5, 6 * 10**5, 10**6, 3)))  # not well-formed, degree > 10^6
@example(WeightVector((1, 1, 2, 4, 5)))
def test_integer_sums_match_fraction_oracles(w):
    assert vafa_double_sum(w) == reference_vafa_double_sum(w)
    with pytest.MonkeyPatch.context() as mp:
        # the closed form is a formula in the weights; its IP gate is tested
        # in test_stringy_closed_examples
        mp.setattr(euler, "has_ip_property", lambda _: True)
        assert stringy_mirror_closed(w) == reference_stringy_mirror_closed(w)


def test_stringy_closed_examples():
    assert stringy_mirror_closed(WeightVector((1, 1, 6, 14, 21))) == 506
    assert stringy_mirror_closed(WeightVector((1, 1, 2, 4, 5))) == Fraction(1032, 5)
    assert stringy_mirror_closed(WeightVector((1, 6, 14, 21))) == 24
    with pytest.raises(NotIPError):
        stringy_mirror_closed(WeightVector((1, 1, 4)))


def test_stringy_polytope_examples():
    assert stringy_polytope(mirror_lattice(WeightVector((1, 1, 1, 1, 1)))) == 200
    assert stringy_polytope(mirror_lattice(WeightVector((1, 2, 3, 4, 5)))) == 126
    assert stringy_polytope(mirror_lattice(WeightVector((1, 1, 1, 1)))) == 24


def test_simplex_routes_build_no_hull_and_no_face_lattice(monkeypatch):
    # BeneathBeyond is the one hull loop: hull_with_faces and the IP
    # certificate both run on it; the simplex pair is built, not hulled, and
    # the stringy route sums over vertex subsets, not over a face lattice
    calls = []
    real_hull = polytope.BeneathBeyond
    real_faces = polytope.Polytope._build_face_lattice

    def hull_spy(points, start):
        calls.append("hull")
        return real_hull(points, start)

    def faces_spy(self):
        calls.append("face lattice")
        return real_faces(self)

    for module in (polytope, quasismooth):
        monkeypatch.setattr(module, "BeneathBeyond", hull_spy)
    monkeypatch.setattr(polytope.Polytope, "_build_face_lattice", faces_spy)
    for ws, chi in (((1, 1, 2), 0), ((1, 1, 1, 1), 24), ((1, 2, 3, 4, 5), 126), ((5, 6, 22, 33), 24)):
        w = WeightVector(ws)
        has_ip_property(w)  # a non-transverse vector's IP test runs a certificate hull of its own
        lattice = mirror_lattice(w)
        calls.clear()
        assert stringy_polytope(lattice) == chi
        mirror_simplex(lattice)
        dual_simplex(lattice)
        assert calls == []


def test_stringy_polytope_row_steps_on_sixteen_ones(monkeypatch):
    # one walk over the faces and one over the sections, each a row step per
    # subset, where one hermite reduction per face and per section ran before
    steps = []
    real_step = polytope._clear_row

    def step_spy(live, c):
        steps.append(len(live))
        return real_step(live, c)

    for ones in (12, 14, 16):
        w = WeightVector((1,) * ones)
        lattice = mirror_lattice(w)
        has_ip_property(w)
        steps.clear()
        monkeypatch.setattr(polytope, "_clear_row", step_spy)
        value = stringy_polytope(lattice)
        monkeypatch.undo()
        assert value == stringy_mirror_closed(w)
        assert 1 << (w.dim + 1) < len(steps) <= 1 << (w.dim + 2)


def test_stringy_reflexive_examples():
    w = WeightVector((1, 1, 6, 14, 21))
    hull = newton_hull(mirror_lattice(w))
    assert stringy_reflexive(hull) == -504
    quintic = WeightVector((1, 1, 1, 1, 1))
    assert stringy_reflexive(newton_hull(mirror_lattice(quintic))) == -200
    # any 2-dimensional reflexive polytope has an empty sum
    tri = hull_with_faces([(1, 0), (0, 1), (-1, -1)])
    assert stringy_reflexive(tri) == 0
    with pytest.raises(DomainError):
        stringy_reflexive(mirror_simplex(mirror_lattice(WeightVector((1, 1, 2, 4, 5)))))


def test_polar_faces_are_measured_on_the_primal_face_lattice(monkeypatch):
    # each polar face is read off delta's own face lattice, so neither route
    # builds the dual polytope's lattice, and stringy_reflexive no dual at all
    calls = []
    real_faces = polytope.Polytope._build_face_lattice
    real_dual = polytope.dual_polytope

    def faces_spy(self):
        calls.append("face lattice")
        return real_faces(self)

    def dual_spy(p):
        calls.append("dual")
        return real_dual(p)

    monkeypatch.setattr(polytope.Polytope, "_build_face_lattice", faces_spy)
    for module in (polytope, euler):
        if hasattr(module, "dual_polytope"):
            monkeypatch.setattr(module, "dual_polytope", dual_spy)
    hull = newton_hull(mirror_lattice(WeightVector((1, 1, 6, 14, 21))))
    calls.clear()
    assert stringy_reflexive(hull) == -504
    assert calls == ["face lattice"]
    simplex = mirror_simplex(mirror_lattice(WeightVector((1, 1, 1, 1))))
    calls.clear()
    assert k3_identity(simplex) == 0
    assert calls.count("face lattice") == 1


def test_newton_hypersurface_chi_pinned():
    # the pinned chi_str of every Newton hypersurface: a 40-vector draw, all
    # 430 with CYWPS_EXTENDED=1
    pinned = nontransverse_newton_chi()
    assert pinned.keys() == nontransverse_ip().keys()
    assert sum(v is not None for v in pinned.values()) == 367
    keys = sorted(pinned)
    if not os.environ.get("CYWPS_EXTENDED"):
        keys = random.Random(27).sample(keys, 40)
    for key in keys:
        hull = newton_hull(mirror_lattice(WeightVector.parse(key)))
        try:
            chi = format_rational(stringy_reflexive(hull))
        except DomainError:
            chi = None
        assert chi == pinned[key], key


def test_k3_identity_quartic_and_errors():
    quartic = mirror_simplex(mirror_lattice(WeightVector((1, 1, 1, 1))))
    assert k3_identity(quartic) == 0
    with pytest.raises(DomainError):
        k3_identity(mirror_simplex(mirror_lattice(WeightVector((1, 1, 1, 1, 1)))))


def test_d2_ip_euler_vanishes():
    for ws in ((1, 1, 1), (1, 1, 2), (1, 2, 3)):
        assert vafa_double_sum(WeightVector(ws)) == 0


def test_mirror_test_transverse():
    report = mirror_test(WeightVector((1, 2, 3, 4, 5)))
    assert report.transverse and report.ip and report.well_formed
    assert not report.gorenstein
    assert report.chi_orb_formula == -126
    assert report.chi_str_mirror == 126
    assert report.integral
    assert report.methods_agree
    assert report.notes == ()


def test_mirror_test_not_a_mirror():
    report = mirror_test(WeightVector((1, 1, 6, 14, 21)))
    assert not report.transverse
    assert report.chi_str_mirror == 506
    joined = " ".join(report.notes)
    assert "-504" in joined
    assert "not a mirror" in joined


def test_mirror_test_no_landau_ginzburg():
    report = mirror_test(WeightVector((1, 1, 2, 4, 5)))
    assert report.chi_str_mirror == Fraction(1032, 5)
    assert not report.integral
    assert "no Landau-Ginzburg description" in " ".join(report.notes)


def test_mirror_test_quintic():
    report = mirror_test(WeightVector((1, 1, 1, 1, 1)))
    assert report.gorenstein
    assert report.chi_orb_formula == -200
    assert report.chi_str_mirror == 200
    assert report.methods_agree


def test_mirror_test_sign_relation():
    rng = random.Random(99)
    reports = [mirror_test(random_well_formed(rng, rng.choice((2, 3)), 20)) for _ in range(8)]
    for report in reports:
        if report.chi_str_mirror is not None:
            d = len(report.weights) - 1
            assert report.chi_str_mirror == (-1) ** (d - 1) * report.chi_orb_formula


def test_mirror_test_reflexivity_without_classification(monkeypatch):
    expected = {ws: mirror_test(WeightVector(ws)) for ws in ((1, 1, 6, 14, 21), (1, 1, 2, 4, 5))}

    def fail(*args):
        raise AssertionError("mirror_test classified a polytope")

    monkeypatch.setattr(polytope, "bracket", fail)
    monkeypatch.setattr(euler, "fano_classification", fail)
    for ws, report in expected.items():
        assert "Calabi-Yau" in " ".join(report.notes)
        assert mirror_test(WeightVector(ws)) == report


def test_mirror_test_calabi_yau_note_iff_reflexive():
    vectors = [
        WeightVector(r.weights)
        for r in census(3, 48, "ip") + census(4, 20, "all")
        if r.ip and not r.transverse
    ]
    assert len(vectors) == 54  # all with reflexive Newton polytopes
    # at d = 5 a non-transverse IP vector can have a non-reflexive one: the
    # hand-picked (1,2,2,3,3,5) and 8 seeded draws of the 159 pinned ones
    # (verify runs the IP certificate only on vectors that are not transverse)
    d5 = sorted(k for k in nontransverse_ip() if k.count(",") == 5)
    assert len(d5) == 159
    drawn = random.Random(5).sample(d5, 8)
    vectors += map(WeightVector.parse, ["1,2,2,3,3,5", *drawn])
    outcomes = set()
    for w in vectors:
        noted = any("Calabi-Yau" in note for note in mirror_test(w).notes)
        assert noted == fano_classification(newton_hull(mirror_lattice(w))).reflexive, w
        outcomes.add(noted)
    assert outcomes == {True, False}


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        # pool vectors (d = 3, 4) come with their pinned orbifold Euler number
        st.sampled_from(sorted(ip_pool().items())).map(lambda kv: (WeightVector.parse(kv[0]), kv[1])),
        small_ip_vectors((2,), 3).map(lambda w: (w, None)),
    )
)
def test_mirror_test_sign_relation_property(drawn):
    w, chi_orb = drawn
    report = mirror_test(w)
    assert report.methods_agree
    assert report.chi_str_mirror == (-1) ** (w.dim - 1) * report.chi_orb_formula
    assert chi_orb is None or format_rational(report.chi_orb_formula) == chi_orb


_HIGH_DIM_MAX_DEGREE = {5: 60, 6: 40, 7: 30}


@st.composite
def high_dim_transverse_vectors(draw):
    """Sorted transverse weight vectors with d = 5-7; those with w_0 != 1 get
    a mirror basis that takes the column reduction's swaps."""
    dim = draw(st.sampled_from(sorted(_HIGH_DIM_MAX_DEGREE)))
    degree = draw(st.integers(dim + 1, _HIGH_DIM_MAX_DEGREE[dim]))
    found = [w for w in map(WeightVector, transverse_candidates(dim, degree)) if is_transverse(w)]
    assume(found)
    return draw(st.sampled_from(found))


@settings(max_examples=30, deadline=None)
@given(high_dim_transverse_vectors())
@example(WeightVector((2, 2, 2, 2, 3, 3)))
@example(WeightVector((2, 2, 2, 2, 2, 2, 3, 3)))
def test_mirror_test_sign_relation_beyond_d4(w):
    report = mirror_test(w)
    assert report.methods_agree
    assert report.chi_orb_formula.denominator == 1
    assert report.chi_str_mirror == (-1) ** (w.dim - 1) * report.chi_orb_formula


def test_mirror_test_non_well_formed():
    report = mirror_test(WeightVector((2, 2, 3)))
    assert not report.well_formed
    assert report.chi_str_mirror is None
    assert "formula value only" in " ".join(report.notes)


def test_report_json_round_trip():
    import json

    report = mirror_test(WeightVector((1, 1, 2, 4, 5)))
    payload = json.loads(report.to_json())
    assert payload["chi_str_mirror"] == "1032/5"
    assert json.dumps(payload) == report.to_json()
    assert list(payload.keys()) == [
        "weights",
        "degree",
        "well_formed",
        "gorenstein",
        "ip",
        "transverse",
        "chi_orb_formula",
        "chi_str_mirror",
        "integral",
        "methods_agree",
        "notes",
    ]


def test_nontransverse_ip_vectors_pinned():
    pinned = nontransverse_ip()
    found = {}
    for dim, top in ((4, 9), (5, 6)):
        for ws in combinations_with_replacement(range(1, top + 1), dim + 1):
            w = WeightVector(ws)
            if weight_flags(w)[0] and not is_transverse(w) and has_ip_property(w):
                # the two independent orbifold routes: the double sum and the subset form
                chi = vafa_double_sum(w)
                assert vafa_subset_sum(w).value == chi, ws
                found[",".join(map(str, ws))] = format_rational(chi)
    assert found == pinned
    assert sum(k.count(",") == 4 for k in pinned) == 271 and len(pinned) == 430


_D4_NONTRANSVERSE = sorted(kv for kv in nontransverse_ip().items() if kv[0].count(",") == 4)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(sorted(ip_pool().items())), st.sampled_from(_D4_NONTRANSVERSE)))
def test_pool_newton_hulls_reflexive_property(item):
    # Skarke: the Newton polytope of an IP weight system with d <= 4 is reflexive
    w = WeightVector.parse(item[0])
    hull = newton_hull(mirror_lattice(w))
    assert all(f.offset == 1 for f in hull.facets)
    assert dual_polytope(dual_polytope(hull)) == hull
    chi = stringy_reflexive(hull)
    if is_transverse(w):
        assert format_rational(chi) == item[1]
    else:
        # off the transverse set chi need not be the orbifold number (1,1,6,14,21:
        # -504 against -506), but it is an integer and Batyrev's mirror pair holds
        assert chi.denominator == 1
        assert stringy_reflexive(dual_polytope(hull)) == (-1) ** (w.dim - 1) * chi
