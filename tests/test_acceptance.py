"""Acceptance suite: one test per criterion, exact values, stated budgets.

Every numeric assertion is an exact rational equality.  Criterion 9 (the
d = 4 census) runs only with CYWPS_EXTENDED=1; its result feeds criterion 10
when present.  Each test prints a PASS line with its wall time.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache

import pytest

from cywps.euler import (
    k3_identity,
    mirror_test,
    stringy_mirror_closed,
    stringy_polytope,
    stringy_reflexive,
    vafa_double_sum,
    vafa_subset_sum,
)
from cywps.polytope import (
    bracket,
    dual_polytope,
    face_volume,
    fano_classification,
    hull_with_faces,
    normal_cone_section,
    normalized_volume,
)
from cywps.quasismooth import (
    _ip_certificate,
    census,
    has_ip_property,
    is_transverse,
    transverse_candidates,
)
from cywps.wps import (
    WeightVector,
    dual_simplex,
    mirror_lattice,
    mirror_simplex,
    newton_hull,
    subset_gcds,
    weight_flags,
)
from conftest import random_well_formed, well_formed_vectors

EXTENDED = bool(os.environ.get("CYWPS_EXTENDED"))
SEED = 20260810


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
            print(f"{self.name} PASS ({elapsed:.1f}s < {self.seconds}s)")
        return False


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cywps.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@cache  # C6 and C12 share lists; has_ip_property's own cache holds only 16 vectors
def ip_vectors_upto(dim, max_degree):
    return [w for w in well_formed_vectors(dim, max_degree) if has_ip_property(w)]


def sample_transverse_d4(rng, count, max_degree=400):
    picked = []
    seen = set()
    while len(picked) < count:
        degree = rng.randint(10, max_degree)
        candidates = [
            ws
            for ws in transverse_candidates(4, degree)
            if weight_flags(WeightVector(ws))[0] and is_transverse(WeightVector(ws))
        ]
        if not candidates:
            continue
        ws = rng.choice(candidates)
        if ws in seen:
            continue
        seen.add(ws)
        picked.append(WeightVector(ws))
    return picked


@pytest.fixture(scope="session")
def ip_sample_d4():
    rng = random.Random(SEED)
    sample = sample_transverse_d4(rng, 98)
    # two non-transverse IP vectors broaden the sample beyond the transverse set
    sample += [WeightVector((1, 1, 2, 4, 5)), WeightVector((1, 1, 6, 14, 21))]
    return sample


@pytest.fixture(scope="session")
def d4_census():
    if not EXTENDED:
        pytest.skip("extended d=4 census: set CYWPS_EXTENDED=1 (about 1.5 min on 2 cores)")
    return census(4, 3600, "transverse", jobs=os.cpu_count() or 1)


def test_c01_euler_12345_both_methods():
    with Budget("C1", 1.0):
        code, out, _ = run_cli("euler", "1,2,3,4,5", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_orb_double_sum"] == "-126"
    assert payload["chi_orb_subset_sum"] == "-126"
    assert payload["subset_partials"] == ["225", "-585/4", "3375/8", "-19125/8"]


def test_c02_verify_1_1_6_14_21():
    with Budget("C2", 10.0):
        code, out, _ = run_cli("verify", "1,1,6,14,21")
        payload = json.loads(out)
        assert payload["chi_str_mirror"] == "506"
        assert payload["transverse"] is False
        w = WeightVector((1, 1, 6, 14, 21))
        hull = newton_hull(mirror_lattice(w))
        assert stringy_reflexive(hull) == -504
    assert code == 0
    notes = " ".join(payload["notes"])
    assert "-504" in notes and "not a mirror" in notes


def test_c03_verify_1_1_2_4_5():
    with Budget("C3", 5.0):
        code, out, _ = run_cli("verify", "1,1,2,4,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_str_mirror"] == "1032/5"
    assert payload["integral"] is False


def test_c04_quintic_all_routes():
    with Budget("C4", 30.0):
        w = WeightVector((1, 1, 1, 1, 1))
        report = mirror_test(w)
        assert report.chi_orb_formula == -200
        assert report.chi_str_mirror == 200
        assert report.methods_agree
        # the four routes, explicitly
        assert vafa_double_sum(w) == -200
        assert vafa_subset_sum(w).value == -200
        assert stringy_mirror_closed(w) == 200
        assert stringy_polytope(mirror_lattice(w)) == 200


def test_c05_identity_suite():
    rng = random.Random(SEED)
    with Budget("C5", 300.0):
        checked = 0
        for dim in (2, 3):
            for w in well_formed_vectors(dim, 60):
                assert vafa_double_sum(w) == vafa_subset_sum(w).value, w
                checked += 1
        assert checked > 10000
        for _ in range(500):
            w = random_well_formed(rng, 4, 400)
            assert vafa_double_sum(w) == vafa_subset_sum(w).value, w
    print(f"C5 checked {checked} exhaustive + 500 random vectors")


def test_c06_mirror_theorem_suite(ip_sample_d4):
    with Budget("C6", 600.0):
        low_dim = ip_vectors_upto(2, 60) + ip_vectors_upto(3, 60)
        assert len(low_dim) >= 90
        for w in low_dim + ip_sample_d4:
            sign = 1 if w.dim % 2 else -1
            closed = stringy_mirror_closed(w)
            assert closed == sign * vafa_double_sum(w), w
            assert closed == stringy_polytope(mirror_lattice(w)), w
    print(f"C6 verified mirror theorem on {len(low_dim)} low-dim + {len(ip_sample_d4)} d=4 vectors")


def test_c06_mirror_theorem_d4_census(d4_census):
    # opt-in: the theorem on every C9 record, all four routes agreeing, and
    # Skarke's transverse-implies-IP, which verify takes on trust, by certificate
    with Budget("C6 on C9", 1800.0):
        for rec in d4_census:
            w = WeightVector(rec.weights)
            assert _ip_certificate(w), w
            closed = stringy_mirror_closed(w)
            assert closed.denominator == 1, w
            assert closed == -vafa_double_sum(w) == -rec.chi_orb_formula, w  # (-1)^(d-1), d = 4
            assert closed == stringy_polytope(mirror_lattice(w)), w
    print(f"C6 extended: the mirror theorem and IP by certificate on all {len(d4_census)} d=4 records")


def test_c07_k3_suite(k3_weight_vectors):
    with Budget("C7", 10.0):
        assert len(k3_weight_vectors) == 95
        for w in k3_weight_vectors:
            assert stringy_mirror_closed(w) == 24, w
            simplex = mirror_simplex(mirror_lattice(w))
            assert k3_identity(simplex) == 0, w


def test_c08_census_d2_d3():
    with Budget("C8", 300.0):
        expected_d2 = [(1, 1, 1), (1, 1, 2), (1, 2, 3)]
        for flt in ("transverse", "ip"):
            assert [r.weights for r in census(2, 60, flt)] == expected_d2
        d3_transverse = census(3, 100, "transverse")
        assert len(d3_transverse) == 95
        d3_ip = census(3, 100, "ip")
        assert [r.weights for r in d3_ip] == [r.weights for r in d3_transverse]


def test_c09_census_d4_extended(d4_census):
    with Budget("C9", 12 * 3600.0):
        assert len(d4_census) == 7555
        # the list is finite: its largest degree is 3486, so every bound from
        # 3486 to 3600 gives the same 7,555 records
        assert max(r.degree for r in d4_census) == 3486
    print("C9 d=4 transverse census count:", len(d4_census))


def test_c10_integrality():
    with Budget("C10", 600.0):
        records = census(2, 60, "transverse") + census(3, 100, "transverse")
        for rec in records:
            assert rec.chi_orb_formula.denominator == 1, rec


@pytest.mark.skipif(not EXTENDED, reason="d=4 integrality rides on the extended census")
def test_c10_integrality_d4(d4_census):
    for rec in d4_census:
        assert rec.chi_orb_formula.denominator == 1, rec
    print("C10 extended: all", len(d4_census), "d=4 values integral")


def test_c11_polytope_properties():
    with Budget("C11", 600.0):
        reflexives = []
        # named brackets are reflexive
        for ws in ((1, 1, 2, 4, 5), (1, 1, 6, 14, 21)):
            w = WeightVector(ws)
            lat = mirror_lattice(w)
            hull = bracket(dual_simplex(lat))
            flags = fano_classification(hull)
            assert flags.reflexive, ws
            reflexives.append(hull)
            # non-Gorenstein: the mirror simplex itself is not reflexive
            assert not weight_flags(w)[1]
            assert not fano_classification(mirror_simplex(lat)).reflexive
        # degree-7 hypersurface weights: pseudoreflexive but not reflexive (d = 5)
        w7 = WeightVector((1, 1, 1, 1, 1, 2))
        hull7 = bracket(dual_simplex(mirror_lattice(w7)))
        flags7 = fano_classification(hull7)
        assert flags7.pseudoreflexive and not flags7.reflexive
        # reflexive Gorenstein simplices
        for ws in ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1), (1, 1, 1, 1, 1)):
            simplex = mirror_simplex(mirror_lattice(WeightVector(ws)))
            assert fano_classification(simplex).reflexive
            reflexives.append(simplex)
        # duality is an involution on every reflexive polytope encountered
        for poly in reflexives:
            dual = dual_polytope(poly)
            assert dual.is_lattice
            assert dual_polytope(dual) == poly
            redo = hull_with_faces(dual.vertices)
            assert {(f.normal, Fraction(f.offset)) for f in redo.facets} == {
                (f.normal, Fraction(f.offset)) for f in dual.facets
            }
        # pseudoreflexive coincides with reflexive in dimension <= 4
        rng = random.Random(SEED + 11)
        tested = reflexives[:]
        k3 = census(3, 100, "transverse")
        for rec in rng.sample(k3, 20):
            tested.append(mirror_simplex(mirror_lattice(WeightVector(rec.weights))))
        for _ in range(12):
            w = random_well_formed(rng, rng.choice((2, 3)), 24)
            tested.append(mirror_simplex(mirror_lattice(w)))
        for _ in range(4):
            w = random_well_formed(rng, 4, 24)
            tested.append(mirror_simplex(mirror_lattice(w)))
        count = 0
        for poly in tested:
            if poly.ambient_dim > 4:
                continue
            flags = fano_classification(poly)
            if flags.canonical:
                assert flags.pseudoreflexive == flags.reflexive
                count += 1
        assert count >= 25
    print(f"C11 checked {count} canonical polytopes of dim <= 4")


def test_c12_closed_form_volume_suite(ip_sample_d4):
    rng = random.Random(SEED + 5)
    low = ip_vectors_upto(2, 40) + [w for w in ip_vectors_upto(3, 60)]
    pool = low + ip_sample_d4
    rng.shuffle(pool)
    chosen = pool[:100] if len(pool) >= 100 else pool
    with Budget("C12", 600.0):
        for w in chosen:
            lat = mirror_lattice(w)
            poly = mirror_simplex(lat)
            assert normalized_volume(poly) == w.degree
            index = {v: i for i, v in enumerate(poly.vertices)}
            deg = w.degree
            full = (1 << (w.dim + 1)) - 1
            n_j = subset_gcds(w)
            for mask in range(1, 1 << (w.dim + 1)):
                vids = tuple(
                    sorted(index[lat.generators[i]] for i in range(w.dim + 1) if mask >> i & 1)
                )
                k = mask.bit_count() - 1
                face = next(f for f in poly.faces(k) if f.vertex_ids == vids)
                comp = full ^ mask
                n_comp = n_j[comp]
                assert face_volume(poly, face) == n_comp, (w, mask)
                expected = Fraction(n_comp, deg)
                for i in range(w.dim + 1):
                    if comp >> i & 1:
                        expected *= Fraction(deg, w.weights[i])
                section = normal_cone_section(poly, face)
                assert normalized_volume(section) == expected, (w, mask)
    print(f"C12 checked face and cone-section volumes on {len(chosen)} IP vectors")


def test_c13_mirror_polynomial_text():
    with Budget("C13", 10.0):
        code, out, _ = run_cli("mirror", "1,1,6,14,21", "--format", "text")
    assert code == 0
    assert out.strip() == "1/(t1*t2^6*t3^14*t4^21) + t1 + t2 + t3 + t4"
