import random

import pytest

from cywps.polytope import hull_with_faces
from cywps.quasismooth import (
    CensusRecord,
    census,
    census_tsv,
    has_ip_property,
    is_transverse,
    iter_weight_partitions,
)
from cywps.wps import WeightVector, newton_points, weight_flags
from conftest import random_well_formed


def ip_by_full_hull(w: WeightVector) -> bool:
    """Independent decision through the complete Newton-point hull."""
    pts = newton_points(w)
    chart = [u[1:] for u in pts]
    poly = hull_with_faces(chart)
    return poly.dim == w.dim and poly.contains((1,) * w.dim, strict=True)


def test_ip_examples():
    assert has_ip_property(WeightVector((1, 2, 3)))
    assert has_ip_property(WeightVector((1, 1, 6, 14, 21)))
    assert not has_ip_property(WeightVector((1, 1, 4)))


def test_ip_prefilter_skips_knapsack(monkeypatch):
    import cywps.quasismooth as qs

    def fail(*args):
        raise AssertionError("knapsack ran")

    monkeypatch.setattr(qs, "_knapsack_argmax", fail)
    # 10**7 exceeds half the degree, so u_4 <= 1 on every Newton point
    assert not has_ip_property(WeightVector((1, 1, 1, 1, 10**7)))


def test_ip_114_boundary_point():
    # (1,1,1) is the midpoint of the hull edge between (2,0,1) and (0,2,1)
    pts = newton_points(WeightVector((1, 1, 4)))
    assert (2, 0, 1) in pts and (0, 2, 1) in pts and (1, 1, 1) in pts


def test_ip_against_full_hull_random():
    rng = random.Random(31337)
    for _ in range(40):
        w = random_well_formed(rng, rng.choice((2, 3)), 40)
        assert has_ip_property(w) == ip_by_full_hull(w)


def test_transverse_examples():
    assert is_transverse(WeightVector((1, 2, 3, 4, 5)))
    assert not is_transverse(WeightVector((1, 1, 6, 14, 21)))
    assert is_transverse(WeightVector((1, 1, 1)))
    assert not is_transverse(WeightVector((1, 1, 2, 4, 5)))


def test_transverse_implies_ip():
    rng = random.Random(4)
    found = 0
    for _ in range(300):
        w = random_well_formed(rng, rng.choice((2, 3)), 36)
        if is_transverse(w):
            found += 1
            assert has_ip_property(w)
    assert found > 0


def test_census_d2():
    expected = [(1, 1, 1), (1, 1, 2), (1, 2, 3)]
    for flt in ("transverse", "ip"):
        assert [r.weights for r in census(2, 60, flt)] == expected


def test_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        census(5, 10, "transverse")
    with pytest.raises(ValueError):
        census(3, 10, "smooth")


def test_census_all_filter_contains_non_transverse():
    records = census(2, 12, "all")
    by_weights = {r.weights: r for r in records}
    assert (1, 1, 1) in by_weights and by_weights[(1, 1, 1)].transverse
    assert any(not r.transverse for r in records)
    for r in records:
        assert weight_flags(WeightVector(r.weights))[0]
        if r.transverse:
            assert r.ip


def test_census_monotone_in_bound():
    small = {r.weights for r in census(2, 20, "all")}
    large = {r.weights for r in census(2, 30, "all")}
    assert small <= large


def test_census_deterministic_across_jobs():
    serial = list(census_tsv(2, 40, "all", jobs=1))
    parallel = list(census_tsv(2, 40, "all", jobs=3))
    assert serial == parallel
    assert serial[0].startswith("# dim=2 max_degree=40 filter=all version=")


def test_census_record_tsv_format():
    rec = CensusRecord(15, (1, 2, 3, 4, 5), True, True, False, -126)
    assert rec.tsv() == "15\t1,2,3,4,5\t1\t1\t0\t-126"


def test_partition_enumeration_sorted_and_complete():
    parts = list(iter_weight_partitions(2, 9))
    assert all(a <= b <= c for a, b, c in parts)
    assert all(sum(p) == 9 for p in parts)
    from itertools import combinations_with_replacement

    brute = sorted(
        ws
        for ws in combinations_with_replacement(range(1, 10), 3)
        if sum(ws) == 9
    )
    assert sorted(parts) == brute


def test_pruned_enumeration_keeps_all_transverse():
    for degree in range(3, 40):
        pruned = set(iter_weight_partitions(2, degree, transverse_prune=True))
        full = set(iter_weight_partitions(2, degree))
        assert pruned <= full
        for ws in full - pruned:
            w = WeightVector(ws)
            if weight_flags(w)[0]:
                assert not is_transverse(w)
