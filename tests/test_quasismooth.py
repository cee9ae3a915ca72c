import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cywps import polytope
from cywps.errors import InternalError
from cywps.polytope import hull_with_faces
from cywps.quasismooth import (
    CensusRecord,
    _ip_certificate,
    _knapsack_argmax,
    census,
    census_tsv,
    has_ip_property,
    is_transverse,
    iter_weight_partitions,
    transverse_candidates,
)
from cywps.wps import WeightVector, newton_points, weight_flags
from conftest import ip_pool


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


# weights of any order, to cover the dropped coordinate u_0 both ways
_ip_weights = st.sampled_from(((2, 14), (3, 12), (4, 9))).flatmap(
    lambda case: st.lists(st.integers(1, case[1]), min_size=case[0] + 1, max_size=case[0] + 1)
)


@settings(max_examples=60, deadline=None)
@given(_ip_weights)
# refuted by subset counts, before any knapsack: some J has at least |J|
# factors in every monomial (z_3 alone in the first two, every variable in
# (1,3,3,5))
@example([2, 3, 3, 7])
@example([3, 3, 4, 8])
@example([1, 3, 3, 5])
@example([1, 5, 8, 10])
@example([1, 1, 1, 4, 4])
@example([1, 5, 5, 7, 7])
@example([5, 1, 7, 5, 7])
# the rest by their exit: the axis supports; the spanning loop; hull rounds
# along certificate facet normals; IP, and IP with equal weights
@example([2, 5, 7, 11])
@example([1, 3, 6, 8])
@example([1, 3, 3, 3, 8])
@example([1, 1, 5, 7])
@example([1, 1, 2, 5, 5])
@example([1, 1, 1, 4, 5])
@example([2, 2, 2])
def test_ip_against_full_hull_random(weights):
    w = WeightVector(tuple(weights))
    assert has_ip_property(w) == ip_by_full_hull(w)


# one vector per exit of the certificate, as named by _certificate_exit
_EXITS = {
    "subset counts": [(2, 3, 3, 7), (3, 3, 4, 8), (1, 3, 3, 5), (1, 5, 8, 10), (1, 1, 1, 4, 4),
                      (1, 5, 5, 7, 7), (5, 1, 7, 5, 7)],
    "axis supports": [(2, 5, 7, 11)],
    "spanning loop": [(1, 3, 6, 8), (1, 3, 3, 3, 8)],
    "hull rounds": [(1, 1, 5, 7), (1, 1, 2, 5, 5)],
    "IP": [(1, 1, 1, 4, 5), (2, 2, 2), (3, 3, 3, 3), (1, 1, 1, 1, 1)],
}


def _certificate_cases():
    # the examples of test_ip_against_full_hull_random, the showcase and a
    # seeded draw from the same weight ranges
    rng = random.Random(16)
    cases = [ws for group in _EXITS.values() for ws in group]
    cases += [(1, 2, 3, 4, 5), (1, 1, 6, 14, 21), (1, 1, 2, 4, 5)]
    for _ in range(40):
        d, top = rng.choice(((2, 14), (3, 12), (4, 9)))
        cases.append(tuple(rng.randint(1, top) for _ in range(d + 1)))
    return cases


def test_ip_certificate_builds_no_polytope(monkeypatch):
    want = {ws: ip_by_full_hull(WeightVector(ws)) for ws in _certificate_cases()}
    assert any(want.values()) and not all(want.values())

    def refuse(*args, **kwargs):
        raise AssertionError("the IP certificate built a Polytope")

    monkeypatch.setattr(polytope, "hull_with_faces", refuse)
    monkeypatch.setattr(polytope.Polytope, "__init__", refuse)
    for ws, ip in want.items():
        assert _ip_certificate(WeightVector(ws)) == ip, ws


def test_ip_certificate_grows_one_hull(monkeypatch):
    # every round inserts its support point into the one hull, and only the
    # start simplex's d + 1 pieces run a column reduction: the later pieces
    # come from the pencil of their horizon ridge
    import cywps.quasismooth as qs

    builds, hyperplanes = [], []
    real_hull, real_hyperplane = qs.BeneathBeyond, polytope._hyperplane

    def hull_spy(points, start):
        builds.append(start)
        return real_hull(points, start)

    def hyperplane_spy(points, inside):
        hyperplanes.append(points)
        return real_hyperplane(points, inside)

    monkeypatch.setattr(qs, "BeneathBeyond", hull_spy)
    monkeypatch.setattr(polytope, "_hyperplane", hyperplane_spy)
    for ws in _certificate_cases():
        builds.clear()
        hyperplanes.clear()
        _ip_certificate(WeightVector(ws))
        assert len(builds) <= 1, ws
        assert len(hyperplanes) <= len(ws), ws  # d + 1


def _subset_counts_refute(ws) -> bool:
    """Some J with at least |J| factors from J in every Newton point, read
    off the full point list; the full set counts unless all weights agree."""
    pts = newton_points(WeightVector(ws))
    n = len(ws)
    js = [J for k in range(1, n + 1) for J in itertools.combinations(range(n), k)]
    if len(set(ws)) == 1:
        js.pop()
    return any(min(sum(u[j] for j in J) for u in pts) >= len(J) for J in js)


def _certificate_exit(ws) -> str:
    """Where ``_ip_certificate`` decides ws, named by the calls it makes."""
    import cywps.quasismooth as qs

    calls = []

    def spy(name):
        real = getattr(qs, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("BeneathBeyond", "_knapsack_argmax", "hermite"):
            mp.setattr(qs, name, spy(name))
        ip = _ip_certificate(WeightVector(ws))
    if ip:
        return "IP"
    if "BeneathBeyond" in calls:
        return "hull rounds"
    if "hermite" in calls:
        return "spanning loop"
    assert not calls, calls
    return "subset counts" if _subset_counts_refute(ws) else "axis supports"


@pytest.mark.parametrize("exit_, ws", [
    pytest.param(e, ws, id=f"{e}-{','.join(map(str, ws))}") for e, group in _EXITS.items() for ws in group
])
def test_ip_certificate_exits(exit_, ws):
    # subset counts refute with no knapsack and no hull, where the
    # one-variable pre-check left (1,5,8,10), (1,1,1,4,4), (1,5,5,7,7) and
    # (5,1,7,5,7) to a hull; equal weights keep the full set out, so (2,2,2)
    # stays IP
    assert _certificate_exit(ws) == exit_


@settings(max_examples=60, deadline=None)
@given(_ip_weights)
def test_subset_counts_refute_before_any_knapsack(weights):
    # every J the Newton points refute is caught before the knapsack or a
    # column reduction runs
    if _subset_counts_refute(weights):
        assert _certificate_exit(tuple(weights)) == "subset counts"


def test_ip_census_d3_builds_few_hulls(monkeypatch):
    # the subset counts leave 48 hulls and 93 knapsack calls in this census,
    # where the one-variable pre-check left 211 and 413
    import cywps.quasismooth as qs

    hulls, knapsacks = [], []
    real_hull, real_knapsack = qs.BeneathBeyond, qs._knapsack_argmax
    monkeypatch.setattr(qs, "BeneathBeyond", lambda *a: (hulls.append(a), real_hull(*a))[1])
    monkeypatch.setattr(qs, "_knapsack_argmax", lambda *a: (knapsacks.append(a), real_knapsack(*a))[1])
    has_ip_property.cache_clear()
    is_transverse.cache_clear()
    assert len(census(3, 30, "ip", jobs=1)) == 76
    assert len(hulls) <= 60 and len(knapsacks) <= 130, (len(hulls), len(knapsacks))


@pytest.mark.parametrize("fault", ["shifted origin", "first maximizer"])
def test_repeated_support_point_is_an_internal_error(monkeypatch, capsys, fault):
    # a support point of positive support lies beyond every certificate
    # point, so a repeated one is a fault of the support, which would grow
    # the same hull forever; (1,1,1,4,5) is IP and takes two knapsack rounds
    import cywps.quasismooth as qs
    from cywps.cli import main

    real = qs._knapsack_argmax
    found = []

    def faulty(ws, deg, direction):
        value, u = real(ws, deg, direction)
        found.append(u)
        return value, (1,) * len(ws) if fault == "shifted origin" else found[0]

    monkeypatch.setattr(qs, "_knapsack_argmax", faulty)
    with pytest.raises(InternalError, match="already in the certificate"):
        has_ip_property.__wrapped__(WeightVector((1, 1, 1, 4, 5)))
    found.clear()
    has_ip_property.cache_clear()
    assert main(["verify", "1,1,1,4,5"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:") and "already in the certificate" in captured.err


def test_knapsack_unreachable_degree_is_an_internal_error():
    # no combination of 2 and 4 makes 3; every degree-w knapsack has the
    # all-ones monomial
    with pytest.raises(InternalError, match="reachable"):
        _knapsack_argmax((2, 4), 3, (0, 0))


def test_ip_axis_support_fault_is_an_internal_error(monkeypatch):
    import cywps.quasismooth as qs

    def only_degree(weights, degree, mask, memo):
        # every mask reaches the degree and no smaller value, not even 0
        memo[mask] = 1 << degree
        return memo[mask]

    monkeypatch.setattr(qs, "_reachable", only_degree)
    with pytest.raises(InternalError, match="shifted origin"):
        _ip_certificate(WeightVector((1, 1, 1, 1, 1)))


def test_ip_axis_read_back_fault_is_an_internal_error(monkeypatch):
    import cywps.quasismooth as qs

    def nothing_from_nothing(weights, degree, mask, memo):
        # every nonempty submask reaches every value, the empty mask none
        for m in range(1, mask + 1):
            if m & mask == m:
                memo[m] = (2 << degree) - 1
        memo[0] = 0
        return memo[mask]

    monkeypatch.setattr(qs, "_reachable", nothing_from_nothing)
    with pytest.raises(InternalError, match="memo chain"):
        _ip_certificate(WeightVector((1, 1, 1, 1, 1)))


def test_ip_read_back_is_linear_in_the_degree():
    # one bitset pass per variable reads the axis monomials back; a pass per
    # unit of an exponent took about 6 s at this degree, 800,007.  The public
    # test runs is_transverse first, so the certificate is timed on its own too
    w = WeightVector((1, 2, 3, 400_000, 400_001))
    is_transverse.cache_clear()
    for decide in (has_ip_property.__wrapped__, _ip_certificate):
        start = time.monotonic()
        assert not decide(w)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"{decide.__name__}: {elapsed:.1f}s over the 2 s budget"


def test_ip_axis_supports_refute_without_knapsack(monkeypatch):
    import cywps.quasismooth as qs

    def fail(*args):
        raise AssertionError("knapsack ran")

    monkeypatch.setattr(qs, "_knapsack_argmax", fail)
    # subset counts refute the first two before their axis supports
    for ws in ((2, 3, 3, 7), (3, 3, 4, 8), (2, 5, 7, 11)):
        w = WeightVector(ws)
        assert 2 * max(ws) <= w.degree
        assert not has_ip_property(w)


@settings(max_examples=100, deadline=None)
# (weight, direction entry) pairs
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(-10, 10)), min_size=3, max_size=5))
@example([(1, 0), (1, 0), (1, 0)])  # every monomial ties
@example([(2, -4), (3, 1), (5, 7)])
def test_knapsack_argmax_is_the_newton_point_maximum(pairs):
    ws, direction = zip(*pairs)
    w = WeightVector(ws)
    value, u = _knapsack_argmax(ws, w.degree, direction)
    pairing = [sum(y * x for y, x in zip(direction, p)) for p in newton_points(w)]
    assert value == max(pairing)
    assert min(u) >= 0 and sum(wi * x for wi, x in zip(ws, u)) == w.degree
    assert sum(y * x for y, x in zip(direction, u)) == value


def test_ip_pool_vectors_are_ip():
    pool = ip_pool()
    assert len(pool) == 3039
    # every pool vector is transverse, so only the certificate proves it here
    assert all(_ip_certificate(WeightVector.parse(v)) for v in pool)


def test_transverse_examples():
    assert is_transverse(WeightVector((1, 2, 3, 4, 5)))
    assert not is_transverse(WeightVector((1, 1, 6, 14, 21)))
    assert is_transverse(WeightVector((1, 1, 1)))
    assert not is_transverse(WeightVector((1, 1, 2, 4, 5)))


_THEOREM_MAX_DEGREE = {2: 400, 3: 200, 4: 120}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3, 4)).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(d + 1, _THEOREM_MAX_DEGREE[d]))
    )
)
@example((3, 66))
@example((4, 120))
def test_transverse_implies_ip(case):
    # has_ip_property and the census take IP from this theorem, so the
    # certificate checks it here
    dim, degree = case
    for weights in transverse_candidates(dim, degree):
        w = WeightVector(weights)
        if weight_flags(w)[0] and is_transverse(w):
            assert _ip_certificate(w), weights


def test_transverse_census_never_runs_ip_test(monkeypatch):
    import cywps.quasismooth as qs

    def fail(w):
        raise AssertionError(f"has_ip_property ran on {w}")

    monkeypatch.setattr(qs, "has_ip_property", fail)
    records = census(4, 60, "transverse", jobs=1)
    assert records and all(r.transverse and r.ip for r in records)


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
    # d = 4 has IP vectors that are not transverse, e.g. (1,1,2,4,5)
    records += census(4, 16, "all")
    assert any(r.ip and not r.transverse for r in records)
    assert any(not r.ip for r in records)
    for r in records:
        w = WeightVector(r.weights)
        assert weight_flags(w)[0]
        assert r.ip == has_ip_property(w)


def test_ip_cache_is_small_and_serves_verify():
    from cywps.euler import mirror_test

    has_ip_property.cache_clear()
    is_transverse.cache_clear()
    mirror_test(WeightVector((1, 2, 3, 4, 5)))
    assert has_ip_property.cache_info().hits >= 2
    assert is_transverse.cache_info().hits >= 1  # has_ip_property reads mirror_test's answer
    census(3, 30, "ip", jobs=1)
    assert has_ip_property.cache_info().currsize <= 16
    assert is_transverse.cache_info().currsize <= 16


def test_verify_takes_ip_of_transverse_vectors_from_the_theorem(monkeypatch):
    # a transverse vector needs no knapsack and no certificate hull; an IP
    # vector that is not transverse builds one hull for mirror_test and both
    # stringy guards together
    import cywps.quasismooth as qs
    from cywps.euler import mirror_test

    knapsacks, builds = [], []
    real_knapsack, real_hull = qs._knapsack_argmax, qs.BeneathBeyond

    def knapsack_spy(*args):
        knapsacks.append(args)
        return real_knapsack(*args)

    def hull_spy(points, start):
        builds.append(start)
        return real_hull(points, start)

    monkeypatch.setattr(qs, "_knapsack_argmax", knapsack_spy)
    monkeypatch.setattr(qs, "BeneathBeyond", hull_spy)
    pool = sorted(ip_pool())
    for w in [WeightVector((1, 2, 3, 4, 5)), *map(WeightVector.parse, pool[::700])]:
        has_ip_property.cache_clear()
        is_transverse.cache_clear()
        report = mirror_test(w)
        assert report.ip and report.transverse and report.methods_agree, w
    assert len(pool[::700]) == 5
    assert (knapsacks, builds) == ([], [])

    has_ip_property.cache_clear()
    is_transverse.cache_clear()
    report = mirror_test(WeightVector((1, 1, 6, 14, 21)))
    assert report.ip and not report.transverse and report.chi_str_mirror == 506
    assert len(builds) == 1


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


def has_pointers(ws, degree):
    """Each weight divides the degree or the degree minus another weight."""
    return all(
        degree % wi == 0
        or any((degree - wj) % wi == 0 for j, wj in enumerate(ws) if j != i)
        for i, wi in enumerate(ws)
    )


_MAX_DEGREE = {2: 400, 3: 160, 4: 80}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3, 4)).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(d + 1, _MAX_DEGREE[d]))
    )
)
@example((2, 6))
@example((3, 66))
@example((4, 80))
def test_transverse_candidates_are_primitive_pointer_partitions(case):
    dim, degree = case
    expected = [
        ws
        for ws in iter_weight_partitions(dim, degree)
        if math.gcd(*ws) == 1 and has_pointers(ws, degree)
    ]
    assert transverse_candidates(dim, degree) == expected


def scan_transverse_candidates(dim, degree):
    """The range-scan generator that ``transverse_candidates`` replaced, kept as
    its oracle: every free weight but the last pair is scanned over its whole
    range up to the degree, and each pair takes its larger weight from whole
    divisor lists of degree, degree - s and degree - c."""
    found = set()
    divisors = {}

    def emit(ws):
        t = tuple(sorted(ws))
        if math.gcd(*t) == 1 and all(any((degree - u) % v == 0 for u in (0, *t)) for v in t):
            found.add(t)

    def grow(fixed, free, s, vmax):
        if free <= 1:
            if free == 0 and s == 0 or free == 1 and 1 <= s <= vmax:
                emit(fixed + [s] * free)
            return
        if free == 2:
            lo, hi = (s + 1) // 2, min(vmax, s - 1)
            xs = set()
            for n in (degree, degree - s, *(degree - c for c in fixed)):
                if n not in divisors:
                    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
                    divisors[n] = small + [n // k for k in small]
                xs.update(x for x in divisors[n] if lo <= x <= hi)
            for x in xs:
                emit(fixed + [x, s - x])
            return
        for v in range(min(vmax, s - free + 1), -(-s // free) - 1, -1):
            r = degree % v
            if r == 0 or any((degree - c) % v == 0 for c in fixed):
                grow(fixed + [v], free - 1, s - v, v)
            elif free - 2 <= s - v - r <= (free - 2) * v:
                grow(fixed + [v, r], free - 2, s - v - r, v)

    grow([], dim + 1, degree, degree)
    return sorted(found, key=lambda t: t[::-1], reverse=True)


_SCAN_MAX_DEGREE = {1: 200, 2: 6000, 3: 2500, 4: 1500, 5: 400, 6: 50, 7: 40}


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(sorted(_SCAN_MAX_DEGREE)).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(d + 1, _SCAN_MAX_DEGREE[d]))
    )
)
# the d = 2 top level has a = 0, where the pointer at r leaves the block unsolved
@example((2, 3237))
# d = 3 tops solved from divisor keys: x = y = v / 2 with r | 3 n, (2,2,3,4) and
# (3,4,4,8); x | n with 720's many divisors; prime degrees, where x | n - v,
# x | q v and x | n - x - y carry every forced tuple
@example((3, 11))
@example((3, 19))
@example((3, 720))
@example((3, 199))
@example((3, 997))
@example((4, 2000))
@example((5, 400))
@example((6, 50))
@example((7, 40))
def test_transverse_candidates_match_scan_oracle(case):
    dim, degree = case
    candidates = transverse_candidates(dim, degree)
    assert candidates == scan_transverse_candidates(dim, degree)
    # the half-degree lemma of the module docstring; d = 1 has (1, n - 1)
    assert dim == 1 or all(2 * max(t) <= degree for t in candidates)


def tsv_digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def test_ip_census_skips_weights_above_half_degree(monkeypatch):
    import cywps.quasismooth as qs

    seen = []

    def spy(w):
        seen.append(w)
        return weight_flags(w)

    monkeypatch.setattr(qs, "weight_flags", spy)
    lines = census_tsv(3, 40, "ip", jobs=1)
    # pinned from the census before the enumeration was capped
    assert len(lines) == 1 + 87
    assert tsv_digest(lines) == "2dc0bb009b19a01e131927fc5200f4c640288590d2e91cbc3b677f917345eae8"
    assert seen and all(2 * max(w.weights) <= w.degree for w in seen)


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_d4_ip_30_pinned(jobs):
    # pinned from the census whose certificate had only the one-variable pre-check
    lines = census_tsv(4, 30, "ip", jobs=jobs)
    assert len(lines) == 1 + 799
    assert tsv_digest(lines) == "e0178463d0d0b65b9ae10fcf2f59af44f1860dcf21fea6cace255b1f03c13608"


def test_census_d4_transverse_200_pinned():
    # pinned from the partition-scan census that the pointer generator replaced
    lines = census_tsv(4, 200, "transverse", jobs=1)
    assert len(lines) == 1 + 4405
    assert tsv_digest(lines) == "c58dc5ba01aee547f7873916e3fde445175a2c95a0f39b3b9550ff1f84f4e1b7"


def test_four_free_block_solves_the_pointer_cases():
    # r points at x = y = v / 2, so r | 3 n; x = 2 y; x | n - v; x | n
    assert (2, 2, 3, 4) in transverse_candidates(3, 11)
    assert (3, 4, 4, 8) in transverse_candidates(3, 19)
    assert (3, 4, 5, 7) in transverse_candidates(3, 19)
    assert (1, 3, 6, 9) in transverse_candidates(3, 19)


def test_d3_top_level_reads_its_forced_weight_off_divisor_keys(monkeypatch):
    # the d = 3 top is a four-free node: its forced v comes from a fixed
    # number of divisor lookups, not one subproblem per v; the scan took 103
    # lookups at 199 and 502 at 997
    import cywps.quasismooth as qs

    raw = qs._divisors.__wrapped__
    calls = []

    def spy(m):
        calls.append(m)
        return raw(m)

    spy.__wrapped__ = spy  # keys above the degree are counted too
    monkeypatch.setattr(qs, "_divisors", spy)
    counts = []
    for p in (199, 997, 4001):
        calls.clear()
        transverse_candidates(3, p)
        counts.append(len(calls))
    assert counts[0] <= 20 and counts[0] == counts[1] == counts[2], counts


@pytest.mark.parametrize("call", [
    lambda: transverse_candidates(0, 5),
    lambda: transverse_candidates(-1, 4),
    lambda: list(iter_weight_partitions(-1, 4)),
])
def test_fewer_than_two_weights_is_refused(call):
    with pytest.raises(ValueError, match="2 weights"):
        call()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bound, digest", [
    # the bytes of perfbench/data/census_d3_transverse_200.tsv
    (200, "3c8e94de4efd4b836f0c16d84bd8dd58ea10f2b9eb41cb48100f017f91b9190e"),
    (1000, "b0dffbb4042ca095de907a14e5a4ec42d3d04585a5d6d72edcb773ec8d001d00"),
])
def test_census_d3_transverse_pinned(bound, digest, jobs):
    lines = census_tsv(3, bound, "transverse", jobs=jobs)
    assert len(lines) == 1 + 95
    assert tsv_digest(lines) == digest
