"""Quasi-smoothness and IP tests, and the weight-system census.

Transversality of a weight vector is decided by the standard combinatorial
criterion for general hypersurfaces: for every nonempty subset J of the
variables, either some degree-w monomial is supported on J, or at least |J|
distinct outside variables z_e admit a monomial (supported on J) * z_e of
degree w.  Reachability of degrees is computed with bitset knapsack dynamic
programming, memoized per subset.

The census enumerates sorted well-formed weight vectors degree by degree via
a DFS over descending weights; for the transverse filter the DFS prunes with
the |J| = 1 case of the criterion (each weight must divide w or w - w_j for
some other j), which is a necessary condition for transversality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from multiprocessing import Pool
from typing import Iterator, Sequence

from .exact import format_rational, primitive_vector, rat_nullspace, rat_rank
from .polytope import hull_with_faces
from .wps import WeightVector, weight_flags

_FILTERS = ("transverse", "ip", "all")


def _reachable(weights: Sequence[int], degree: int, mask: int, memo: dict[int, int]) -> int:
    """Bitset of degrees <= degree expressible as non-negative combinations of
    the weights selected by ``mask``."""
    cached = memo.get(mask)
    if cached is not None:
        return cached
    if mask == 0:
        memo[0] = 1
        return 1
    low = mask & -mask
    j = low.bit_length() - 1
    bits = _reachable(weights, degree, mask ^ low, memo)
    cap = (1 << (degree + 1)) - 1
    step = weights[j]
    while step <= degree:
        bits |= (bits << step) & cap
        step <<= 1
    memo[mask] = bits
    return bits


def is_transverse(w: WeightVector) -> bool:
    """True if some degree-w hypersurface has differential vanishing only at 0."""
    ws = w.weights
    deg = w.degree
    n = len(ws)
    memo: dict[int, int] = {}
    masks = sorted(range(1, 1 << n), key=lambda m: m.bit_count())
    for mask in masks:
        bits = _reachable(ws, deg, mask, memo)
        if bits >> deg & 1:
            continue
        size = mask.bit_count()
        hits = 0
        for e in range(n):
            if mask >> e & 1:
                continue
            if bits >> (deg - ws[e]) & 1:
                hits += 1
                if hits >= size:
                    break
        if hits < size:
            return False
    return True


def _knapsack_argmax(ws: Sequence[int], deg: int, direction: Sequence[int]):
    """(max <direction, u>, maximizer u) over u >= 0 with sum(w_i u_i) = deg."""
    best: list[int | None] = [None] * (deg + 1)
    best[0] = 0
    take = [0] * (deg + 1)
    for t in range(1, deg + 1):
        b = None
        pick = -1
        for i, wi in enumerate(ws):
            if wi <= t:
                prev = best[t - wi]
                if prev is not None:
                    v = prev + direction[i]
                    if b is None or v > b:
                        b = v
                        pick = i
        best[t] = b
        take[t] = pick
    value = best[deg]
    assert value is not None, "degree w is always reachable (the all-ones monomial)"
    u = [0] * len(ws)
    t = deg
    while t:
        i = take[t]
        u[i] += 1
        t -= ws[i]
    return value, tuple(u)


# verify asks three times per vector (mirror_test and both stringy routes)
@lru_cache(maxsize=1 << 16)
def has_ip_property(w: WeightVector) -> bool:
    """True if the degree-w Newton polytope is d-dimensional with (1, ..., 1)
    strictly interior.

    Interiority of the all-ones point is decided exactly, through hulls of a
    growing certificate subset of Newton points: the support of the Newton
    polytope along any direction is an integer knapsack maximum, so a
    direction with support 0 after shifting certifies a boundary point, while
    a certificate hull with the shifted point strictly inside certifies IP.
    (The shifted point is always the unique coordinate-positive lattice point:
    any other would add a non-negative relation among positive weights.)
    """
    ws = w.weights
    deg = w.degree
    n = len(ws)
    d = w.dim
    memo: dict[int, int] = {}
    full = (1 << n) - 1
    for i in range(n):
        # necessary: some degree-w monomial avoids variable i
        if not _reachable(ws, deg, full ^ (1 << i), memo) >> deg & 1:
            return False

    def support(y: Sequence[int]):
        # dropping u_0 is an affine bijection of the degree hyperplane onto R^d
        value, u = _knapsack_argmax(ws, deg, (0, *y))
        return value - sum(y), tuple(x - 1 for x in u[1:])

    points: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def add(p: tuple[int, ...]) -> None:
        if p not in seen:
            seen.add(p)
            points.append(p)

    for i in range(d):
        for sgn in (1, -1):
            y = tuple(sgn if j == i else 0 for j in range(d))
            h, p = support(y)
            assert h >= 0, "the shifted origin lies in the polytope"
            if h == 0:
                return False
            add(p)

    zero = (0,) * d
    while True:
        if rat_rank(points) < d:
            refuter = rat_nullspace(points, d)[0]
            y, _ = primitive_vector(refuter)
            progressed = False
            for yy in (y, tuple(-x for x in y)):
                h, p = support(yy)
                if h == 0:
                    return False
                add(p)
                progressed = True
            assert progressed
            continue
        cert = hull_with_faces(points + [zero])
        worst = min(cert.facets, key=lambda f: (Fraction(f.offset), f.normal))
        if worst.offset > 0:
            return True
        h, p = support(tuple(-x for x in worst.normal))
        if h == 0:
            return False
        add(p)


@dataclass(frozen=True)
class CensusRecord:
    degree: int
    weights: tuple[int, ...]
    transverse: bool
    ip: bool
    gorenstein: bool
    chi_orb_formula: Fraction

    def tsv(self) -> str:
        return "\t".join(
            (
                str(self.degree),
                ",".join(str(x) for x in self.weights),
                str(int(self.transverse)),
                str(int(self.ip)),
                str(int(self.gorenstein)),
                format_rational(self.chi_orb_formula),
            )
        )


def iter_weight_partitions(
    dim: int, degree: int, transverse_prune: bool = False
) -> Iterator[tuple[int, ...]]:
    """Sorted tuples w_0 <= ... <= w_dim with the given degree, via DFS over
    descending weights.  With ``transverse_prune`` branches are cut when some
    chosen weight can no longer satisfy the singleton transversality condition
    (w_i | degree or w_i | degree - w_j for some other j); unsatisfied weights
    are carried with their residues, so a weight whose residue exceeds every
    possible future value cuts the remaining value range at once.
    """
    slots = dim + 1
    if not transverse_prune:
        def plain(chosen: list[int], remaining: int, max_val: int):
            left = slots - len(chosen)
            if left == 1:
                if remaining <= max_val:
                    chosen.append(remaining)
                    yield tuple(reversed(chosen))
                    chosen.pop()
                return
            hi = min(max_val, remaining - (left - 1))
            lo = -(-remaining // left)
            for v in range(hi, lo - 1, -1):
                chosen.append(v)
                yield from plain(chosen, remaining - v, v)
                chosen.pop()

        yield from plain([], degree, degree - slots + 1)
        return

    def dfs(chosen: list[int], unsat: list[tuple[int, int]], remaining: int, max_val: int):
        # unsat: (weight, degree % weight) for chosen weights not yet satisfied.
        # Future values never exceed the unsatisfied weight, so the only value
        # that can fix (w_i, r_i) is r_i itself: the distinct residues are
        # forced future values and must fit the remaining budget.
        left = slots - len(chosen)
        hi = min(max_val, remaining - (left - 1))
        lo = -(-remaining // left)
        future_left = left - 1
        for v in range(hi, lo - 1, -1):
            rem_after = remaining - v
            future_max = min(v, rem_after - (future_left - 1)) if future_left else 0
            new_unsat = []
            required: set[int] = set()
            viable = True
            for wi, ri in unsat:
                if (degree - v) % wi == 0:
                    continue
                if ri > future_max:
                    viable = False
                    if ri > v:
                        # future values only shrink; no smaller v can reach ri
                        return
                    break
                new_unsat.append((wi, ri))
                required.add(ri)
            if not viable:
                continue
            r_v = degree % v
            if r_v and not any((degree - c) % v == 0 for c in chosen):
                if r_v > future_max:
                    continue
                new_unsat.append((v, r_v))
                required.add(r_v)
            if required and (
                len(required) > future_left
                or sum(required) + future_left - len(required) > rem_after
            ):
                continue
            if future_left:
                chosen.append(v)
                yield from dfs(chosen, new_unsat, rem_after, v)
                chosen.pop()
            elif not new_unsat:
                yield tuple(reversed(chosen + [v]))

    yield from dfs([], [], degree, degree - slots + 1)


def _census_degree(args: tuple[int, int, str]) -> list[CensusRecord]:
    dim, degree, flt = args
    from .euler import vafa_subset_sum  # deferred: euler depends on this module

    out: list[CensusRecord] = []
    for weights in iter_weight_partitions(dim, degree, transverse_prune=flt == "transverse"):
        w = WeightVector(weights)
        well_formed, gorenstein = weight_flags(w)
        if not well_formed:
            continue
        if flt == "ip":
            # cheap-to-fail test first on this path
            ip = has_ip_property(w)
            if not ip:
                continue
            transverse = is_transverse(w)
        else:
            transverse = is_transverse(w)
            if flt == "transverse" and not transverse:
                continue
            ip = has_ip_property(w)
        chi = vafa_subset_sum(w).value
        out.append(CensusRecord(degree, weights, transverse, ip, gorenstein, chi))
    return out


def census(
    dim: int, max_degree: int, flt: str = "all", jobs: int | None = None
) -> list[CensusRecord]:
    """Every well-formed sorted weight vector with degree <= max_degree passing
    the filter, in lexicographic order of the weight tuple.

    The result is deterministic for any worker count: degrees are processed
    independently and merged by sorting.
    """
    if dim not in (2, 3, 4):
        raise ValueError("census supports dimensions 2, 3 and 4")
    if flt not in _FILTERS:
        raise ValueError(f"filter must be one of {_FILTERS}")
    if jobs is None:
        jobs = int(os.environ.get("CYWPS_JOBS", "1"))
    # expensive degrees first, so workers stay balanced
    tasks = [(dim, n, flt) for n in range(max_degree, dim, -1)]
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs) as pool:
            chunks = pool.map(_census_degree, tasks, chunksize=4)
    else:
        chunks = [_census_degree(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: r.weights)
    return records


def census_tsv(
    dim: int, max_degree: int, flt: str = "all", jobs: int | None = None
) -> Iterator[str]:
    """Census in the TSV exchange format, header line first."""
    from . import __version__

    yield f"# dim={dim} max_degree={max_degree} filter={flt} version={__version__}"
    for rec in census(dim, max_degree, flt, jobs):
        yield rec.tsv()
