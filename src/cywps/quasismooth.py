"""Quasi-smoothness and IP tests, and the weight-system census.

Transversality of a weight vector is decided by the standard combinatorial
criterion for general hypersurfaces: for every nonempty subset J of the
variables, either some degree-w monomial is supported on J, or at least |J|
distinct outside variables z_e admit a monomial (supported on J) * z_e of
degree w.  Reachability of degrees is computed with bitset knapsack dynamic
programming, memoized per subset.

The transverse census generates its candidates from the |J| = 1 case of the
criterion: every weight w_i needs a pointer, i.e. w_i divides the degree n or
n - w_j for some other j (Kreuzer-Skarke, "On the classification of
quasihomogeneous functions").  For d >= 2 no such weight exceeds n/2, since
w_i > n/2 gives w_i < n < 2 w_i and w_i < n - w_j < 2 w_i for all j != i.
Free weights are picked in descending order; one, v, with no pointer to n or
to a weight already placed can only point at a later weight u <= v with
u = n mod v, so u joins the tuple as a forced weight, its pointer checked
once the tuple is complete.  The last free weights are solved from their
pointers.  Of a pair x >= y = s - x, each divides n - c for c = 0 or a placed
c, or n - s (x | n - y = n - s + x iff x | n - s).  Of three, a placed v
divides some n - c and leaves a pair; a forced v in the block q = n // v >= 2
forces r = n - q v and leaves last = s - v - r = a + (q - 1) v, a = s - n.
Pointing at v, last divides (q - 1)(n - v) + last = (q - 2) n + s; at r, it
divides q v, so q (last - a) and q (n - s); else some n - c.  Each such
divisor = a (mod q - 1) in range gives v = (last - a) / (q - 1).  For a = 0
the r case admits every last, so that block is scanned, as are narrow ones.
Of four, a placed v comes from the divisor slices of the n - c; a forced v
in block q forces r = n - q v and leaves x >= y, x + y = a + (q - 1) v.
x's pointer is al v + ga = k x: a constant n - c (x a divisor, k = 1),
n - v, q v = n - r, or n - y, which x divides iff it divides n - x - y;
x >= y and x <= v bound k by the block ends.  Then k y = e v + f, and y's
pointer, one of the same forms be v + de (y | n - x iff y | n - x - y),
gives y | (e de - be f) / gcd(be, e), v = (k y - f) / e.  That key is 0
only where x | q v, and there r's pointer (at n - c, v, x or y) gives
r | (q de + be n) / gcd(be, q), v = (n - r) / q.  At the top (a = 0) with
x | n the keys are y | n, n - x and 2 x; r at x = y = v / 2 needs r | 3 n.
Blocks narrower than 8 or than their keys are scanned: d = 3 scans only
such blocks (all below degree 96), while d = 4's five-free top level still
scans its largest weight.

Completeness: let T be a tuple with pointers.  Walk T from its largest weight
down, skipping weights already placed as forced.  At each weight v, if v
points at n or at a placed weight, place v; otherwise v points at some u in T
still unplaced, u <= v and u = n mod v (v cannot divide n), and the generator
places v and forces u, the same step.  Every step stays within the bounds the
generator scans (the unplaced weights of T sum to s and are at most v and
n/2), and the last free weights of T lie in the divisor sets above, so T is
emitted.  Emitted tuples are checked against the full |J| = 1 condition and
gcd 1 and kept once each; ``is_transverse`` remains the final filter.

The IP and unfiltered censuses scan all partitions, the IP one with weights
capped at half the degree.  Transverse implies IP (Skarke, hep-th/9603007), so
``has_ip_property`` answers a transverse vector from the theorem and runs the
certificate, ``_ip_certificate``, only on the rest; every census asks
``has_ip_property`` only about vectors that are not transverse.  The
certificate refutes first by subset counts (a set J of variables with at
least |J| factors from J in every degree-w monomial), then by the axis
supports, and only then takes knapsack directions and its hull.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InternalError
from .exact import format_rational, hermite, pivot_rows
from .polytope import BeneathBeyond
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


# mirror_test, check and the census ask it, then has_ip_property again: one computation
@lru_cache(maxsize=16)
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
    if value is None:
        raise InternalError("degree w is always reachable (the all-ones monomial)")
    u = [0] * len(ws)
    t = deg
    while t:
        i = take[t]
        u[i] += 1
        t -= ws[i]
    return value, tuple(u)


# verify asks three times per vector (mirror_test and both stringy routes)
@lru_cache(maxsize=16)
def has_ip_property(w: WeightVector) -> bool:
    """True if the degree-w Newton polytope is d-dimensional with (1, ..., 1)
    strictly interior.

    A weight above half the degree refutes at once, before any reachability
    set is built.  A transverse vector is IP by Skarke's theorem
    (hep-th/9603007, "Weight systems for toric Calabi-Yau varieties and
    reflexivity of Newton polyhedra"), read off the cached ``is_transverse``;
    only the rest take the certificate of ``_ip_certificate``, and the tests
    check the theorem against that certificate.
    """
    if 2 * max(w.weights) > w.degree:
        return False
    return is_transverse(w) or _ip_certificate(w)


def _ip_certificate(w: WeightVector) -> bool:
    """The IP-property decided by a certificate, with no appeal to transversality.

    Interiority of the all-ones point is decided exactly, through one hull of
    a growing certificate subset of Newton points: the support of the Newton
    polytope along any direction is an integer knapsack maximum, so a
    direction with support 0 after shifting certifies a boundary point, while
    a certificate hull with the shifted point strictly inside certifies IP:
    the raw pieces of one ``BeneathBeyond`` on the shifted points themselves,
    no ``Polytope`` and no scaling, all of positive offset; else the next
    direction is minus the normal of the least piece, and its support point
    is inserted into that hull.  A support point
    already in the certificate is an ``InternalError``, so every round adds a
    Newton point and the rounds are bounded.
    Before any knapsack, subset counts refute: for each nonempty J, some
    degree-w monomial must have at most |J| - 1 factors from J, i.e. the
    degree must be reachable from the bitset of the other weights in |J| - 1
    rounds of shifts by the weights of J.  If none has, sum_{j in J} (u_j - 1)
    >= 0 on every Newton point, with equality at (1, ..., 1), so that
    hyperplane supports the polytope there.  It is a proper face for every
    proper J, and for the full set unless all weights are equal: then
    sum u_j = n on the whole degree hyperplane, and (2, 2, 2) is IP.  J = {i}
    asks for a monomial avoiding z_i.  The memo holds the bitset of every
    complement, 2^n - 1 masks of degree + 1 bits each, the table
    ``is_transverse`` builds.
    Along the 2d coordinate axes the supports, the extreme exponents of each
    z_i, and a monomial attaining each are read off those reachability
    bitsets; the knapsack runs only along the other directions.
    (The shifted point is always the unique coordinate-positive lattice point:
    any other would add a non-negative relation among positive weights.)
    """
    ws = w.weights
    deg = w.degree
    if 2 * max(ws) > deg:
        # u_i <= 1 for the largest weight, so (1, ..., 1) lies on the face u_i = 1
        return False
    n = len(ws)
    d = w.dim
    memo: dict[int, int] = {}
    full = (1 << n) - 1
    cap = (2 << deg) - 1
    # necessary: for each J, some degree-w monomial has at most |J| - 1
    # factors from J; the full set only if the weights differ
    masks = range(1, full if len(set(ws)) == 1 else full + 1)
    for mask in sorted(masks, key=int.bit_count):
        bits = _reachable(ws, deg, full ^ mask, memo)
        js = [ws[j] for j in range(n) if mask >> j & 1]
        for _ in range(len(js) - 1):
            if bits >> deg & 1:
                break
            grown = bits
            for x in js:
                grown |= bits << x
            bits = grown & cap
        if not bits >> deg & 1:
            return False

    points: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = {(0,) * d}  # the shifted origin is in every certificate

    def support(y: Sequence[int]):
        # dropping u_0 is an affine bijection of the degree hyperplane onto R^d
        value, u = _knapsack_argmax(ws, deg, (0, *y))
        h, p = value - sum(y), tuple(x - 1 for x in u[1:])
        if h and p in seen:
            # every certificate point q has <y, q> <= 0 < h = <y, p>
            raise InternalError(f"support point {p} is already in the certificate")
        return h, p

    def add(p: tuple[int, ...]) -> None:
        if p not in seen:
            seen.add(p)
            points.append(p)

    def monomial(i: int, a: int) -> tuple[int, ...]:
        # a degree-w monomial with u_i = a, read back along the memo chain of
        # the mask without z_i (each step drops the lowest bit z_j):
        # the fewest z_j that leave t - u_j w_j reachable by the rest, which is
        # the top bit of the rest's bitset on the comb t, t - w_j, t - 2 w_j, ...
        u = [0] * n
        u[i], t, mask = a, deg - a * ws[i], full ^ (1 << i)
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            comb, step = 1, ws[j]  # the multiples of w_j up to t, by doubling
            while step <= t:
                comb |= comb << step
                step <<= 1
            fits = memo[mask] & (comb << t % ws[j]) & ((2 << t) - 1)
            if not fits:
                raise InternalError(f"{t} is not reachable along the memo chain")
            u[j] = (t - fits.bit_length() + 1) // ws[j]
            t -= u[j] * ws[j]
        return tuple(u)

    # the supports along the 2d axes: the exponent of z_i ranges from 0 (J =
    # {i} above) to the largest a with deg - a * w_i reachable without z_i
    for i in range(1, n):
        without = memo[full ^ (1 << i)]
        top = deg // ws[i]
        while not without >> (deg - top * ws[i]) & 1:
            top -= 1
        if top < 1:
            raise InternalError("the shifted origin lies in the polytope")
        if top == 1:
            return False
        for a in (top, 0):
            add(tuple(x - 1 for x in monomial(i, a)[1:]))

    while True:
        # the points span R^d iff the last column of their column reduction
        # is nonzero; else the last column of t is a primitive direction they
        # all vanish on
        reduced, t = hermite(points, transform=True)
        if any(row[-1] for row in reduced):
            break
        y = tuple(row[-1] for row in t)
        for yy in (y, tuple(-x for x in y)):
            h, p = support(yy)
            if h == 0:
                return False
            add(p)

    # one hull of 0 and the points, started from the simplex of 0 and the
    # pivot rows; each round inserts one new support point, so the rounds are
    # at most the Newton points
    start = [0, *(r + 1 for r in pivot_rows(reduced))]
    hull = BeneathBeyond([(0,) * d, *points], start)
    while True:
        _, normal, offset = min(hull.pieces, key=lambda pc: (pc[2], pc[1]))
        if offset > 0:
            return True
        h, p = support(tuple(-x for x in normal))
        if h == 0:
            return False
        add(p)
        hull.insert(p)


class CensusRecord(NamedTuple):
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
    dim: int, degree: int, max_weight: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Sorted tuples w_0 <= ... <= w_dim with the given degree and every weight
    at most ``max_weight``, via DFS over descending weights."""
    if dim < 1:
        raise ValueError(f"a weight system has dim + 1 >= 2 weights, got dim {dim}")
    slots = dim + 1

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

    top = degree - slots + 1
    yield from plain([], degree, top if max_weight is None else min(top, max_weight))


# sorted divisors of n >= 0; the keys are at most the degree, so the cache holds
# at most one tuple per integer up to the largest degree asked for
@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return (*small, *(n // k for k in reversed(small) if k * k != n))


def transverse_candidates(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Primitive sorted tuples of dim + 1 >= 2 weights with the given degree in
    which every weight has a pointer (it divides degree or degree - w_j for
    some other j), in the order of ``iter_weight_partitions``."""
    if dim < 1:
        raise ValueError(f"a weight system has dim + 1 >= 2 weights, got dim {dim}")
    n = degree
    found: set[tuple[int, ...]] = set()

    def between(m: int, lo: int, hi: int) -> tuple[int, ...]:
        divs = _divisors(m) if m <= n else _divisors.__wrapped__(m)
        return divs[bisect_left(divs, lo) : bisect_right(divs, hi)]

    def points(u: int, *diff_sets: Iterable[int]) -> bool:
        return any(d % u == 0 for ds in diff_sets for d in ds)

    def emit(ws: list[int]) -> None:
        t = tuple(sorted(ws))
        if math.gcd(*t) == 1 and all(any((n - u) % v == 0 for u in (0, *t)) for v in t):
            found.add(t)

    def solved_block(diffs: set[int], a: int, q: int, bot: int, top: int) -> list[list[int]] | None:
        # four free weights, the largest v forced in [bot, top]: v forces
        # r = n - q v and leaves x >= y, x + y = a + (q - 1) v.  x's pointer
        # al v + ga = k x is a constant n - c, n - v, q v = n - r or
        # n - x - y; y | be v + de, one of the same forms, and e v = k y - f
        # give y | (e de - be f) / gcd(be, e).  None where the keys outnumber
        # the block's values
        lines = {(-1, n), (q, 0), (1 - q, n - a)}
        forms = lines | {(0, m) for m in diffs}
        sb, st = a + (q - 1) * bot, a + (q - 1) * top  # x + y at the ends
        xs = {x for m in diffs for x in between(m, (sb + 1) // 2, min(top, st - 1))}
        cases = [(1, 0, x) for x in xs]
        spans = []
        for al, ga in lines:
            lb, lt = al * bot + ga, al * top + ga
            spans.append((al, ga, range(min(-(-lb // bot), -(-lt // top)), max(2 * lb // sb, 2 * lt // st) + 1)))
        if (len(cases) + sum(len(kr) for _, _, kr in spans)) * len(forms) > top - bot:
            return None
        cases += [(k, al, ga) for al, ga, kr in spans for k in kr]
        block = []
        for k, al, ga in cases:
            e, f = k * (q - 1) - al, k * a - ga  # k y = e v + f
            if e <= 0:  # x = v on x | 2 v, so y = a <= 0
                continue
            keys = {(e * de - be * f) // math.gcd(be, e) for be, de in forms}
            if 0 in keys:
                # that pointer of y holds for every v (only where x | q v): key
                # r = n - q v on its own pointer, r | (q de + be n) / gcd(be, q)
                rforms = {(0, m) for m in diffs} | {(-1, n), (-al, k * n - ga), (-e, k * n - f)}
                rkeys = {(q * de + be * n) // math.gcd(be, q) for be, de in rforms}
                lo, hi = n - q * top, n - q * bot
                vs = {(n - r) // q for m in rkeys for r in between(m, lo, hi) if (n - r) % q == 0}
            else:
                lo, hi = max(1, -(-(e * bot + f) // k)), (e * top + f) // k
                vs = {(k * y - f) // e for m in keys for y in between(abs(m), lo, hi) if (k * y - f) % e == 0}
            for v in vs:
                x, rem = divmod(al * v + ga, k)
                y = a + (q - 1) * v - x
                if not rem and 1 <= y <= x <= v:
                    block.append([v, n - q * v, x, y])
        return block

    def grow(fixed: list[int], forced: list[int], free: int, s: int, vmax: int) -> None:
        # fixed: weights chosen or forced so far; the free ones sum to s, each <= vmax
        diffs = {n - c for c in (0, *fixed)}
        pending = [u for u in forced if all(d % u for d in diffs)]
        if free == 2:
            # x >= y = s - x, each dividing n - c or n - s (then it points at the other)
            hi = min(vmax, s - 1)
            # a pending u divides n - x or n - y; [s - hi, hi] is symmetric in x and y
            if any((n + hi - s) % u > 2 * hi - s for u in pending):
                return
            xs = {x for m in {n - s, *diffs} for x in between(m, s - hi, hi)}
            for x in xs:
                y = s - x
                if y <= x and y in xs and all(points(u, (n - x, n - y)) for u in pending):
                    emit(fixed + [x, y])
            return
        vhi, vlo = min(vmax, s - free + 1), -(-s // free)
        if free == 3:
            for v in {v for m in diffs for v in between(m, vlo, vhi)}:
                grow(fixed + [v], forced, 2, s - v, v)
            # v forces r = n - q v in its block q = n // v, leaving last = a + (q - 1) v
            a, v = s - n, vhi
            while v >= vlo:
                q = n // v
                blo = max(vlo, n // (q + 1) + 1)
                top = min(v, (n - 1) // q, -a // (q - 2) if q > 2 else v)  # r >= 1, last <= v
                bot = max(blo, (q - 1 - a) // (q - 1))  # last >= 1
                v = blo - 1
                # scan a few values, and a = 0, where last | q (n - s) = 0 always holds
                if a == 0 or top - bot < 8:
                    ws = range(bot, top + 1)
                else:
                    lo, hi = a + (q - 1) * bot, a + (q - 1) * top
                    keys = (*diffs, (q - 2) * n + s, q * (n - s))
                    lasts = [x for m in keys for x in between(m, lo, hi)]
                    ws = {(x - a) // (q - 1) for x in lasts if (x - a) % (q - 1) == 0}
                for w in ws:
                    r, last = n - q * w, a + (q - 1) * w
                    near = (n - w, n - r, n - last)
                    if points(r, near, diffs) and points(last, near, diffs):
                        if all(points(u, near) for u in pending):
                            emit(fixed + [w, r, last])
            return
        if free == 4:
            for v in {v for m in diffs for v in between(m, vlo, vhi)}:
                grow(fixed + [v], forced, 3, s - v, v)
            a, v = s - n, vhi
            while v >= vlo:
                q = n // v
                blo = max(vlo, n // (q + 1) + 1)
                top = min(v, (n - 1) // q, -a // (q - 3) if q > 3 else v)  # r >= 1, x + y <= 2 v
                bot = max(blo, (q - a) // (q - 1))  # x + y >= 2
                v = blo - 1
                if top - bot < 8 or (block := solved_block(diffs, a, q, bot, top)) is None:
                    for w in range(bot, top + 1):
                        if all(d % w for d in diffs):
                            r = n - q * w
                            grow(fixed + [w, r], forced + [r], 2, a + (q - 1) * w, w)
                else:
                    for ws in block:
                        emit(fixed + ws)
            return
        for v in range(vhi, vlo - 1, -1):
            if any(d % v == 0 for d in diffs):
                grow(fixed + [v], forced, free - 1, s - v, v)
            elif free - 2 <= s - v - (r := n % v) <= (free - 2) * v:
                # v's pointer must be a later weight u <= v, so u = n mod v
                grow(fixed + [v, r], forced + [r], free - 2, s - v - r, v)

    grow([], [], dim + 1, n, n // 2 if dim >= 2 else n)
    return sorted(found, key=lambda t: t[::-1], reverse=True)


def _census_degree(args: tuple[int, int, str]) -> list[CensusRecord]:
    dim, degree, flt = args
    from .euler import vafa_subset_sum  # deferred: euler depends on this module

    out: list[CensusRecord] = []
    if flt == "transverse":
        candidates = transverse_candidates(dim, degree)
    else:
        # has_ip_property refuses a weight above half the degree
        candidates = iter_weight_partitions(dim, degree, degree // 2 if flt == "ip" else None)
    for weights in candidates:
        w = WeightVector(weights)
        well_formed, gorenstein = weight_flags(w)
        if not well_formed:
            continue
        transverse = is_transverse(w)
        if flt == "transverse" and not transverse:
            continue
        # transverse implies IP (Skarke, hep-th/9603007), so the hull runs only on the rest
        ip = transverse or has_ip_property(w)
        if flt == "ip" and not ip:
            continue
        chi = vafa_subset_sum(w).value
        out.append(CensusRecord(degree, weights, transverse, ip, gorenstein, chi))
    return out


def census_jobs(dim: int, flt: str = "all", jobs: int = 1) -> int:
    """The worker count of a census, ``jobs`` (default 1); raises ValueError,
    before any enumeration, on every argument ``census`` refuses."""
    if dim not in (2, 3, 4):
        raise ValueError("census supports dimensions 2, 3 and 4")
    if flt not in _FILTERS:
        raise ValueError(f"filter must be one of {_FILTERS}")
    if jobs < 1:
        raise ValueError(f"census needs at least one worker, got {jobs}")
    return jobs


def census(dim: int, max_degree: int, flt: str = "all", jobs: int = 1) -> list[CensusRecord]:
    """Every well-formed sorted weight vector with degree <= max_degree passing
    the filter, in lexicographic order of the weight tuple.

    The result is deterministic for any worker count: degrees are processed
    independently and merged by sorting.  At most min(jobs, degrees, CPUs)
    worker processes start.
    """
    jobs = census_jobs(dim, flt, jobs)
    # expensive degrees first, so workers stay balanced
    tasks = [(dim, n, flt) for n in range(max_degree, dim, -1)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool  # here, so a one-worker process never loads it

        with Pool(workers) as pool:
            chunks = pool.map(_census_degree, tasks, chunksize=4)
    else:
        chunks = [_census_degree(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: r.weights)
    return records


def census_tsv(dim: int, max_degree: int, flt: str = "all", jobs: int = 1) -> list[str]:
    """Census in the TSV exchange format, header line first.

    The records are computed, and the arguments checked, before any line
    exists, so a refused call leaves no header behind."""
    from . import __version__

    records = census(dim, max_degree, flt, jobs)
    header = f"# dim={dim} max_degree={max_degree} filter={flt} version={__version__}"
    return [header, *(rec.tsv() for rec in records)]
