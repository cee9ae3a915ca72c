"""Orbifold and stringy Euler numbers, computed along four independent routes.

* the double character sum over pairs (l, r) of the cyclic group of order w,
  with factor (1 - 1/q_i) over the indices fixed by both (empty product 1);
* its subset form (1/w) sum over J, |J| <= d-1, of (-1)^|J| n_J^2 prod 1/q_j;
* the mirror closed form (1/w) sum over |J| >= 2 of (-1)^|J| n_Jbar^2
  prod_{i in Jbar} 1/q_i, valid for IP weight vectors;
* the general lattice-polytope formula sum_k (-1)^(k-1) sum_{dim theta = k}
  Vol_k(theta) * Vol_{d-k}(sigma_theta cap Delta*), evaluated with the exact
  volume machinery on the mirror simplex.

All values are exact rationals; agreement of the routes is what ``verify``
checks, and the (-1)^(d-1) sign ties the mirror side to the orbifold side.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, NotIPError
from .exact import format_rational
from .polytope import (
    Polytope,
    face_volume,
    fano_classification,
    normalized_volume,
    polar_volume,
    simplex_indices,
)
from .quasismooth import has_ip_property, is_transverse
from .wps import (
    MirrorLattice,
    WeightVector,
    mirror_lattice,
    newton_hull,
    polar_vertices,
    subset_gcds,
    weight_flags,
)


def vafa_double_sum(w: WeightVector) -> Fraction:
    """The double sum (1/w) sum_{l,r} prod_{i : l q_i, r q_i integral} (1 - 1/q_i).

    l q_i is integral when p_i = w / gcd(w, w_i) divides l.  Every p_i divides
    w, so w / lcm(p_i : i in T) of the l in [0, w) are fixed by all of T, and
    Moebius inversion over supersets gives how many l have each exact fixed
    set, in O(n 2^n) steps for any degree.  The w^2 pairs are then summed as
    products of these counts with the subset products, each an integer over
    the one denominator prod_i w_i, divided by it and w once at the end.
    """
    ws = w.weights
    deg = w.degree
    n = len(ws)
    periods = [deg // math.gcd(deg, wi) for wi in ws]
    lcms = [1]  # by the bitmask of T: the table doubles with each index
    for p in periods:
        lcms += [math.lcm(m, p) for m in lcms]
    counts = [deg // m for m in lcms]
    for i in range(n):
        for mask in range(1 << n):
            if not mask >> i & 1:
                counts[mask] -= counts[mask | 1 << i]
    # prod_{i in mask} (1 - w / w_i) times prod_i w_i: w_j divides the
    # product over mask - {j}, where it is still a factor
    den = math.prod(ws)
    product = [den]
    for wj in ws:
        product += [x // wj * (wj - deg) for x in product]
    total = 0
    items = [(mask, count) for mask, count in enumerate(counts) if count]
    for s_mask, s_count in items:
        for t_mask, t_count in items:
            total += s_count * t_count * product[s_mask & t_mask]
    return Fraction(total, den * deg)


class SubsetSum(NamedTuple):
    value: Fraction
    partials: tuple[Fraction, ...]  # per subset cardinality, before dividing by w


def vafa_subset_sum(w: WeightVector) -> SubsetSum:
    """The subset form of the double sum, for well-formed weight vectors:
    value = (1/w) sum_{|J| <= d-1} (-1)^|J| n_J^2 prod_{j in J} (w / w_j),
    each partial summed in integers over the denominator prod_j w_j."""
    ws = w.weights
    deg = w.degree
    d = w.dim
    den = math.prod(ws)
    others = [den]  # prod_{j not in J} w_j by the bitmask of J, grown as ``subset_gcds``
    for wi in ws:
        others += [x // wi for x in others]
    numerators = [0] * d
    for mask, (n_j, rest) in enumerate(zip(subset_gcds(w), others)):
        size = mask.bit_count()
        if size < d:
            term = n_j * n_j * deg**size * rest
            numerators[size] += -term if size % 2 else term
    partials = tuple(Fraction(n, den) for n in numerators)
    return SubsetSum(Fraction(sum(numerators), den * deg), partials)


def stringy_mirror_closed(w: WeightVector) -> Fraction:
    """Stringy Euler number of the compactified mirror hypersurface:
    (1/w) sum_{|J| >= 2} (-1)^|J| n_Jbar^2 prod_{i in Jbar} (w / w_i), summed
    in integers over the denominator prod_i w_i.

    Only meaningful for IP weight vectors; anything else is a domain error.
    """
    if not has_ip_property(w):
        raise NotIPError(f"weight vector {w} lacks the IP-property")
    ws = w.weights
    deg = w.degree
    product = [1]  # prod_{i in J} w_i by the bitmask of J, grown as ``subset_gcds``
    for wi in ws:
        product += [x * wi for x in product]
    total = 0
    for mask, (n_c, w_mask) in enumerate(zip(reversed(subset_gcds(w)), product)):  # n_Jbar
        size = mask.bit_count()
        if size >= 2:
            term = n_c * n_c * deg ** (len(ws) - size) * w_mask
            total += -term if size % 2 else term
    return Fraction(total, math.prod(ws) * deg)


def stringy_polytope(lattice: MirrorLattice) -> Fraction:
    """Stringy Euler number from the mirror simplex alone:
    sum_{k=1..d} (-1)^(k-1) sum_{dim theta = k} Vol_k(theta) * Vol_{d-k}(pyramid
    over the polar face).  A face conv(v_j : j in S) of a simplex has the polar
    face conv(m_i : i not in S), so no polytope is built.  One ``simplex_indices``
    walk on the rows (1, v_j) lists each Vol_k(theta) by vertex mask, and one on
    the pairing-checked ``polar_vertices``, cleared once by the lcm L of their
    denominators, gives each section conv(0, L m_i : i not in S) times L^(d-k):
    sign * Vol_k(theta) * index * L^k is summed in integers, divided once by L^d.

    Requires the bracket of the dual simplex to be canonical Fano, which for a
    weight vector is exactly the IP-property.
    """
    w = WeightVector(lattice.weights)
    if not has_ip_property(w):
        raise NotIPError(
            f"bracket of the dual simplex of {w} is not canonical (no IP-property)"
        )
    d = lattice.dim
    scaled = list(zip(polar_vertices(lattice), w.weights))  # (w_i * m_i, w_i)
    lcm = math.lcm(*(wi // math.gcd(wi, *wm) for wm, wi in scaled))
    polar = [tuple(x * lcm // wi for x in wm) for wm, wi in scaled]
    volumes = [0] * (2 << d)
    for face, volume in simplex_indices([(1, *v) for v in lattice.generators]):
        volumes[face] = volume
    total = 0
    for off, section in simplex_indices(polar):
        k = d - off.bit_count()  # volumes[~off] = volumes[full - off], a face of k + 1 vertices
        if k > 0:  # the pyramid over the polar face of a simplex face is a simplex
            total += (1 if k % 2 else -1) * volumes[~off] * section * lcm**k
    return Fraction(total, lcm**d)


def stringy_reflexive(delta: Polytope) -> Fraction:
    """Stringy Euler number of a Calabi-Yau hypersurface from a reflexive
    polytope: sum_{k=1..d-2} (-1)^(k-1) sum Vol_k(theta) * Vol_{d-k-1}(theta*),
    each polar face theta* measured on delta's own face lattice (``polar_volume``)."""
    if not (delta.is_full_dimensional and delta.is_lattice and delta.origin_interior()):
        raise DomainError("reflexive lattice polytope with interior origin required")
    if any(f.offset != 1 for f in delta.facets):
        raise DomainError("polytope is not reflexive (dual is not a lattice polytope)")
    total = Fraction(0)
    for k in range(1, delta.dim - 1):
        sign = 1 if k % 2 else -1
        for face in delta.faces(k):
            total += sign * face_volume(delta, face) * polar_volume(delta, face)
    return total


def k3_identity(delta: Polytope) -> Fraction:
    """Residual of the K3 volume identity
    24 = Vol_3 - sum_facets Vol_2/n + sum_edges Vol_1 * Vol_1(polar)
    for a 3-dimensional almost-reflexive lattice polytope (0 means it holds);
    each polar edge is measured by ``polar_volume`` on delta's own face lattice."""
    if delta.ambient_dim != 3 or delta.dim != 3:
        raise DomainError("a 3-dimensional polytope is required")
    flags = fano_classification(delta)
    if not (flags.canonical and flags.almost_pseudoreflexive):
        raise DomainError("polytope is not almost reflexive")
    rhs = normalized_volume(delta)
    for face in delta.faces(2):
        distance = delta.facets[face.facet_ids[0]].offset
        rhs -= face_volume(delta, face) / distance
    for face in delta.faces(1):
        rhs += face_volume(delta, face) * polar_volume(delta, face)
    return Fraction(24) - rhs


class EulerReport(NamedTuple):
    """Aggregated results of the mirror test for one weight vector."""

    weights: tuple[int, ...]
    degree: int
    well_formed: bool
    gorenstein: bool
    ip: bool
    transverse: bool
    chi_orb_formula: Fraction
    chi_str_mirror: Fraction | None
    integral: bool
    methods_agree: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "degree": self.degree,
            "well_formed": self.well_formed,
            "gorenstein": self.gorenstein,
            "ip": self.ip,
            "transverse": self.transverse,
            "chi_orb_formula": format_rational(self.chi_orb_formula),
            "chi_str_mirror": (
                None if self.chi_str_mirror is None else format_rational(self.chi_str_mirror)
            ),
            "integral": self.integral,
            "methods_agree": self.methods_agree,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def mirror_test(w: WeightVector) -> EulerReport:
    """Run every applicable Euler-number route and cross-check them.

    For IP vectors the report carries chi_str_mirror = (-1)^(d-1) *
    chi_orb_formula; a non-transverse IP vector additionally gets diagnostics
    against the Calabi-Yau attached to its Newton polytope (integrality
    failures and stringy mismatches are recorded as notes, not errors).
    """
    well_formed, gorenstein = weight_flags(w)
    transverse = is_transverse(w)
    ip = has_ip_property(w)
    sign = 1 if w.dim % 2 else -1

    chi_double = vafa_double_sum(w)
    notes: list[str] = []
    values = {"double-sum": chi_double}
    chi_str: Fraction | None = None

    if well_formed:
        values["subset-sum"] = vafa_subset_sum(w).value
    else:
        notes.append("not well-formed: chi_orb_formula is a formula value only")

    if well_formed and ip:
        lattice = mirror_lattice(w)
        chi_str = stringy_mirror_closed(w)
        values["closed-form"] = sign * chi_str
        values["polytope"] = sign * stringy_polytope(lattice)
    elif well_formed:
        notes.append("no IP-property: the mirror construction does not apply; "
                     "chi_orb_formula is a formula value only")

    methods_agree = len(set(values.values())) == 1
    if not methods_agree:
        detail = ", ".join(f"{k}={format_rational(v)}" for k, v in sorted(values.items()))
        notes.append(f"methods disagree: {detail}")

    integral = chi_double.denominator == 1
    if well_formed and ip and not transverse:
        if not integral:
            notes.append(
                f"chi_orb_formula = {format_rational(chi_double)} is not an integer: "
                "no Landau-Ginzburg description and no mirror at all"
            )
        hull = newton_hull(lattice)
        try:
            chi_geom = stringy_reflexive(hull)
        except DomainError:  # refused exactly when the Newton polytope is not reflexive
            pass
        else:
            notes.append(
                f"newton polytope hypersurface is a Calabi-Yau with chi_str = "
                f"{format_rational(chi_geom)}"
            )
            expected = sign * chi_geom
            if chi_str != expected:
                notes.append(
                    f"mirror mismatch: chi_str_mirror = {format_rational(chi_str)} != "
                    f"{format_rational(expected)} = (-1)^(d-1) * chi_str of the newton "
                    "polytope hypersurface: not a mirror pair"
                )

    return EulerReport(
        weights=w.weights,
        degree=w.degree,
        well_formed=well_formed,
        gorenstein=gorenstein,
        ip=ip,
        transverse=transverse,
        chi_orb_formula=chi_double,
        chi_str_mirror=chi_str,
        integral=integral,
        methods_agree=methods_agree,
        notes=tuple(notes),
    )
