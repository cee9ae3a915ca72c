"""The special Laurent polynomial sum_i t^{v_i} of the mirror family.

Its Newton polytope is the mirror simplex conv(v_0, ..., v_d); for w_0 = 1
the basis normalization in wps.mirror_lattice makes it read
1/(t1^{w_1} * ... * td^{w_d}) + t1 + ... + td.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import format_rational
from .wps import WeightVector, mirror_lattice


class _Terms(NamedTuple):
    terms: tuple[tuple[Fraction | int, tuple[int, ...]], ...]


class LaurentPolynomial(_Terms):
    """Terms (coefficient, exponent vector); exponents pairwise distinct."""

    __slots__ = ()

    def __new__(cls, terms) -> "LaurentPolynomial":
        exps = [e for _, e in terms]
        if len(set(exps)) != len(exps):
            raise ValueError("exponent vectors must be pairwise distinct")
        if any(c == 0 for c, _ in terms):
            raise ValueError("coefficients must be nonzero")
        return super().__new__(cls, terms)

    @classmethod
    def _make(cls, iterable) -> "LaurentPolynomial":
        return cls(*iterable)  # so that ``_replace`` checks the new terms too

    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e for _, e in self.terms)

    def to_text(self) -> str:
        return " + ".join(_term_text(c, e) for c, e in self.terms)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": format_rational(c), "exponents": list(e)} for c, e in self.terms
        ]


def _power(i: int, e: int) -> str:
    return f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"


def _term_text(coeff, exps) -> str:
    num = [_power(i, e) for i, e in enumerate(exps) if e > 0]
    den = [_power(i, -e) for i, e in enumerate(exps) if e < 0]
    text = "*".join(num) if num else "1"
    if coeff != 1:
        text = format_rational(coeff) if text == "1" else f"{format_rational(coeff)}*{text}"
    if den:
        text += f"/({'*'.join(den)})"
    return text


def ghv_polynomial(w: WeightVector) -> LaurentPolynomial:
    """sum_i t^{v_i} with unit coefficients, terms in generator order (so the
    all-negative term leads when w_0 = 1, matching the normal form)."""
    lattice = mirror_lattice(w)
    return LaurentPolynomial(tuple((1, g) for g in lattice.generators))
