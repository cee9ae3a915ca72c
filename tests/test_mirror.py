import json

import pytest

from cywps.errors import NotWellFormedError
from cywps.mirror import LaurentPolynomial, ghv_polynomial
from cywps.polytope import hull_with_faces
from cywps.wps import WeightVector, mirror_lattice, mirror_simplex


def test_ghv_display_matches_normal_form():
    poly = ghv_polynomial(WeightVector((1, 1, 6, 14, 21)))
    assert poly.to_text() == "1/(t1*t2^6*t3^14*t4^21) + t1 + t2 + t3 + t4"


def test_ghv_cubic_exponents():
    poly = ghv_polynomial(WeightVector((1, 1, 1)))
    assert set(poly.exponents()) == {(-1, -1), (1, 0), (0, 1)}
    assert all(c == 1 for c, _ in poly.terms)


def test_ghv_term_count_and_relation():
    w = WeightVector((2, 3, 5, 5))
    poly = ghv_polynomial(w)
    assert len(poly.terms) == 4
    for j in range(w.dim):
        assert sum(wi * e[j] for wi, (_, e) in zip(w.weights, poly.terms)) == 0


def test_ghv_newton_polytope_is_mirror_simplex():
    w = WeightVector((1, 1, 2, 4, 5))
    poly = ghv_polynomial(w)
    assert hull_with_faces(poly.exponents()) == mirror_simplex(mirror_lattice(w))


def test_ghv_single_negative_term_when_w0_is_1():
    w = WeightVector((1, 2, 3, 4, 5))
    poly = ghv_polynomial(w)
    negatives = [e for _, e in poly.terms if any(x < 0 for x in e)]
    assert negatives == [(-2, -3, -4, -5)]
    assert poly.terms[0][1] == (-2, -3, -4, -5)


def test_ghv_rejects_non_well_formed():
    with pytest.raises(NotWellFormedError):
        ghv_polynomial(WeightVector((2, 2, 3)))


def test_json_rendering():
    poly = ghv_polynomial(WeightVector((1, 1, 1)))
    payload = poly.to_json_obj()
    assert payload == [
        {"coeff": "1", "exponents": [-1, -1]},
        {"coeff": "1", "exponents": [1, 0]},
        {"coeff": "1", "exponents": [0, 1]},
    ]
    json.dumps(payload)


def test_laurent_invariants():
    with pytest.raises(ValueError):
        LaurentPolynomial(((1, (0, 1)), (2, (0, 1))))
    with pytest.raises(ValueError):
        LaurentPolynomial(((0, (0, 1)),))
    with pytest.raises(ValueError):  # _replace builds through the same checks
        LaurentPolynomial(((1, (0, 1)),))._replace(terms=((0, (0, 1)),))
