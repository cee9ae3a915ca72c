"""Exact Euler numbers, polytope classification and censuses for Calabi-Yau
hypersurfaces in weighted projective spaces."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    EnumerationLimitError,
    InternalError,
    NotIPError,
    NotWellFormedError,
)
from .euler import (
    EulerReport,
    k3_identity,
    mirror_test,
    stringy_mirror_closed,
    stringy_polytope,
    stringy_reflexive,
    vafa_double_sum,
    vafa_subset_sum,
)
from .exact import format_rational
from .mirror import LaurentPolynomial, ghv_polynomial
from .polytope import (
    Polytope,
    bracket,
    dual_polytope,
    face_volume,
    fano_classification,
    hull_with_faces,
    lattice_points,
    normalized_volume,
)
from .quasismooth import CensusRecord, census, census_tsv, has_ip_property, is_transverse
from .wps import (
    MirrorLattice,
    WeightVector,
    dual_simplex,
    mirror_lattice,
    mirror_simplex,
    newton_hull,
    newton_points,
    subset_gcds,
    weight_flags,
)

__all__ = [
    "CensusRecord",
    "DomainError",
    "EnumerationLimitError",
    "EulerReport",
    "InternalError",
    "LaurentPolynomial",
    "MirrorLattice",
    "NotIPError",
    "NotWellFormedError",
    "Polytope",
    "WeightVector",
    "bracket",
    "census",
    "census_tsv",
    "dual_polytope",
    "dual_simplex",
    "face_volume",
    "fano_classification",
    "format_rational",
    "ghv_polynomial",
    "has_ip_property",
    "hull_with_faces",
    "is_transverse",
    "k3_identity",
    "lattice_points",
    "mirror_lattice",
    "mirror_simplex",
    "mirror_test",
    "newton_hull",
    "newton_points",
    "normalized_volume",
    "stringy_mirror_closed",
    "stringy_polytope",
    "stringy_reflexive",
    "subset_gcds",
    "vafa_double_sum",
    "vafa_subset_sum",
    "weight_flags",
]
