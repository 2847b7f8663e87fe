"""Exact-arithmetic partition functions of tetrahedron instantons.

The package computes the K-theoretic, cohomological and elliptic partition
functions two independent ways (equivariant localization over tuples of
plane partitions, and closed plethystic formulas) and certifies that they
agree, along with the sign rule, framing independence, factorization and
vanishing statements.  Everything runs over ``fractions.Fraction``.
"""

__version__ = "0.1.0"

from .algebra import (
    Character,
    CohPoint,
    EvalPoint,
    bracket_eval,
    euler_eval,
    exponents,
    monomial,
    theta_eval,
)
from .formulas import closed_Z_K, closed_Z_coh, factorized_Z
from .localization import Z_loc_K, Z_loc_coh, Z_loc_ell, sample_point, verify_main
from .partitions import Configuration, PlanePartition, enumerate_configurations
from .series import QPSeries, QSeries
from .vertex import build_fixed_point, vertex, virtual_tangent

__all__ = [
    "Character",
    "CohPoint",
    "Configuration",
    "EvalPoint",
    "PlanePartition",
    "QPSeries",
    "QSeries",
    "Z_loc_K",
    "Z_loc_coh",
    "Z_loc_ell",
    "bracket_eval",
    "build_fixed_point",
    "closed_Z_K",
    "closed_Z_coh",
    "enumerate_configurations",
    "euler_eval",
    "exponents",
    "factorized_Z",
    "monomial",
    "sample_point",
    "theta_eval",
    "verify_main",
    "vertex",
    "virtual_tangent",
]
