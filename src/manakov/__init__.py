"""Exact verification of classical and quantum integrable sets for
rotation-invariant one-particle systems and the free n-dimensional rigid
body, over arbitrary-precision rational arithmetic."""

from .ratfunc import MultiPoly, RationalFunction, rational
from .radical import RadicalElement
from .linalg import ExactMatrix, exact_rank
from .son import (
    MomentSpec,
    SkewMatrix,
    ad_kernel_dim,
    basis_element,
    bracket,
    casimir_set,
    cayley_orthogonal,
    right_from_left,
    sigma_triple,
)
from .brackets import LiePoissonPoly, PhasePoly, canonical_bracket, lie_poisson_bracket
from .charts import CotangentChart, GroupChart, involution_report, jacobian_rank
from .report import VERSION, VerificationReport
from .weyl import WeylOperator, commutator, compose, symmetrize
from .uea import PBWElement, uea_commutator

__version__ = VERSION

__all__ = [
    "MultiPoly",
    "RationalFunction",
    "rational",
    "RadicalElement",
    "ExactMatrix",
    "exact_rank",
    "MomentSpec",
    "SkewMatrix",
    "ad_kernel_dim",
    "basis_element",
    "bracket",
    "casimir_set",
    "cayley_orthogonal",
    "right_from_left",
    "sigma_triple",
    "LiePoissonPoly",
    "PhasePoly",
    "canonical_bracket",
    "lie_poisson_bracket",
    "CotangentChart",
    "GroupChart",
    "involution_report",
    "jacobian_rank",
    "VERSION",
    "VerificationReport",
    "WeylOperator",
    "commutator",
    "compose",
    "symmetrize",
    "PBWElement",
    "uea_commutator",
    "__version__",
]
