"""Closed-polynomial decomposition over the rationals.

Decide whether a multivariate polynomial is closed (non-composite),
compute its generative polynomial h and the outer univariate F with
f = F(h), and exercise the companion machinery: Newton-polytope pruning,
Jacobian dependence certificates, shifted factorization families f + mu,
the Stein-Lorenzini-Najib inequality checker, and monomial-monoid
saturation.
"""

__version__ = "0.1.0"

from .decompose import DecompositionResult, attempt_divisor, generative, is_closed
from .depend import alg_dependent, apply_derivation, jacobian_minors
from .family import (
    DecompositionData,
    FamilyFactorization,
    ShiftEntry,
    exceptional_image,
    factor_shift,
    rational_roots,
    stein_check,
)
from .monoid import MonoidGens, cone_member, is_saturated, saturation_generators
from .newton import (
    NewtonSummary,
    divisor_sequence,
    multiplicity,
    newton_summary,
    realizing_weights,
    v0_set,
)
from .orders import OrderSpec, compare, leading_term, monomials_below, normalize
from .parsing import ParseError, parse_poly, render_poly
from .poly import MultiPoly, NormalizedForm, PolyError, UniPoly, compose_uni

__all__ = [
    "DecompositionData",
    "DecompositionResult",
    "FamilyFactorization",
    "MonoidGens",
    "MultiPoly",
    "NewtonSummary",
    "NormalizedForm",
    "OrderSpec",
    "ParseError",
    "PolyError",
    "ShiftEntry",
    "UniPoly",
    "alg_dependent",
    "apply_derivation",
    "attempt_divisor",
    "compare",
    "compose_uni",
    "cone_member",
    "divisor_sequence",
    "exceptional_image",
    "factor_shift",
    "generative",
    "is_closed",
    "is_saturated",
    "jacobian_minors",
    "leading_term",
    "monomials_below",
    "multiplicity",
    "newton_summary",
    "normalize",
    "parse_poly",
    "rational_roots",
    "realizing_weights",
    "render_poly",
    "saturation_generators",
    "stein_check",
    "v0_set",
]
