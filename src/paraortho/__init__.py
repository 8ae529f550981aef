"""Paraorthogonal polynomials on the unit circle.

Evaluate orthonormal and paraorthogonal polynomials from coefficient
sequences or measures, locate their circle zeros, and verify interlacing
and explicit zero-free-disk statements numerically.
"""

from .coeffs import (
    ConstantSequence,
    DecayingSequence,
    ExplicitSequence,
    MeasureSpec,
    MomentTable,
    RandomSequence,
    VerblunskySequence,
    arc_measure,
    bernstein_szego_measure,
    lebesgue_measure,
    moments_table,
    sequence_from_measure,
    unit_circle_point,
    verblunsky_from_moments,
)
from .para import ParaPolynomial, beta_coefficient, para_eval
from .szego import cd_kernel, eval_pair, eval_second_kind, mixed_kernel, monic_norm
from .theorems import (
    SupportModel,
    TheoremContext,
    TheoremReport,
    audit_lemma_bounds,
    check_consecutive_interlacing,
    check_gap_theorem,
    check_interlacing_first_second,
    check_second_kind_exclusion,
    check_theorem1,
    check_theorem3,
    dist_to_support,
    estimate_support,
    support_model,
)
from .zeros import ZeroSet, find_zeros, interlace, oracle_zeros

__version__ = "0.1.0"

__all__ = [
    "ConstantSequence",
    "DecayingSequence",
    "ExplicitSequence",
    "MeasureSpec",
    "MomentTable",
    "ParaPolynomial",
    "RandomSequence",
    "SupportModel",
    "TheoremContext",
    "TheoremReport",
    "VerblunskySequence",
    "ZeroSet",
    "arc_measure",
    "audit_lemma_bounds",
    "bernstein_szego_measure",
    "beta_coefficient",
    "cd_kernel",
    "check_consecutive_interlacing",
    "check_gap_theorem",
    "check_interlacing_first_second",
    "check_second_kind_exclusion",
    "check_theorem1",
    "check_theorem3",
    "dist_to_support",
    "estimate_support",
    "eval_pair",
    "eval_second_kind",
    "find_zeros",
    "interlace",
    "lebesgue_measure",
    "mixed_kernel",
    "moments_table",
    "monic_norm",
    "oracle_zeros",
    "para_eval",
    "sequence_from_measure",
    "support_model",
    "unit_circle_point",
    "verblunsky_from_moments",
]
