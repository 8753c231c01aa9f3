"""Numerical Riemann-Liouville fractional integrals and certification of
Hadamard-type inequality chains for coordinate h-convex functions."""

from .certify import (
    BoundReport,
    ChainReport,
    HolderExponents,
    LemmaReport,
    corollary_moment_c1,
    corollary_moment_c2,
    corollary_moment_c3,
    h_moment_m,
    lemma1_residual,
    theorem1_chain,
    theorem4_chain,
    theorem5_bound,
    theorem6_bound,
)
from .errors import (
    DivergentMomentError,
    DomainError,
    EvaluationError,
    ExpressionError,
    ExpressionSyntaxError,
    HHFracError,
    OverflowDomainError,
    QuadratureNonConvergenceError,
    UnknownIdentifierError,
    UsageError,
)
from .fracquad import (
    Corner,
    FracOrder,
    Interval,
    QuadratureSpec,
    Rectangle,
    Side,
    frac_integral_1d,
    frac_integral_2d,
)
from .funcspace import (
    BivariateFunction,
    builtin_function,
    evaluate,
    format_expression,
    mixed_partial,
    parse_expression,
    parse_function_spec,
)
from .hweights import (
    ConvexityCertificate,
    HFamily,
    HWeight,
    check_coordinate_h_convex,
    h_eval,
    parse_hweight,
)
from .special import beta, gamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "BivariateFunction", "BoundReport", "ChainReport", "ConvexityCertificate",
    "Corner", "DivergentMomentError", "DomainError", "EvaluationError",
    "ExpressionError", "ExpressionSyntaxError", "FracOrder",
    "HFamily", "HHFracError", "HWeight", "HolderExponents", "Interval",
    "LemmaReport", "OverflowDomainError", "QuadratureNonConvergenceError",
    "QuadratureSpec", "Rectangle", "Side",
    "UnknownIdentifierError", "UsageError",
    "beta", "builtin_function",
    "check_coordinate_h_convex", "corollary_moment_c1", "corollary_moment_c2",
    "corollary_moment_c3", "evaluate", "format_expression",
    "frac_integral_1d", "frac_integral_2d", "gamma", "h_eval", "h_moment_m",
    "lemma1_residual", "log_gamma",
    "mixed_partial", "parse_expression",
    "parse_function_spec", "parse_hweight", "theorem1_chain", "theorem4_chain",
    "theorem5_bound", "theorem6_bound",
]
