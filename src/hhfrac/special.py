"""Gamma and Beta functions in double precision, positive arguments only.

The fractional-integral normalizations and the Beta-moment closed forms only
ever need Gamma on the positive axis, so no analytic continuation is
provided; negative or zero arguments raise.  The values come from the
standard library's ``math.gamma`` and ``math.lgamma``; this module adds the
domain and overflow checks and the Beta function with its round-off bound.
"""

from __future__ import annotations

import math

from .errors import DomainError, OverflowDomainError
from .quadrature import _EPS

__all__ = [
    "GAMMA_OVERFLOW_LIMIT",
    "gamma",
    "log_gamma",
    "beta",
    "beta_rel_error",
]

#: Largest x with Gamma(x) representable in float64.
GAMMA_OVERFLOW_LIMIT = 171.624376956302725


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} requires a positive finite argument, got {x}")
    return x


def gamma(x: float) -> float:
    """Gamma(x) for x > 0.

    Relative error is a few ulps across (0, 170]; arguments beyond the
    float64 factorial range raise :class:`OverflowDomainError`.
    """
    x = _check_positive("gamma", x)
    if x > GAMMA_OVERFLOW_LIMIT:
        raise OverflowDomainError(
            f"gamma({x}) overflows float64 (limit {GAMMA_OVERFLOW_LIMIT})"
        )
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log(Gamma(x)) for x > 0, valid far beyond the gamma overflow limit."""
    return math.lgamma(_check_positive("log_gamma", x))


def beta(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0.

    The Gamma ratio is used while Gamma(x + y) is representable and log space
    beyond, so large arguments cannot overflow.  The arguments are put in
    order first, so the result is bit-identical under swapping them.
    """
    x = _check_positive("beta", x)
    y = _check_positive("beta", y)
    if x > y:
        x, y = y, x
    if x + y < GAMMA_OVERFLOW_LIMIT:
        # Gamma(y) / Gamma(x + y) stays finite; the small argument's 1/x-like
        # growth is applied last.
        return math.gamma(x) * (math.gamma(y) / math.gamma(x + y))
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def beta_rel_error(x: float, y: float) -> float:
    """A bound on the relative round-off error of :func:`beta` at (x, y).

    ``z = x + y`` is rounded before Gamma or log-Gamma sees it, which costs
    up to ``|psi(z)| z eps/2 <= (z |log z| + 1) eps/2``: the leading
    ``z (|log z| + 1)`` term.  ``16`` covers the few ulps of each Gamma value
    and the products.  In log space each log-Gamma value is off by a few ulps
    of its own size, which the exponential turns into relative error.
    Checked against 40-digit mpmath on Beta(g, s + 1) for g in (0.05, 171)
    and on (0.05, 30)^2: the observed error stays below half of this bound.
    """
    x = _check_positive("beta", x)
    y = _check_positive("beta", y)
    z = x + y
    units = z * (abs(math.log(z)) + 1.0) + 16.0
    if z >= GAMMA_OVERFLOW_LIMIT:
        units += 8.0 * (abs(math.lgamma(x)) + abs(math.lgamma(y))
                        + abs(math.lgamma(z)))
    return units * _EPS
