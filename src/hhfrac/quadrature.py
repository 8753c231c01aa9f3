"""Shared quadrature engines.

Two rules cover every integral in the package:

* Gauss-Legendre on [0, 1] (cached nodes).
* Power-weighted rules for integrals of the form
  ``int_0^1 s^(order-1) g(s) ds`` with ``order > 0``.  The substitution
  ``s = v^p`` with ``p = ceil(max(order, 1)) / order`` turns the kernel into
  the polynomial ``v^(p*order - 1)``, so Gauss-Legendre in ``v`` converges
  spectrally for smooth ``g`` even when the kernel is weakly singular
  (``order < 1``) or has a fractional-power kink (non-integer ``order > 1``).

The h-moment integrals need no rule: every weight family has a closed form
(see :mod:`hhfrac.certify`).

Error estimates are two-level refinement disagreements plus a round-off
floor, so a reported estimate is never smaller than what double precision can
resolve.  The floor scales with the summed magnitude ``sum |w_i f(u_i)|`` of
the rule's terms rather than with the result: when the terms cancel, the
rounding in each term (and in the graded nodes ``u = v^p`` and weights they
were built from) survives the cancellation, so a floor proportional to
``|result|`` alone would fall below the noise between converged levels.  This
is the standard dot-product bound (Higham, *Accuracy and Stability of
Numerical Algorithms*, sec. 3.1).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureNonConvergenceError

_EPS = float(np.finfo(np.float64).eps)

#: Disagreement beyond ``NONCONVERGENCE_FACTOR * target_rel_tol`` (relative to
#: the finer value, with an absolute floor of one) raises.
NONCONVERGENCE_FACTOR = 100.0


#: Multiple of ``eps`` in the round-off floor.  Converged refinement levels
#: of the graded rules differ by up to about 37 eps times the summed term
#: magnitude, mostly from rounding in the graded nodes and weights.  With 32
#: the floor is comparable to that noise, so the estimate (noise plus floor)
#: covers the true error and stays steady as the node count grows; 8 is too
#: small for that.  It remains far below every verdict tolerance.
_FLOOR_EPS_MULTIPLE = 32.0


def error_floor(magnitude: float) -> float:
    """Smallest honest error estimate for a sum whose terms total ``magnitude``.

    ``magnitude`` is ``scale * sum |w_i| |f(u_i)|`` for a rule
    ``scale * sum w_i f(u_i)``: rounding errors in the terms are bounded
    relative to it, not to the (possibly cancelled) result.  The ``1 +``
    keeps the floor positive when every term vanishes.
    """
    return _FLOOR_EPS_MULTIPLE * _EPS * (1.0 + abs(magnitude))


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    x, w = np.polynomial.legendre.leggauss(int(n))
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def grading_exponent(order: float) -> float:
    """Minimal substitution exponent ``p`` with ``p * order`` a positive integer.

    For ``order <= 1`` this is ``1/order`` (the weight becomes constant);
    for larger orders the milder ``ceil(order)/order`` keeps the composed
    integrand smooth while the weight stays polynomial.
    """
    if order <= 0.0:
        raise ValueError(f"order must be positive, got {order}")
    return math.ceil(max(order, 1.0)) / order


#: Extra integer factor on the kernel-end grading.  Besides turning the
#: weight into a polynomial, the boost absorbs algebraic kinks the function
#: itself may have at the kernel endpoint (e.g. t^s sections with s < 1):
#: the residual fractional power is raised high enough that Gauss-Legendre
#: reaches round-off at the default node counts.
_KERNEL_GRADING_BOOST = 4

#: Grading exponent toward the opposite endpoint, absorbing algebraic kinks
#: of the function at the far end of the integration interval.
_FAR_END_GRADING = 4


@lru_cache(maxsize=None)
def _simpson_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes/weights on [0, 1] with at least n+1 points."""
    m = max(2, 2 * ((n + 1) // 2))  # even number of cells
    v = np.linspace(0.0, 1.0, m + 1)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= 1.0 / (3.0 * m)
    v.setflags(write=False)
    w.setflags(write=False)
    return v, w


@lru_cache(maxsize=None)
def power_weighted_rule(
    order: float, n: int, scheme: str = "gauss"
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights (u, w) with ``sum w*g(u) ~ int_0^1 s^(order-1) g(s) ds``.

    The rule composes two gradings: ``v = 1 - (1 - r)^m`` clusters nodes at
    the far endpoint and ``u = v^p`` (with ``p * order`` an integer) removes
    the kernel singularity exactly.  ``scheme`` is ``"gauss"`` (Gauss-Legendre
    in the graded variable, the default) or ``"simpson"`` (composite Simpson
    on the same grading, kept as an independent cross-check path).  Every
    weight is non-negative, so ``sum w * |g(u)|`` is the summed term
    magnitude that :func:`error_floor` expects.
    """
    p = _KERNEL_GRADING_BOOST * grading_exponent(order)
    m = float(_FAR_END_GRADING)
    if scheme == "gauss":
        r, gw = gauss_legendre_01(n)
    elif scheme == "simpson":
        r, gw = _simpson_01(n)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    omr = 1.0 - r
    v = 1.0 - omr**m
    u = v**p
    # p * order - 1 >= 3 by construction, so the weight vanishes at v = 0.
    w = gw * m * omr ** (m - 1.0) * p * v ** (p * order - 1.0)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def check_two_level(coarse: float, fine: float, magnitude: float,
                    target_rel_tol: float, what: str) -> float:
    """Return the two-level error estimate, raising on gross disagreement.

    The estimate is the level disagreement plus :func:`error_floor` of
    ``magnitude``, the summed term magnitude of the finer level.
    """
    est = abs(coarse - fine) + error_floor(magnitude)
    scale = max(1.0, abs(fine))
    if abs(coarse - fine) > NONCONVERGENCE_FACTOR * target_rel_tol * scale:
        raise QuadratureNonConvergenceError(
            f"{what}: refinement levels disagree by {abs(coarse - fine):.3e} "
            f"(limit {NONCONVERGENCE_FACTOR * target_rel_tol * scale:.3e})"
        )
    return est
