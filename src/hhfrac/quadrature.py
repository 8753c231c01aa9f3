"""Shared quadrature engines.

Three rules cover every integral in the package:

* Gauss-Legendre on [0, 1] (cached nodes).
* Power-weighted rules for integrals of the form
  ``int_0^1 s^(order-1) g(s) ds`` with ``order > 0``.  The substitution
  ``s = v^p`` with ``p = ceil(max(order, 1)) / order`` turns the kernel into
  the polynomial ``v^(p*order - 1)``, so Gauss-Legendre in ``v`` converges
  spectrally for smooth ``g`` even when the kernel is weakly singular
  (``order < 1``) or has a fractional-power kink (non-integer ``order > 1``).
  The nodes move with the order, so ``g`` is sampled anew for every order.
* Product-integration weights (Atkinson, *The Numerical Solution of Integral
  Equations of the Second Kind*, 1997, sec. 4.2; Sloan & Smith, Numer. Math.
  34 (1980) 387-401) on the fixed Gauss-Legendre nodes ``xi_i``: ``g`` is
  replaced by its interpolant ``sum_j c_j P_j(2 xi - 1)`` (shifted Legendre
  polynomials), whose kernel moments are closed-form products,

      mu_j(s) = int_0^1 xi^(s-1) P_j(2 xi - 1) d xi
              = prod_{i=1..j} (s - i) / prod_{i=0..j} (s + i).

  Because ``P_j(1 - xi) = (-1)^j P_j(xi)``, the symmetric kernel
  ``xi^(s-1) + (1-xi)^(s-1)`` keeps only even ``j`` and the antisymmetric
  ``xi^(s-1) - (1-xi)^(s-1)`` only odd ``j``.  Only the weights depend on
  the order; samples of ``g`` on the nodes serve every order.

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
import threading
from functools import lru_cache, wraps

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


#: One process-wide lock under which every cache of the package is filled:
#: the rules here and the samples cached on a function.  Sweep rows run on
#: pool threads; under the lock each entry is built exactly once.  It is
#: re-entrant because building one entry may look up another.
CACHE_LOCK = threading.RLock()


def _shared_cache(fn):
    """``lru_cache`` whose lookups and builds hold :data:`CACHE_LOCK`."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def locked(*args, **kwargs):
        with CACHE_LOCK:
            return cached(*args, **kwargs)

    locked.cache_info = cached.cache_info
    locked.cache_clear = cached.cache_clear
    return locked


def error_floor(magnitude: float) -> float:
    """Smallest honest error estimate for a sum whose terms total ``magnitude``.

    ``magnitude`` is ``scale * sum |w_i| |f(u_i)|`` for a rule
    ``scale * sum w_i f(u_i)``: rounding errors in the terms are bounded
    relative to it, not to the (possibly cancelled) result.  The ``1 +``
    keeps the floor positive when every term vanishes.
    """
    return _FLOOR_EPS_MULTIPLE * _EPS * (1.0 + abs(magnitude))


@_shared_cache
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


@_shared_cache
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


@_shared_cache
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


#: Extended precision for the product weights (80-bit on x86; where
#: ``longdouble`` is double, the rounding bound ``rho`` grows to match).
_LD = np.longdouble
_LD_EPS_RATIO = float(np.finfo(_LD).eps / np.finfo(np.float64).eps)


def _legendre_ld(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for j in range(1, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1)


@_shared_cache
def _upper_roots_ld(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots ``x >= 0`` of ``P_n`` and their weights on [0, 1], in extended
    precision: one Newton step from the double nodes of
    :func:`gauss_legendre_01`, which are within a few ulp.  The product
    weights need the exact roots, because near an endpoint their kernel sums
    grow steeply and amplify a one-ulp node error far beyond eps."""
    xi, _ = gauss_legendre_01(n)
    x = 2 * xi[n // 2:].astype(_LD) - 1
    p, dp = _legendre_ld(x, n)
    x = x - p / dp
    _, dp = _legendre_ld(x, n)
    return x, 1 / ((1 - x * x) * dp * dp)


@_shared_cache
def product_weights(order: float, n: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-integration weights on the nodes of :func:`gauss_legendre_01`.

    Returns ``(omega, rho)`` with

        sum_i omega_i g(xi_i) ~ 1/2 int_0^1 (xi^(order-1) + (-1)^parity
                                             (1-xi)^(order-1)) g(xi) dxi,
        omega_i = w_i sum_{j < n, j = parity mod 2} (2j+1) mu_j(order) P_j(2 xi_i - 1),

    exact when ``g`` is a polynomial of degree below ``n``.  ``mu_j`` and
    ``P_j`` come from their recurrences in O(n) memory, in extended
    precision at the exact roots, on the upper half of the nodes (``P_j`` has
    the parity of ``j``); the loop stops once ``mu_j`` vanishes (integer
    orders).  ``rho_i = w_i sum_j (j+1) |(2j+1) mu_j P_j|``, scaled by the
    ratio of the working eps to double eps, bounds the rounding of
    ``omega_i`` in units of double eps: term ``j`` carries the rounding of
    the ``j`` factors of ``mu_j`` and the ``j`` recurrence steps of ``P_j``.
    For ``order < 1`` the terms cancel (their size grows like
    ``n^(2 - 2 order)``); callers add ``rho`` to the summed magnitude they
    hand to :func:`error_floor`.
    """
    x, w = _upper_roots_ld(n)
    s = _LD(order)
    mu = 1 / s
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    acc, mag = np.zeros_like(x), np.zeros_like(x)
    for j in range(n):
        if j:
            mu *= (s - j) / (s + j)
            if mu == 0:
                break
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        if j % 2 == parity:
            term = (2 * j + 1) * mu * p
            acc += term
            mag += (j + 1) * np.abs(term)
    half_omega = (w * acc).astype(np.float64)
    half_rho = (w * mag).astype(np.float64) * _LD_EPS_RATIO
    sign = -1.0 if parity else 1.0
    lower = slice(None, n // 2)
    omega = np.concatenate((sign * half_omega[::-1][lower], half_omega))
    rho = np.concatenate((half_rho[::-1][lower], half_rho))
    omega.setflags(write=False)
    rho.setflags(write=False)
    return omega, rho


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
