"""Evaluate both sides of the Hadamard-type chains, the trapezoid and
Hölder bounds, and the two-sided identity they all rest on.

Shorthand used throughout (rectangle [a, b] x [c, d], orders alpha, beta):

* the middle term: the four corner fractional integrals summed and scaled by
  Gamma(alpha+1) Gamma(beta+1) / (4 (b-a)^alpha (d-c)^beta).
* A: the correction built from eight one-variable fractional integrals of
  the boundary sections f(a, .), f(b, .), f(., c), f(., d).
* h-moments: every weight integral the theorems use is one moment,
  M(h, g) = int_0^1 t^(g-1) (h(t) + h(1-t)) dt, at a shifted order:
      K1(h, g) = int_0^1 (t^g + (1-t)^g) h(t) dt = M(h, g + 1),
      U(h)     = int_0^1 h(t) dt                 = M(h, 1) / 2,
  because int (1-t)^g h(t) dt = int t^g h(1-t) dt; for the same reason the
  mirrored forms with h(1-t) in place of h(t) equal the plain ones.
  ``h_moment_m`` evaluates M in closed form for every weight family, with a
  round-off bound as its error; the corollary functions are its power-family
  cases.

The middle term, A and the lemma1 kernel integral are first computed by
product integration (Atkinson 1997, sec. 4.2; Sloan & Smith 1980; see
:func:`hhfrac.quadrature.product_weights`) from samples
on the tensor Gauss-Legendre grid of the rectangle, x = a + (b-a) xi,
y = c + (d-c) eta:

* middle = alpha beta * w_e(alpha)^T F w_e(beta), because the four corner
  kernels sum to (xi^(alpha-1) + (1-xi)^(alpha-1)) (eta^(beta-1) + ...);
* A = (beta/2) w_e(beta)^T (f(a, .) + f(b, .))
      + (alpha/2) w_e(alpha)^T (f(., c) + f(., d));
* rhs = (b-a)(d-c) * w_o(alpha+1)^T D w_o(beta+1), D the mixed partial,
  because (t^alpha - (1-t)^alpha) is antisymmetric about t = 1/2;

with w_e / w_o the even / odd-parity weights.  The samples depend only on
(f, rectangle, level) and are cached on the function, so every corner, both
terms, both identity sides and every sweep row share them; only the weights
depend on the orders.  Each grid also keeps the alpha halves w_x^T F (and
w_x^T D) of its last form, so a row with the previous row's alpha costs O(n)
per grid instead of O(n^2), with the same bits.
:func:`hhfrac.quadrature.two_level` computes each quantity at n/2 and n
nodes per axis and stops when they agree to round-off; otherwise it adds
2n and decides on the pair (n, 2n).  When that pair differs by more than
``target_rel_tol * max(1, |value|)`` (an endpoint singularity of f, such as
x^0.5, converges only algebraically), that quantity falls back to one graded
rule: the power-weighted rule folded onto both ends of each axis
(:func:`_folded_rule`), which integrates the same folded kernel, with its own
``two_level``.  Every estimate is the gap of the accepted pair plus the
round-off floor of ``|w|^T |F| |w|`` at its finer level; a product-rule
``|w|`` includes the weights' own rounding bound.

Every report carries a propagated quadrature-error estimate, and pass/fail
is decided against ``tol = max(abs_tol, 10 * quadrature_error)``: the
inequalities are exact in the limit, tolerance exists only for numerics.
Every sample of f and d^2f/dxdy comes from :func:`hhfrac.fracquad._sample_2d`,
which raises on a value that is not finite, so no tolerance can be infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergentMomentError, DomainError
from .fracquad import (
    FracOrder,
    Interval,
    QuadratureSpec,
    Rectangle,
    _sample_2d,
    gauss_grid_samples,
)
from .funcspace import BivariateFunction, mixed_partial
from .hweights import HFamily, HWeight, h_eval, table_pieces
from .quadrature import (
    gauss_legendre_01,
    power_weighted_rule,
    product_weights,
    two_level,
)
from .special import beta as beta_fn
from .special import beta_rel_error

__all__ = [
    "ChainReport",
    "BoundReport",
    "LemmaReport",
    "HolderExponents",
    "DEFAULT_ABS_TOL",
    "MOMENT_WEIGHT_NOTE",
    "KINK_NOTE",
    "middle_fractional_term_with_estimate",
    "a_term_with_estimate",
    "h_moment_m",
    "corollary_moment_c1",
    "corollary_moment_c2",
    "corollary_moment_c3",
    "theorem1_chain",
    "theorem4_chain",
    "theorem5_bound",
    "theorem6_bound",
    "lemma1_residual",
]

DEFAULT_ABS_TOL = 1e-8

#: The upper chain member is integrated against t^(alpha-1) k^(beta-1); the
#: orders are paired with their own axes, matching the Beta-moment closed
#: forms for power weights.
MOMENT_WEIGHT_NOTE = "moment weights pair each axis with its own order: t^(alpha-1) k^(beta-1)"

#: Attached when f contains abs(): the mixed partial is unreliable near the
#: kink, so derivative-based bounds are reported, not asserted.
KINK_NOTE = "f has a kink (abs); mixed-partial values near it are unreliable"

_DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class ChainReport:
    """Computed members of a three-part inequality chain.

    ``passed`` holds exactly when both gaps are >= -tol with
    ``tol = max(abs_tol, 10 * quadrature_error)``.
    """

    left: float
    middle: float
    right: float
    gap_lm: float
    gap_mr: float
    passed: bool
    quadrature_error: float
    tol: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundReport:
    """An absolute-value bound |lhs| <= rhs with its slack."""

    lhs_abs: float
    rhs: float
    slack: float
    a_term: float
    passed: bool
    quadrature_error: float
    tol: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class LemmaReport:
    """Both sides of the two-sided identity and their residual."""

    lhs: float
    rhs: float
    residual: float
    quadrature_error: float
    passed: bool


@dataclass(frozen=True)
class HolderExponents:
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(f"need p, q > 1, got p={self.p}, q={self.q}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise DomainError(
                f"1/p + 1/q must equal 1 (got {1.0 / self.p + 1.0 / self.q})"
            )

    @classmethod
    def from_p(cls, p: float) -> "HolderExponents":
        if not p > 1.0:
            raise DomainError(f"need p > 1, got {p}")
        return cls(p=float(p), q=p / (p - 1.0))


def _as_bivariate(f) -> BivariateFunction:
    if isinstance(f, BivariateFunction):
        return f
    return BivariateFunction(evaluator=f)


def _corner_values(fv: BivariateFunction, rect: Rectangle) -> tuple[tuple[float, ...], float]:
    """f at the corners (``rect.corners()`` order) and the midpoint, in one call."""
    def build():
        mx, my = rect.midpoint
        v = _sample_2d(fv, np.array([rect.a, mx, rect.b]), np.array([rect.c, my, rect.d])).tolist()
        return (v[0][0], v[0][2], v[2][0], v[2][2]), v[1][1]
    return fv.cached(("corners", rect), build)


def _d2f_samples(fv: BivariateFunction, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return _sample_2d(lambda x, y: mixed_partial(fv, x, y), xs, ys, "d^2f/dxdy value")


# ---------------------------------------------------------------------------
# product integration on one Gauss-Legendre grid
# ---------------------------------------------------------------------------

class _Grid:
    """Samples G on the n-point Gauss-Legendre grid of a rectangle, with the
    x halves of the last bilinear form over G.

    For x weights ``(omega_x, rho_x)`` the halves are ``omega_x^T G``,
    ``(|omega_x| + rho_x)^T |G|`` and ``|omega_x|^T |G|``.  They depend on G
    and on the x weights' ``(order, parity)`` only, so a row that repeats the
    last x order reuses them; ``|G|`` is formed only when they are missing.
    """

    def __init__(self, grid: np.ndarray, n: int):
        self.grid = grid
        self.n = n
        self._last = (None, None)  # (x, halves), replaced as one tuple

    def bilinear_form(self, x: tuple[float, int], y: tuple[float, int]) -> tuple[float, float]:
        """``w_x^T G w_y`` and its summed magnitude, with the weights' rounding.

        ``x`` and ``y`` are the ``(order, parity)`` of the ``product_weights``
        pairs ``(omega, rho)``.  The magnitude ``(|omega_x| + rho_x)^T |G|
        |omega_y| + |omega_x|^T |G| rho_y`` covers the rounding of the sum
        and, to first order, of both weight vectors.
        """
        key, half = self._last
        if key != x:
            ox, rx = product_weights(x[0], self.n, x[1])
            ag = np.abs(self.grid)
            ax = np.abs(ox)
            half = (ox @ self.grid, (ax + rx) @ ag, ax @ ag)
            self._last = (x, half)
        gx, mx, ax = half
        oy, ry = product_weights(y[0], self.n, y[1])
        return float(gx @ oy), float(mx @ np.abs(oy)) + float(ax @ ry)


def _f_grid(fv: BivariateFunction, rect: Rectangle, n: int):
    """``(_Grid of f, edges_x, edges_y)``, as :func:`gauss_grid_samples` gives."""
    def build():
        grid, edges_x, edges_y = gauss_grid_samples(fv, rect, n)
        return _Grid(grid, n), edges_x, edges_y
    return fv.cached(("f", rect, n), build)


def _d_grid(fv: BivariateFunction, rect: Rectangle, n: int) -> _Grid:
    """The mixed partial on the n-point Gauss-Legendre grid of ``rect``."""
    def build():
        xi = gauss_legendre_01(n)[0]
        return _Grid(_d2f_samples(fv, rect.a + rect.x.width * xi, rect.c + rect.y.width * xi), n)
    return fv.cached(("d2f", rect, n), build)


# ---------------------------------------------------------------------------
# the fractional building blocks
# ---------------------------------------------------------------------------

def _folded_rule(order: float, interval: Interval, n: int,
                 sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of ``int_0^1 t^(order-1) (g(hi - w t) + sign g(lo + w t)) dt``,
    w the width of ``interval``: the graded fallback of every folded kernel,
    ``(1-xi)^(order-1) + sign xi^(order-1)`` at ``xi = (x - lo) / w``.  The
    points are those of the one-sided integrals anchored at ``hi`` and ``lo``."""
    u, w = power_weighted_rule(order, n)
    return (np.concatenate((interval.hi - interval.width * u, interval.lo + interval.width * u)),
            np.concatenate((w, sign * w)))


def _folded_form(wx: np.ndarray, g: np.ndarray, wy: np.ndarray) -> tuple[float, float]:
    """``wx^T g wy`` and the summed magnitude ``|wx|^T |g| |wy|`` of its terms."""
    return float(wx @ g @ wy), float(np.abs(wx) @ np.abs(g) @ np.abs(wy))


def middle_fractional_term_with_estimate(
    f, order: FracOrder, rect: Rectangle, spec: QuadratureSpec = _DEFAULT_SPEC
) -> tuple[float, float]:
    """Scaled four-corner sum of two-variable fractional integrals.

    Each corner operator is anchored at one corner of the rectangle and
    evaluated at the opposite corner.
    """
    rect.require_nonneg_origin()
    fv = _as_bivariate(f)
    ab = order.alpha * order.beta

    def product(n):
        v, m = _f_grid(fv, rect, n)[0].bilinear_form((order.alpha, 0), (order.beta, 0))
        return ab * v, ab * m

    def graded(n):
        # The four corner integrals, each scaled by Gamma(order + 1) / span^order.
        xs, wx = _folded_rule(order.alpha, rect.x, n, 1.0)
        ys, wy = _folded_rule(order.beta, rect.y, n, 1.0)
        v, m = _folded_form(wx, _sample_2d(fv, xs, ys), wy)
        return 0.25 * ab * v, 0.25 * ab * m
    return two_level(product, spec, "product-rule middle term",
                     lambda: two_level(graded, spec, "middle term"))


def a_term_with_estimate(
    f, order: FracOrder, rect: Rectangle, spec: QuadratureSpec = _DEFAULT_SPEC
) -> tuple[float, float]:
    """The correction A from the eight boundary-section fractional integrals."""
    rect.require_nonneg_origin()
    fv = _as_bivariate(f)

    def product(n):
        _, edges_x, edges_y = _f_grid(fv, rect, n)
        value = magnitude = 0.0
        for g, sections in ((order.beta, edges_x), (order.alpha, edges_y.T)):
            omega, rho = product_weights(g, n, 0)
            value += 0.5 * g * float(omega @ (sections[0] + sections[1]))
            magnitude += 0.5 * g * float((np.abs(omega) + rho) @ np.abs(sections).sum(axis=0))
        return value, magnitude

    def graded(n):
        # The eight section integrals, each scaled by Gamma(order + 1) / span^order.
        xs, wx = _folded_rule(order.alpha, rect.x, n, 1.0)
        ys, wy = _folded_rule(order.beta, rect.y, n, 1.0)
        both = np.ones(2)
        vy, my = _folded_form(both, _sample_2d(fv, np.array([rect.a, rect.b]), ys), wy)
        vx, mx = _folded_form(wx, _sample_2d(fv, xs, np.array([rect.c, rect.d])), both)
        return (0.25 * (order.beta * vy + order.alpha * vx),
                0.25 * (order.beta * my + order.alpha * mx))
    return two_level(product, spec, "product-rule A term",
                     lambda: two_level(graded, spec, "A term"))


# ---------------------------------------------------------------------------
# h-moments in closed form
# ---------------------------------------------------------------------------

_EPS = 2.0**-52

#: Multiple of ``eps`` in the round-off bound of a table moment, relative to
#: the summed magnitude of its terms: each term carries the rounding of two
#: powers, their difference, the piece coefficients and one division, and the
#: terms are summed exactly.
_TABLE_EPS_MULTIPLE = 8.0


def _table_moment(h: HWeight, g: float) -> tuple[float, float]:
    """M(h, g) for a piecewise-linear h, exact per piece.

    On a piece h(t) = p + q t over [t0, t1]:
    int t^(g-1) (p + q t) dt = p (t1^g - t0^g)/g + q (t1^(g+1) - t0^(g+1))/(g+1),
    and h(1-t) is the piece (p+q) - q t over [1-t1, 1-t0].
    """
    terms = []
    magnitude = 0.0
    for t0, t1, p, q in table_pieces(h):
        for lo, hi, c0, c1 in ((t0, t1, p, q), (1.0 - t1, 1.0 - t0, p + q, -q)):
            lo_g, hi_g = lo**g, hi**g
            terms.append(c0 * (hi_g - lo_g) / g)
            terms.append(c1 * (hi * hi_g - lo * lo_g) / (g + 1.0))
            magnitude += ((abs(c0) + abs(c1)) * (hi_g + lo_g) / g
                          + abs(c1) * (hi * hi_g + lo * lo_g) / (g + 1.0))
    return math.fsum(terms), _TABLE_EPS_MULTIPLE * _EPS * magnitude


def h_moment_m(h: HWeight, order: float) -> tuple[float, float]:
    """M(h, g) = int_0^1 t^(g-1) (h(t) + h(1-t)) dt in closed form.

    Returns ``(value, error)``, where ``error`` bounds the round-off of the
    closed form.  Identity: 1/g; one: 2/g; power:s: corollary c1,
    1/(g+s) + B(g, s+1); table: exact per piece.
    """
    if not order > 0.0:
        raise DomainError(f"moment order must be positive, got {order}")
    if h.moments_diverge:
        raise DivergentMomentError(
            f"M(h, {order}) diverges for the {h.label} weight (1/t is not integrable at 0)"
        )
    g = float(order)
    if h.family is HFamily.IDENTITY:
        return 1.0 / g, _EPS / g
    if h.family is HFamily.CONSTANT_ONE:
        return 2.0 / g, 2.0 * _EPS / g
    if h.family is HFamily.POWER:
        lead = 1.0 / (g + h.s)
        b = beta_fn(g, h.s + 1.0)
        return lead + b, _EPS * (2.0 * lead + b) + beta_rel_error(g, h.s + 1.0) * b
    return _table_moment(h, g)


def corollary_moment_c1(order: float, s: float) -> float:
    """Closed form of M(power(s), order): 1/(order+s) + B(order, s+1)."""
    return h_moment_m(HWeight.power(s), order)[0]


def corollary_moment_c2(order: float, s: float) -> float:
    """Closed form of K1(power(s), order) = M(power(s), order + 1) (B is symmetric)."""
    if not order > 0.0:
        raise DomainError(f"order must be positive, got {order}")
    return corollary_moment_c1(order + 1.0, s)


def corollary_moment_c3(s: float) -> float:
    """Closed form of U(power(s))^2: 1/(s+1)^2."""
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s}")
    return 1.0 / (s + 1.0) ** 2


# ---------------------------------------------------------------------------
# chains and bounds
# ---------------------------------------------------------------------------

def theorem4_chain(
    f,
    h: HWeight,
    order: FracOrder,
    rect: Rectangle,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> ChainReport:
    """Hadamard chain for a coordinate h-convex f (caller-asserted).

    left   = f at the rectangle midpoint,
    middle = 4 h(1/2)^2 * (the middle term),
    right  = h(1/2)^2 * alpha * beta * (corner sum) * M(h, alpha) * M(h, beta).
    """
    rect.require_nonneg_origin()
    fv = _as_bivariate(f)
    corners, left = _corner_values(fv, rect)
    mft, e_mft = middle_fractional_term_with_estimate(fv, order, rect, spec)
    h2 = h_eval(h, 0.5) ** 2
    middle = 4.0 * h2 * mft
    m_alpha, e_ma = h_moment_m(h, order.alpha)
    m_beta, e_mb = h_moment_m(h, order.beta)
    corner_sum = sum(corners)
    ab = order.alpha * order.beta
    right = h2 * ab * corner_sum * m_alpha * m_beta
    qerr = (4.0 * h2 * e_mft
            + h2 * ab * abs(corner_sum)
            * (e_ma * abs(m_beta) + abs(m_alpha) * e_mb + e_ma * e_mb))
    tol = max(abs_tol, 10.0 * qerr)
    gap_lm = middle - left
    gap_mr = right - middle
    notes = [MOMENT_WEIGHT_NOTE]
    if fv.kinked:
        notes.append(KINK_NOTE)
    return ChainReport(
        left=left, middle=middle, right=right, gap_lm=gap_lm, gap_mr=gap_mr,
        passed=(gap_lm >= -tol and gap_mr >= -tol),
        quadrature_error=qerr, tol=tol, notes=tuple(notes),
    )


def theorem1_chain(
    f,
    order: FracOrder,
    rect: Rectangle,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> ChainReport:
    """Hadamard chain for a coordinate convex f: the identity-weight case.

    With h(t) = t the moments collapse (M = 1/order), the middle loses its
    4 h(1/2)^2 factor, and the right member becomes the plain corner average.
    """
    report = theorem4_chain(f, HWeight.identity(), order, rect, spec, abs_tol)
    return replace(report, notes=tuple(n for n in report.notes if n != MOMENT_WEIGHT_NOTE))


def _corner_derivatives(fv: BivariateFunction, rect: Rectangle) -> tuple[float, ...]:
    """|d^2 f / dx dy| at the corners, in ``rect.corners()`` order."""
    return fv.cached(("corner-d2f", rect), lambda: tuple(map(abs, _d2f_samples(
        fv, np.array([rect.a, rect.b], dtype=float), np.array([rect.c, rect.d], dtype=float)
    ).ravel().tolist())))


def _lhs_block_with_estimate(fv, order, rect, spec):
    corner_avg = sum(_corner_values(fv, rect)[0]) / 4.0
    mft, e1 = middle_fractional_term_with_estimate(fv, order, rect, spec)
    a_val, e2 = a_term_with_estimate(fv, order, rect, spec)
    return corner_avg + mft - a_val, a_val, e1 + e2


def _bound_report(fv, order, rect, spec, abs_tol, rhs, e_rhs) -> BoundReport:
    """|lhs| <= rhs decided against ``tol``; the caller computes the rhs
    first, so a weight or function it rejects samples nothing for the lhs."""
    lhs, a_val, e_lhs = _lhs_block_with_estimate(fv, order, rect, spec)
    qerr = e_lhs + e_rhs
    tol = max(abs_tol, 10.0 * qerr)
    slack = rhs - abs(lhs)
    return BoundReport(
        lhs_abs=abs(lhs), rhs=rhs, slack=slack, a_term=a_val, passed=(slack >= -tol),
        quadrature_error=qerr, tol=tol, notes=(KINK_NOTE,) if fv.kinked else (),
    )


def theorem5_bound(
    f,
    h: HWeight,
    order: FracOrder,
    rect: Rectangle,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> BoundReport:
    """Trapezoid-type bound for |d^2 f/dxdy| coordinate h-convex (asserted).

    rhs = (b-a)(d-c)/4 * K1(h, alpha) K1(h, beta) * (sum of |D| at the
    corners), K1(h, g) = M(h, g+1).  The kernel factorizes per axis, and the
    mirrored kernels of the b and d corners equal the plain ones (t -> 1-t).
    """
    rect.require_nonneg_origin()
    fv = _as_bivariate(f)
    k1a, e_k1a = h_moment_m(h, order.alpha + 1.0)
    k1b, e_k1b = h_moment_m(h, order.beta + 1.0)
    d_sum = sum(_corner_derivatives(fv, rect))
    scale = rect.x.width * rect.y.width / 4.0
    rhs = scale * k1a * k1b * d_sum
    e_rhs = scale * d_sum * (e_k1a * k1b + k1a * e_k1b + e_k1a * e_k1b)
    return _bound_report(fv, order, rect, spec, abs_tol, rhs, e_rhs)


def theorem6_bound(
    f,
    h: HWeight,
    order: FracOrder,
    rect: Rectangle,
    pq: HolderExponents,
    spec: QuadratureSpec = _DEFAULT_SPEC,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> BoundReport:
    """Hölder-type bound for |d^2 f/dxdy|^q coordinate h-convex (asserted).

    rhs = (b-a)(d-c) / ((alpha p + 1)(beta p + 1))^(1/p)
          * (U(h)^2 * sum over corners |D|^q)^(1/q),  U(h) = M(h, 1)/2.
    """
    rect.require_nonneg_origin()
    fv = _as_bivariate(f)
    m1, e_m1 = h_moment_m(h, 1.0)
    u, e_u = 0.5 * m1, 0.5 * e_m1
    p, q = pq.p, pq.q
    prefactor = (rect.x.width * rect.y.width
                 / ((order.alpha * p + 1.0) * (order.beta * p + 1.0)) ** (1.0 / p))
    d_q = sum(d**q for d in _corner_derivatives(fv, rect))
    s_sum = u * u * d_q
    e_sum = d_q * (2.0 * u * e_u + e_u * e_u)
    rhs = prefactor * s_sum ** (1.0 / q)
    e_rhs = 0.0
    if s_sum > 0.0:
        e_rhs = prefactor * (1.0 / q) * s_sum ** (1.0 / q - 1.0) * e_sum
    return _bound_report(fv, order, rect, spec, abs_tol, rhs, e_rhs)


# ---------------------------------------------------------------------------
# the two-sided identity
# ---------------------------------------------------------------------------

def _folded_derivative_integral(
    fv: BivariateFunction, order: FracOrder, rect: Rectangle, spec: QuadratureSpec,
) -> tuple[float, float]:
    """((b-a)(d-c)/4) * int int (t^a - (1-t)^a)(k^b - (1-k)^b) D(x(t), y(k)),
    x(t) = t a + (1-t) b and y(k) = k c + (1-k) d.

    The product rule on the cached Gauss-Legendre grid of D is tried first.
    The fallback folds each kernel onto t^alpha (k^beta), since
    int_0^1 (t^a - (1-t)^a) g(t) dt = int_0^1 t^a (g(t) - g(1-t)) dt.
    """
    def product(n):
        area = rect.x.width * rect.y.width
        v, m = _d_grid(fv, rect, n).bilinear_form((order.alpha + 1.0, 1), (order.beta + 1.0, 1))
        return area * v, area * m

    def graded(n):
        xs, wx = _folded_rule(order.alpha + 1.0, rect.x, n, -1.0)
        ys, wy = _folded_rule(order.beta + 1.0, rect.y, n, -1.0)
        v, m = _folded_form(wx, _d2f_samples(fv, xs, ys), wy)
        scale = 0.25 * rect.x.width * rect.y.width
        return scale * v, scale * m
    return two_level(product, spec, "product-rule derivative-kernel integral",
                     lambda: two_level(graded, spec, "derivative-kernel integral"))


def lemma1_residual(
    f,
    order: FracOrder,
    rect: Rectangle,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> LemmaReport:
    """Verify the two-sided identity behind the derivative bounds.

    lhs = corner average + middle term - A; rhs is the double
    integral of the product kernel (t^alpha - (1-t)^alpha)(k^beta - (1-k)^beta)
    against the mixed partial along the affine parametrization of the
    rectangle.  The report passes when |lhs - rhs| <= 10 * quadrature_error.
    """
    rect.require_nonneg_origin()
    fv = _as_bivariate(f)
    rhs, e_rhs = _folded_derivative_integral(fv, order, rect, spec)
    lhs, _, e_lhs = _lhs_block_with_estimate(fv, order, rect, spec)
    residual = abs(lhs - rhs)
    qerr = e_lhs + e_rhs
    return LemmaReport(
        lhs=lhs, rhs=rhs, residual=residual, quadrature_error=qerr,
        passed=(residual <= 10.0 * qerr),
    )
