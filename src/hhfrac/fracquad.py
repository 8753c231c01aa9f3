"""Riemann-Liouville fractional integrals in one and two variables.

The one-sided operator of order ``alpha > 0`` weights the function by the
kernel ``|x - t|^(alpha - 1) / Gamma(alpha)``; the four two-variable corner
operators are tensor products of one-sided operators on each axis.  The
weakly singular kernel is removed exactly by the substitution behind
:func:`hhfrac.quadrature.power_weighted_rule`:

    int_a^x (x - t)^(alpha-1) f(t) dt  =  (x - a)^alpha *
        int_0^1 s^(alpha-1) f(x - (x - a) s) ds

after which standard Gauss-Legendre converges spectrally for smooth ``f``.
Every graded point, here and in :mod:`hhfrac.certify`, comes from
:func:`_graded_points`, which forms it from its nearer end of the interval.
Every public value is the finer of two adjacent refinement levels from
:func:`hhfrac.quadrature.two_level`: ``n/2`` and ``n`` nodes per axis when
they agree to round-off, else ``n`` and ``2n``.  Their disagreement plus the
round-off floor of the finer level's summed terms is the reported error
estimate.

The graded nodes move with the order, so each order resamples ``f``.  The
theorem quantities in :mod:`hhfrac.certify` do not call these integrals: they
use the product rule of :func:`hhfrac.quadrature.product_weights` (product
integration: Atkinson, *The Numerical Solution of Integral Equations of the
Second Kind*, 1997, sec. 4.2; Sloan & Smith, Numer. Math. 34 (1980)
387-401) on the fixed tensor Gauss-Legendre grid of the rectangle
(:func:`gauss_grid_samples`), and fall back to the same graded nodes folded
onto both ends of each axis.  ``nodes_per_axis`` sets ``n`` for every rule,
and is capped at :data:`MAX_NODES_PER_AXIS`; the finest level ever sampled
is ``2n``.  Here, in :mod:`hhfrac.certify` and in :mod:`hhfrac.hweights`,
every value of f or its mixed partial on points comes from :func:`_sample_2d`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .quadrature import gauss_legendre_01, power_weighted_rule, two_level
from .special import gamma

__all__ = [
    "Side",
    "Corner",
    "Interval",
    "Rectangle",
    "FracOrder",
    "QuadratureSpec",
    "frac_integral_1d",
    "frac_integral_1d_with_estimate",
    "frac_integral_2d",
    "frac_integral_2d_with_estimate",
    "gauss_grid_samples",
    "MAX_NODES_PER_AXIS",
]


class Side(enum.Enum):
    """Side of a one-variable fractional integral."""

    LEFT = "left"  # anchored at the lower endpoint, evaluated to its right
    RIGHT = "right"  # anchored at the upper endpoint, evaluated to its left


class Corner(enum.Enum):
    """Anchor corner of a two-variable fractional integral."""

    LOWER_LOWER = "a+c+"
    LOWER_UPPER = "a+d-"
    UPPER_LOWER = "b-c+"
    UPPER_UPPER = "b-d-"

    @property
    def x_side(self) -> Side:
        return Side.LEFT if self in (Corner.LOWER_LOWER, Corner.LOWER_UPPER) else Side.RIGHT

    @property
    def y_side(self) -> Side:
        return Side.LEFT if self in (Corner.LOWER_LOWER, Corner.UPPER_LOWER) else Side.RIGHT


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class Rectangle:
    """The domain [a, b] x [c, d]."""

    x: Interval
    y: Interval

    @classmethod
    def from_bounds(cls, a: float, b: float, c: float, d: float) -> "Rectangle":
        return cls(Interval(a, b), Interval(c, d))

    @property
    def a(self) -> float:
        return self.x.lo

    @property
    def b(self) -> float:
        return self.x.hi

    @property
    def c(self) -> float:
        return self.y.lo

    @property
    def d(self) -> float:
        return self.y.hi

    @property
    def midpoint(self) -> tuple[float, float]:
        return (0.5 * (self.a + self.b), 0.5 * (self.c + self.d))

    def corners(self) -> tuple[tuple[float, float], ...]:
        """Corner points in the fixed order (a,c), (a,d), (b,c), (b,d)."""
        return ((self.a, self.c), (self.a, self.d), (self.b, self.c), (self.b, self.d))

    def require_nonneg_origin(self) -> None:
        """The inequality theorems assume 0 <= a and 0 <= c."""
        if self.a < 0.0 or self.c < 0.0:
            raise DomainError(
                f"theorem evaluation requires 0 <= a and 0 <= c, got a={self.a}, c={self.c}"
            )


@dataclass(frozen=True)
class FracOrder:
    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"fractional order {name} must be positive, got {v}")


#: Largest ``nodes_per_axis``.  The finest level samples a (2n)^2 grid (32 MiB
#: of float64 at the cap, before the evaluator's temporaries), or (4n)^2 for
#: the graded rule folded onto both ends of each axis, and the rounding of the
#: product weights for orders below one grows with ``n``.
MAX_NODES_PER_AXIS = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    nodes_per_axis: int = 64
    target_rel_tol: float = 1e-9

    def __post_init__(self):
        if not 2 <= self.nodes_per_axis <= MAX_NODES_PER_AXIS:
            raise DomainError(f"nodes_per_axis must lie in [2, {MAX_NODES_PER_AXIS}], "
                              f"got {self.nodes_per_axis}")
        if not self.target_rel_tol > 0.0:
            raise DomainError(f"target_rel_tol must be positive, got {self.target_rel_tol}")
        if self.target_rel_tol == math.inf:
            raise DomainError("target_rel_tol must be finite, got inf")


_DEFAULT_SPEC = QuadratureSpec()


#: Points per call of f in :func:`_sample_2d`, as each node of an expression
#: holds a temporary of a block's size.  At least ``hweights._BLOCK_BYTES // 8``,
#: the certifier's largest table, so each table is one call by default.
_BLOCK_POINTS = 1 << 15


def _sample_2d(f: Callable, xs: np.ndarray, ys: np.ndarray,
               what: str = "function value") -> np.ndarray:
    """f (a ``BivariateFunction`` or plain callable) on the grid xs x ys, in
    blocks of whole rows: the one place where f, its mixed partial or a
    one-variable integrand (on ys = [0]) meets points.  A result that
    broadcasts to a block (f of one variable gives (k, 1) or (1, n)) is
    expanded, so sums run in the same order as for any f; a callable that
    rejects arrays is called per point.  A value that is not finite raises
    :class:`EvaluationError` naming ``what`` and the point."""
    rows = max(1, _BLOCK_POINTS // ys.size)
    vals = None if rows >= xs.size else np.empty((xs.size, ys.size))
    for i in range(0, xs.size, rows):
        x = xs[i:i + rows]
        try:
            block = np.asarray(f(x[:, None], ys[None, :]), dtype=float)
            if block.shape != (x.size, ys.size):
                if block.ndim not in (0, 2):
                    raise ValueError
                block = np.broadcast_to(block, (x.size, ys.size)).copy()
        except (TypeError, ValueError):
            block = np.array([[float(f(float(p), float(q))) for q in ys] for p in x])
        if vals is None:
            vals = block
        else:
            vals[i:i + rows] = block
    # v.v is cheap, and overflows for finite values only beyond |f| ~ 1e154
    if not math.isfinite(np.vdot(vals, vals)) and not np.isfinite(vals).all():
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise EvaluationError(f"{what} not finite at (x={float(xs[i])!r}, y={float(ys[j])!r})")
    return vals


def _gauss_nodes(rect: Rectangle, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes of ``rect`` on each axis, so f and
    its mixed partial are sampled on the same points."""
    xi = gauss_legendre_01(n)[0]
    return rect.a + rect.x.width * xi, rect.c + rect.y.width * xi


def gauss_grid_samples(f, rect: Rectangle, n: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``f`` on the tensor n-point Gauss-Legendre grid of ``rect``.

    Returns ``(F, edges_x, edges_y)``: ``F[i, l] = f(x_i, y_l)``,
    ``edges_x`` the (2, n) sections ``f(a, y_l)``, ``f(b, y_l)`` and
    ``edges_y`` the (n, 2) sections ``f(x_i, c)``, ``f(x_i, d)``, with
    ``x_i = a + (b - a) xi_i`` and ``y_l = c + (d - c) xi_l``.
    """
    xs, ys = _gauss_nodes(rect, n)
    return (_sample_2d(f, xs, ys),
            _sample_2d(f, np.array([rect.a, rect.b]), ys),
            _sample_2d(f, xs, np.array([rect.c, rect.d])))


def _form(wx: np.ndarray, g: np.ndarray, wy: np.ndarray, scale: float) -> tuple[float, float]:
    """``scale * wx^T g wy`` and the summed magnitude ``scale * |wx|^T |g| |wy|``
    of its terms: the value and magnitude of every two-variable rule on samples."""
    return scale * float(wx @ g @ wy), scale * float(np.abs(wx) @ np.abs(g) @ np.abs(wy))


def _graded_points(order: float, near: float, far: float,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """Points ``near + (far - near) u`` and weights ``w`` of
    ``power_weighted_rule(order, n)``, the kernel at ``near``: the one place
    where graded points are formed.  A point with ``u > 1/2`` is formed from
    the far end, as ``far - (far - near) c``, so it keeps its distance to
    ``far`` where ``u`` itself has rounded to 1."""
    u, c, w = power_weighted_rule(order, n)
    step = far - near
    return np.where(u <= 0.5, near + step * u, far - step * c), w


def _axis_samples(order: float, side: Side, interval: Interval, at: float,
                  n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Sample points, weights and the kernel scale for one axis.

    Returns ``(points, weights, scale)`` with the axis contribution equal to
    ``scale * sum(weights * f(points))`` and ``scale = span^order / Gamma(order)``.
    """
    far = interval.lo if side is Side.LEFT else interval.hi
    pts, w = _graded_points(order, at, far, n)
    return pts, w, abs(far - at)**order / gamma(order)


def _check_at_1d(side: Side, interval: Interval, at: float) -> None:
    if side is Side.LEFT:
        if not (interval.lo < at <= interval.hi):
            raise DomainError(
                f"left-sided integral needs at in ({interval.lo}, {interval.hi}], got {at}"
            )
    else:
        if not (interval.lo <= at < interval.hi):
            raise DomainError(
                f"right-sided integral needs at in [{interval.lo}, {interval.hi}), got {at}"
            )


def frac_integral_1d_with_estimate(
    f: Callable[[float], float],
    order: float,
    side: Side,
    interval: Interval,
    at: float,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> tuple[float, float]:
    """One-sided fractional integral of ``f`` with its error estimate."""
    if not (math.isfinite(order) and order > 0.0):
        raise DomainError(f"order must be positive, got {order}")
    _check_at_1d(side, interval, at)

    def level(n):
        pts, w, scale = _axis_samples(order, side, interval, at, n)
        vals = _sample_2d(lambda x, _: f(x), pts, np.zeros(1))[:, 0]
        # The magnitude needs no |w|: the rule weights are >= 0.
        return scale * float(np.dot(w, vals)), scale * float(np.dot(w, np.abs(vals)))
    return two_level(level, spec, "1d fractional integral")


def frac_integral_1d(
    f: Callable[[float], float],
    order: float,
    side: Side,
    interval: Interval,
    at: float,
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> float:
    value, _ = frac_integral_1d_with_estimate(f, order, side, interval, at, spec)
    return value


def _check_at_2d(corner: Corner, rect: Rectangle, at: tuple[float, float]) -> None:
    x, y = at
    _check_at_1d(corner.x_side, rect.x, x)
    _check_at_1d(corner.y_side, rect.y, y)


def frac_integral_2d_with_estimate(
    f,
    order: FracOrder,
    corner: Corner,
    rect: Rectangle,
    at: tuple[float, float],
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> tuple[float, float]:
    """Two-variable corner fractional integral of ``f`` with error estimate.

    The kernel is separable, so the rule is the tensor product of the
    one-axis substitutions; ``f`` is sampled on the resulting grid.
    """
    _check_at_2d(corner, rect, at)

    def level(n):
        xs, wx, sx = _axis_samples(order.alpha, corner.x_side, rect.x, at[0], n)
        ys, wy, sy = _axis_samples(order.beta, corner.y_side, rect.y, at[1], n)
        return _form(wx, _sample_2d(f, xs, ys), wy, sx * sy)
    return two_level(level, spec, "2d fractional integral")


def frac_integral_2d(
    f,
    order: FracOrder,
    corner: Corner,
    rect: Rectangle,
    at: tuple[float, float],
    spec: QuadratureSpec = _DEFAULT_SPEC,
) -> float:
    value, _ = frac_integral_2d_with_estimate(f, order, corner, rect, at, spec)
    return value
