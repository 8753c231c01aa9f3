"""Reference values computed apart from hhfrac.

* Riemann-Liouville integrals of monomials t^m in closed form with
  ``math.gamma``: for the anchor at 0 (any m >= 0) and for integer m (a finite
  sum of positive terms, so no cancellation).
* Everything else one-dimensional (exp factors, non-polynomial sections) by
  scipy's ``quad(..., weight='alg')``, which integrates the algebraic kernel
  exactly; two-dimensional integrals of non-separable functions by nesting it.
* h-moments in closed form: Beta functions for the power family and exact
  piecewise integrals for table weights.
* Function values and exact mixed partials from sympy.

No hhfrac module is imported here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import sympy
from scipy.integrate import quad

from workloads import Fn, Op

_X, _Y = sympy.symbols("x y")


def _beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _g(g, t: float) -> float:
    kind, m = g
    return math.exp(t) if kind == "exp" else t**m


# ---------------------------------------------------------------------------
# fractional integrals
# ---------------------------------------------------------------------------

def _monomial(m: float, alpha: float, side: str, lo: float, hi: float, at: float):
    """J^alpha of t^m in closed form, or None when there is none here."""
    integer = m == int(m)
    if side == "left":
        span = at - lo
        if lo == 0.0:
            return span ** (alpha + m) * math.gamma(m + 1) / math.gamma(alpha + m + 1)
        if not integer:
            return None
        # t = lo + span*s: sum_j C(m,j) lo^(m-j) span^(j+alpha) j! / Gamma(j+1+alpha)
        return sum(math.comb(int(m), j) * lo ** (m - j) * span ** (j + alpha)
                   * math.factorial(j) / math.gamma(j + 1 + alpha) for j in range(int(m) + 1))
    span = hi - at
    if at == 0.0:
        return span ** (alpha + m) / (math.gamma(alpha) * (alpha + m))
    if not integer:
        return None
    # t = at + span*s: sum_j C(m,j) at^(m-j) span^(j+alpha) / (Gamma(alpha) (alpha+j))
    return sum(math.comb(int(m), j) * at ** (m - j) * span ** (j + alpha)
               / (math.gamma(alpha) * (alpha + j)) for j in range(int(m) + 1))


def _alg(f, alpha: float, side: str, lo: float, hi: float, at: float) -> float:
    if side == "left":
        v, _ = quad(f, lo, at, weight="alg", wvar=(0.0, alpha - 1.0),
                    epsabs=0.0, epsrel=1e-12, limit=200)
    else:
        v, _ = quad(f, at, hi, weight="alg", wvar=(alpha - 1.0, 0.0),
                    epsabs=0.0, epsrel=1e-12, limit=200)
    return v / math.gamma(alpha)


@lru_cache(maxsize=None)
def rl1d_terms(terms: tuple, alpha: float, side: str, lo: float, hi: float, at: float):
    """J^alpha (side) on [lo, hi] at ``at`` of sum c*g(t) over ``terms``."""
    total = 0.0
    rest = []
    for c, g in terms:
        v = _monomial(g[1], alpha, side, lo, hi, at) if g[0] == "pow" else None
        if v is None:
            rest.append((c, g))
        else:
            total += c * v
    if rest:
        total += _alg(lambda t: sum(c * _g(g, t) for c, g in rest), alpha, side, lo, hi, at)
    return total


def rl1d(f, alpha, side, lo, hi, at):
    """``f`` is a tuple of (c, g) terms or a scalar callable."""
    if callable(f):
        return _alg(f, alpha, side, lo, hi, at)
    return rl1d_terms(tuple(f), alpha, side, lo, hi, at)


def _sides(corner: str) -> tuple[str, str]:
    return ("left" if corner[0] == "a" else "right", "left" if corner[2] == "c" else "right")


def rl2d(fn: Fn, alpha, beta, corner, rect, at) -> float:
    a, b, c, d = rect
    xs, ys = _sides(corner)
    if fn.terms:
        return sum(k * rl1d(((1.0, gx),), alpha, xs, a, b, at[0])
                   * rl1d(((1.0, gy),), beta, ys, c, d, at[1]) for k, gx, gy in fn.terms)
    f = scalar(fn)
    return rl1d(lambda x: rl1d(lambda y: f(x, y), beta, ys, c, d, at[1]),
                alpha, xs, a, b, at[0])


def _section(fn: Fn, x0=None, y0=None):
    if fn.terms:
        if x0 is not None:
            return tuple((k * _g(gx, x0), gy) for k, gx, gy in fn.terms)
        return tuple((k * _g(gy, y0), gx) for k, gx, gy in fn.terms)
    f = scalar(fn)
    return (lambda y: f(x0, y)) if x0 is not None else (lambda x: f(x, y0))


def middle_term(fn: Fn, alpha, beta, rect) -> float:
    a, b, c, d = rect
    pieces = (("a+c+", (b, d)), ("a+d-", (b, c)), ("b-c+", (a, d)), ("b-d-", (a, c)))
    total = sum(rl2d(fn, alpha, beta, corner, rect, at) for corner, at in pieces)
    return (math.gamma(alpha + 1) * math.gamma(beta + 1)
            / (4 * (b - a) ** alpha * (d - c) ** beta) * total)


def a_term(fn: Fn, alpha, beta, rect) -> float:
    a, b, c, d = rect
    sum_y = sum(rl1d(_section(fn, x0=x0), beta, side, c, d, at)
                for x0 in (a, b) for side, at in (("left", d), ("right", c)))
    sum_x = sum(rl1d(_section(fn, y0=y0), alpha, side, a, b, at)
                for y0 in (c, d) for side, at in (("left", b), ("right", a)))
    return (math.gamma(beta + 1) / (4 * (d - c) ** beta) * sum_y
            + math.gamma(alpha + 1) / (4 * (b - a) ** alpha) * sum_x)


# ---------------------------------------------------------------------------
# functions and derivatives (sympy)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def scalar(fn: Fn):
    return sympy.lambdify((_X, _Y), sympy.sympify(fn.sym), "math")


@lru_cache(maxsize=None)
def mixed_partial(fn: Fn):
    return sympy.lambdify((_X, _Y), sympy.diff(sympy.sympify(fn.sym), _X, _Y), "math")


def corners(rect):
    a, b, c, d = rect
    return ((a, c), (a, d), (b, c), (b, d))


# ---------------------------------------------------------------------------
# h-weights and their moments
# ---------------------------------------------------------------------------

def table_knots(path: str) -> tuple[tuple[float, float], ...]:
    pts = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].split()
            if line:
                pts.append((float(line[0]), float(line[1])))
    return tuple(pts)


def h_kind(h: str):
    """('power', s) for identity and power:s, ('one',), ('gl',) or ('table', knots)."""
    if h == "identity":
        return ("power", 1.0)
    if h.startswith("power:"):
        return ("power", float(h.split(":", 1)[1]))
    if h == "one":
        return ("one",)
    if h == "gl":
        return ("gl",)
    return ("table", table_knots(h.split(":", 1)[1]))


def h_value(h: str, t: float) -> float:
    k = h_kind(h)
    if k[0] == "power":
        return t ** k[1]
    if k[0] == "one":
        return 1.0
    if k[0] == "gl":
        return 1.0 / t
    knots = k[1]
    for (t0, h0), (t1, h1) in zip(knots, knots[1:]):
        if t0 <= t <= t1:
            return h0 + (h1 - h0) * (t - t0) / (t1 - t0)
    raise ValueError(f"t={t} outside the table")


def _segments(knots):
    """Pieces (t0, t1, A, B) with h(t) = A + B t on [t0, t1]."""
    for (t0, h0), (t1, h1) in zip(knots, knots[1:]):
        slope = (h1 - h0) / (t1 - t0)
        yield t0, t1, h0 - slope * t0, slope


def _int_pow_linear(g: float, t0: float, t1: float, A: float, B: float) -> float:
    """int_t0^t1 t^(g-1) (A + B t) dt."""
    return A * (t1**g - t0**g) / g + B * (t1 ** (g + 1) - t0 ** (g + 1)) / (g + 1)


def _mirror_int(g, knots):
    """int_0^1 t^(g-1) h(1-t) dt for a table h: h(1-t) = (A+B) - B t on the
    mirrored segment."""
    return sum(_int_pow_linear(g, 1 - t1, 1 - t0, A + B, -B)
               for t0, t1, A, B in _segments(knots))


def moment_m(h: str, g: float) -> float:
    """M(h, g) = int_0^1 t^(g-1) (h(t) + h(1-t)) dt."""
    k = h_kind(h)
    if k[0] == "power":
        return 1 / (g + k[1]) + _beta(g, k[1] + 1)
    if k[0] == "one":
        return 2 / g
    knots = k[1]
    return (sum(_int_pow_linear(g, *seg) for seg in _segments(knots))
            + _mirror_int(g, knots))


def moment_k1(h: str, g: float) -> float:
    """K1(h, g) = int_0^1 (t^g + (1-t)^g) h(t) dt."""
    k = h_kind(h)
    if k[0] == "power":
        return 1 / (g + k[1] + 1) + _beta(k[1] + 1, g + 1)
    if k[0] == "one":
        return 2 / (g + 1)
    knots = k[1]
    # int (1-t)^g h(t) dt = int u^g h(1-u) du.
    return (sum(_int_pow_linear(g + 1, *seg) for seg in _segments(knots))
            + _mirror_int(g + 1, knots))


def moment_u(h: str) -> float:
    """U(h) = int_0^1 h(t) dt."""
    k = h_kind(h)
    if k[0] == "power":
        return 1 / (k[1] + 1)
    if k[0] == "one":
        return 1.0
    return sum(_int_pow_linear(1.0, *seg) for seg in _segments(k[1]))


# ---------------------------------------------------------------------------
# the reports
# ---------------------------------------------------------------------------

def theorem(op: Op) -> dict:
    """Expected values of the fields the benchmark checks for one operation."""
    fn, (al, be), rect = op.fn, op.order, op.rect
    if op.kind == "frac1d":
        x = op.extra
        ref = x["ref"]
        f = (lambda t: float(sympy.lambdify(_X, sympy.sympify(ref), "math")(t))) \
            if isinstance(ref, str) else ref
        return {"value": rl1d(f, al, x["side"], *x["interval"], x["at"])}
    if op.kind == "frac2d":
        return {"value": rl2d(fn, al, be, op.extra["corner"], rect, op.extra["at"])}
    f = scalar(fn)
    corner_sum = sum(f(x, y) for x, y in corners(rect))
    if op.kind in ("t1", "t4"):
        h = op.h or "identity"
        h2 = h_value(h, 0.5) ** 2
        a, b, c, d = rect
        return {
            "left": f(0.5 * (a + b), 0.5 * (c + d)),
            "middle": 4 * h2 * middle_term(fn, al, be, rect),
            "right": h2 * al * be * corner_sum * moment_m(h, al) * moment_m(h, be),
        }
    out = {}
    if fn.terms or op.kind != "lemma1":
        a_val = a_term(fn, al, be, rect)
        lhs = corner_sum / 4 + middle_term(fn, al, be, rect) - a_val
        out = {"lhs": lhs} if op.kind == "lemma1" else {"lhs_abs": abs(lhs), "a_term": a_val}
    if op.kind in ("t5", "t6"):
        a, b, c, d = rect
        D = [abs(mixed_partial(fn)(x, y)) for x, y in corners(rect)]
        if op.kind == "t5":
            out["rhs"] = ((b - a) * (d - c) / 4 * moment_k1(op.h, al) * moment_k1(op.h, be)
                          * sum(D))
        else:
            p = op.p
            q = p / (p - 1)
            pre = (b - a) * (d - c) / ((al * p + 1) * (be * p + 1)) ** (1 / p)
            out["rhs"] = pre * (sum(v**q for v in D) * moment_u(op.h) ** 2) ** (1 / q)
    return out


def sweep_row(op: Op, row: dict) -> dict:
    """Expected values for one t6 sweep row (lemma1 rows check their residual)."""
    alpha, p = float(row["alpha"]), float(row["p"])
    t6 = Op("row", "t6", op.fn, op.h, (alpha, float(row["beta"])), (0.0, 1.0, 0.0, 1.0), p)
    return theorem(t6)


def certify_deficit(f, h: str, t, k, p1, p2, direction: str) -> float:
    """The coordinate h-convexity deficit at one configuration, scalar math."""
    (x, u), (y, w) = p1, p2
    hv = lambda s: h_value(h, s)  # noqa: E731
    lhs = f(t * x + (1 - t) * y, k * u + (1 - k) * w)
    rhs = (hv(t) * hv(k) * f(x, u) + hv(k) * hv(1 - t) * f(y, u)
           + hv(t) * hv(1 - k) * f(x, w) + hv(1 - t) * hv(1 - k) * f(y, w))
    return (rhs - lhs) if direction == "concave" else (lhs - rhs)
