"""Brute-force reference implementations, independent of the library path.

The fractional-integral oracles remove the kernel exactly with the
substitution u = (x - t)^alpha (so the kernel contributes du/alpha) and then
apply the midpoint rule on a dense uniform u-grid.  Nothing here shares code
with hhfrac.quadrature.
"""

import math

import numpy as np


def midpoint(f, lo, hi, cells):
    u = lo + (np.arange(cells) + 0.5) * ((hi - lo) / cells)
    return (hi - lo) / cells * float(np.sum(f(u)))


def simpson(f, lo, hi, cells):
    cells = 2 * ((cells + 1) // 2)
    x = np.linspace(lo, hi, cells + 1)
    w = np.ones(cells + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (hi - lo) / (3.0 * cells) * float(np.dot(w, f(x)))


def brute_frac_1d(f, alpha, side, lo, hi, at, cells=1_000_000):
    """One-sided fractional integral by midpoint rule in u = |x - t|^alpha."""
    if side == "left":
        span = at - lo
        t_of_u = lambda u: at - u ** (1.0 / alpha)
    else:
        span = hi - at
        t_of_u = lambda u: at + u ** (1.0 / alpha)
    big_u = span**alpha
    du = big_u / cells
    u = (np.arange(cells) + 0.5) * du
    return du * float(np.sum(f(t_of_u(u)))) / (math.gamma(alpha) * alpha)


def brute_frac_2d(f, alpha, beta, corner, a, b, c, d, at, n=1500):
    """Corner fractional integral by a tensor midpoint rule (n^2 cells)."""
    x0, y0 = at
    if corner in ("a+c+", "a+d-"):
        sx = x0 - a
        x_of = lambda u: x0 - u ** (1.0 / alpha)
    else:
        sx = b - x0
        x_of = lambda u: x0 + u ** (1.0 / alpha)
    if corner in ("a+c+", "b-c+"):
        sy = y0 - c
        y_of = lambda v: y0 - v ** (1.0 / beta)
    else:
        sy = d - y0
        y_of = lambda v: y0 + v ** (1.0 / beta)
    du = sx**alpha / n
    dv = sy**beta / n
    u = (np.arange(n) + 0.5) * du
    v = (np.arange(n) + 0.5) * dv
    total = du * dv * float(np.sum(f(x_of(u)[:, None], y_of(v)[None, :])))
    return total / (math.gamma(alpha) * math.gamma(beta) * alpha * beta)


def gamma_half_oracle(cells=2_000_000):
    """Gamma(1/2) = int_0^inf t^(-1/2) e^(-t) dt = 2 int_0^inf e^(-s^2) ds."""
    return 2.0 * simpson(lambda s: np.exp(-(s**2)), 0.0, 9.0, cells)


def coordinate_convex_deficit(f, t, k, x, u, y, w):
    """Plain coordinate-convexity deficit (identity weight), scalar math."""
    lhs = f(t * x + (1 - t) * y, k * u + (1 - k) * w)
    rhs = (t * k * f(x, u) + k * (1 - t) * f(y, u)
           + t * (1 - k) * f(x, w) + (1 - t) * (1 - k) * f(y, w))
    return lhs - rhs


def coordinate_h_convex_deficit(f, hf, t, k, x, u, y, w):
    """Coordinate h-convexity deficit for a weight callable hf, scalar math."""
    lhs = f(t * x + (1 - t) * y, k * u + (1 - k) * w)
    rhs = (hf(t) * hf(k) * f(x, u) + hf(k) * hf(1 - t) * f(y, u)
           + hf(t) * hf(1 - k) * f(x, w) + hf(1 - t) * hf(1 - k) * f(y, w))
    return lhs - rhs


def table_moment_exact(knots, g, dps=40):
    """M(h, g) = int_0^1 t^(g-1) (h(t) + h(1-t)) dt for a piecewise-linear h.

    Each piece h = p + q t integrates exactly through its antiderivative
    p t^g/g + q t^(g+1)/(g+1), evaluated in ``dps``-digit mpmath (no
    numerical quadrature: ``mpmath.quad`` does not resolve the t^(g-1) end at
    small g).  h is held constant before the first knot and after the last.
    Returns an mpmath number.
    """
    import mpmath

    with mpmath.workdps(dps):
        g = mpmath.mpf(g)
        pts = [(mpmath.mpf(t), mpmath.mpf(h)) for t, h in knots]
        if pts[0][0] > 0:
            pts.insert(0, (mpmath.mpf(0), pts[0][1]))
        if pts[-1][0] < 1:
            pts.append((mpmath.mpf(1), pts[-1][1]))
        total = mpmath.mpf(0)
        for (t0, h0), (t1, h1) in zip(pts, pts[1:]):
            q = (h1 - h0) / (t1 - t0)
            p = h0 - q * t0

            def prim(t, p=p, q=q):
                return p * t**g / g + q * t ** (g + 1) / (g + 1)

            # h(1-t) = (p + q) - q t on [1 - t1, 1 - t0]
            def prim_mirror(t, p=p, q=q):
                return (p + q) * t**g / g - q * t ** (g + 1) / (g + 1)

            total += prim(t1) - prim(t0) + prim_mirror(1 - t0) - prim_mirror(1 - t1)
        return +total
