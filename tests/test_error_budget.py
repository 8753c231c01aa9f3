"""Every reported error covers the true error, on random separable functions.

f = sum_i c_i g_i(x) k_i(y), with each factor t^m (m = 0..5, and m in
(0, 1) or (1, 3), whose derivatives of some order are singular at t = 0),
exp(l t) or sin/cos(w t + p).  For such f the 1D and 2D fractional integrals,
the middle term, A and the lemma1 kernel integral are finite sums of products
of one-variable integrals.  For t^m those are closed forms in 2F1 (Euler's
integral, DLMF 15.6.1), evaluated by mpmath, exact for any origin >= 0;
otherwise they come from scipy's ``quad(weight='alg')``, which integrates the
algebraic kernel exactly.  The references share no code with hhfrac's
quadrature.

Each f is passed once as an expression and once as a
``BivariateFunction(f, d2f)`` of numpy callables, at n = 8, 16 and 64 nodes
per axis.  At 8 and 16 the levels may disagree beyond the fallback limit,
and the graded fallback or a non-convergence error are both acceptable; at
64 every quantity must converge.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hhfrac import certify
from hhfrac.certify import (
    a_term_with_estimate,
    lemma1_residual,
    middle_fractional_term_with_estimate,
)
from hhfrac.errors import QuadratureNonConvergenceError
from hhfrac.fracquad import (
    Corner,
    FracOrder,
    QuadratureSpec,
    Rectangle,
    Side,
    frac_integral_1d_with_estimate,
    frac_integral_2d_with_estimate,
)
from hhfrac.funcspace import BivariateFunction, parse_function_spec, univariate_from_source
from hhfrac.quadrature import two_level

LEVELS = (8, 16, 64)

# ---------------------------------------------------------------------------
# factors: ("pow", m), ("exp", l), ("sin" or "cos", w, p)
# ---------------------------------------------------------------------------

def _short(lo: float, hi: float, signed: bool = False):
    """Floats in [lo, hi] (or [-hi, -lo]) with three decimals, so the
    expression text holds the same numbers as the callables."""
    sign = st.sampled_from((-1.0, 1.0)) if signed else st.just(1.0)
    return st.tuples(sign, st.floats(lo, hi)).map(lambda p: round(p[0] * p[1], 3))


_factor = st.one_of(
    st.tuples(st.just("pow"),
              st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.05, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0,
                               5.0))),
    st.tuples(st.just("exp"), _short(0.25, 2.5, signed=True)),
    st.tuples(st.sampled_from(("sin", "cos")), _short(0.5, 4.0), _short(0.0, 3.0)),
)


def _text(g, v: str) -> str:
    if g[0] == "pow":
        return "1" if g[1] == 0 else f"{v}^{g[1]!r}"
    if g[0] == "exp":
        return f"exp(({g[1]!r})*{v})"
    return f"{g[0]}({g[1]!r}*{v}+{g[2]!r})"


def _value(g, t):
    if g[0] == "pow":
        return t ** g[1]
    if g[0] == "exp":
        return np.exp(g[1] * t)
    return (np.sin if g[0] == "sin" else np.cos)(g[1] * t + g[2])


def _derivative(g, t):
    if g[0] == "pow":
        return g[1] * t ** (g[1] - 1) if g[1] else np.zeros_like(t)
    if g[0] == "exp":
        return g[1] * np.exp(g[1] * t)
    if g[0] == "sin":
        return g[1] * np.cos(g[1] * t + g[2])
    return -g[1] * np.sin(g[1] * t + g[2])


# ---------------------------------------------------------------------------
# one-variable references
# ---------------------------------------------------------------------------

def _alg(h, lo, hi, left_power, right_power) -> float:
    """int_lo^hi (t - lo)^left_power (hi - t)^right_power h(t) dt."""
    v, _ = quad(h, lo, hi, weight="alg", wvar=(left_power, right_power),
                epsabs=0.0, epsrel=1e-12, limit=200)
    return v


def _euler(a, b, c, z):
    """int_0^1 v^(b-1) (1-v)^(c-b-1) (1 - z v)^(-a) dv = B(b, c-b) 2F1(a, b; c; z)."""
    return mpmath.beta(b, c - b) * mpmath.hyp2f1(a, b, c, z)


def _rl(g, order, side, lo, hi, at) -> float:
    """J^order of the factor g on [lo, hi] at ``at``, anchored at lo (left)
    or hi (right).  For t^m, t = at (1 - z v) (left) or hi (1 - z v) (right)
    turns the integral into Euler's: quad loses digits to t^m when lo is
    positive but tiny, as the draws' floats can be."""
    if g[0] == "pow":
        with mpmath.workdps(30):
            m, o, lo, hi, at = map(mpmath.mpf, (g[1], order, lo, hi, at))
            if side is Side.LEFT:
                j = (at - lo) ** o * at**m * _euler(-m, o, o + 1, (at - lo) / at)
            else:
                j = (hi - at) ** o * hi**m * _euler(-m, 1, o + 1, (hi - at) / hi)
            return float(j / mpmath.gamma(o))
    h = functools.partial(_value, g)
    if side is Side.LEFT:
        return _alg(h, lo, at, 0.0, order - 1.0) / math.gamma(order)
    return _alg(h, at, hi, order - 1.0, 0.0) / math.gamma(order)


def _corner_pair(g, order, lo, hi) -> float:
    """Gamma(order + 1) / width^order * (J_left g(hi) + J_right g(lo))."""
    scale = math.gamma(order + 1.0) / (hi - lo) ** order
    return scale * (_rl(g, order, Side.LEFT, lo, hi, hi) + _rl(g, order, Side.RIGHT, lo, hi, lo))


def _kernel(g, order, lo, hi) -> float:
    """int_0^1 (t^order - (1-t)^order) g'(t lo + (1-t) hi) dt.  For t^m,
    g' = m hi^(m-1) (1 - z t)^(m-1) with z = (hi - lo) / hi: two Euler
    integrals (a constant's is 0, where they diverge at z = 1)."""
    if g == ("pow", 0.0):
        return 0.0
    if g[0] == "pow":
        with mpmath.workdps(30):
            m, o, lo, hi = map(mpmath.mpf, (g[1], order, lo, hi))
            z = (hi - lo) / hi
            return float(m * hi ** (m - 1) * (_euler(1 - m, o + 1, o + 2, z)
                                              - _euler(1 - m, 1, o + 2, z)))

    def along(t):
        return _derivative(g, t * lo + (1.0 - t) * hi)
    return _alg(along, 0.0, 1.0, order, 0.0) - _alg(along, 0.0, 1.0, 0.0, order)


# ---------------------------------------------------------------------------
# the draw
# ---------------------------------------------------------------------------

@st.composite
def _cases(draw):
    terms = draw(st.lists(st.tuples(_short(0.25, 2.0, signed=True), _factor, _factor),
                          min_size=1, max_size=3))
    a, c = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
    rect = Rectangle.from_bounds(a, a + draw(st.floats(0.25, 2.0)),
                                 c, c + draw(st.floats(0.25, 2.0)))
    order = FracOrder(draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    corner = draw(st.sampled_from(list(Corner)))
    side = draw(st.sampled_from(list(Side)))
    reach = draw(st.floats(0.3, 1.0)), draw(st.floats(0.3, 1.0))
    return terms, rect, order, corner, side, reach


def _at(side: Side, lo: float, hi: float, reach: float) -> float:
    """A point ``reach`` of the way from the anchor of ``side`` to the far end."""
    span = reach * (hi - lo)
    return min(hi, lo + span) if side is Side.LEFT else max(lo, hi - span)


def _forms(terms):
    """The f of ``terms`` as an expression and as numpy callables with d2f."""
    text = " + ".join(f"({c!r})*({_text(gx, 'x')})*({_text(gy, 'y')})" for c, gx, gy in terms)

    def f(x, y):
        return sum(c * _value(gx, x) * _value(gy, y) for c, gx, gy in terms)

    def d2f(x, y):
        return sum(c * _derivative(gx, x) * _derivative(gy, y) for c, gx, gy in terms)
    return parse_function_spec(text), BivariateFunction(f, d2f)


def _references(terms, rect, order, corner, side, reach):
    (a, b), (c, d) = (rect.a, rect.b), (rect.c, rect.d)
    al, be = order.alpha, order.beta
    at2 = (_at(corner.x_side, a, b, reach[0]), _at(corner.y_side, c, d, reach[1]))
    at1 = _at(side, a, b, reach[0])
    exact = dict.fromkeys(("1d", "2d", "middle", "a_term", "kernel"), 0.0)
    for k, gx, gy in terms:
        px, py = _corner_pair(gx, al, a, b), _corner_pair(gy, be, c, d)
        exact["1d"] += k * _rl(gx, al, side, a, b, at1)
        exact["2d"] += k * (_rl(gx, al, corner.x_side, a, b, at2[0])
                            * _rl(gy, be, corner.y_side, c, d, at2[1]))
        exact["middle"] += k * px * py / 4.0
        exact["a_term"] += k * ((_value(gx, a) + _value(gx, b)) * py
                                + (_value(gy, c) + _value(gy, d)) * px) / 4.0
        exact["kernel"] += k * _kernel(gx, al, a, b) * _kernel(gy, be, c, d)
    exact["kernel"] *= (b - a) * (d - c) / 4.0
    return exact, at1, at2


def _estimates(fv, g1, rect, order, corner, side, at1, at2, spec):
    """(value, error) of each audited quantity; None where it did not converge."""
    calls = {
        "1d": lambda: frac_integral_1d_with_estimate(g1, order.alpha, side, rect.x, at1, spec),
        "2d": lambda: frac_integral_2d_with_estimate(fv, order, corner, rect, at2, spec),
        "middle": lambda: middle_fractional_term_with_estimate(fv, order, rect, spec),
        "a_term": lambda: a_term_with_estimate(fv, order, rect, spec),
        "kernel": lambda: certify._folded_derivative_integral(fv, order, rect, spec),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except QuadratureNonConvergenceError:
            if spec.nodes_per_axis == LEVELS[-1]:
                raise
            out[name] = None
    return out


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_every_error_covers_the_true_error(case):
    terms, rect, order, corner, side, reach = case
    exact, at1, at2 = _references(*case)
    parsed, numeric = _forms(terms)
    g_text = " + ".join(f"({c!r})*({_text(gx, 't')})" for c, gx, _ in terms)
    sections = (univariate_from_source(g_text),
                lambda t: sum(c * _value(gx, t) for c, gx, _ in terms))
    for fv, g1 in zip((parsed, numeric), sections):
        for n in LEVELS:
            spec = QuadratureSpec(nodes_per_axis=n)
            for name, est in _estimates(fv, g1, rect, order, corner, side, at1, at2, spec).items():
                if est is not None:
                    value, error = est
                    assert abs(value - exact[name]) <= error, (name, n, fv.provenance, value,
                                                               exact[name], error)
        assert lemma1_residual(fv, order, rect, QuadratureSpec(nodes_per_axis=LEVELS[-1])).passed


@pytest.mark.parametrize("n", [8, 64])
def test_the_gap_covers_a_first_order_rule(n):
    # The draws above converge fast, so their gap exceeds the fine level's
    # error several times over.  A rule with error 1/n is the slowest whose
    # fine error the gap still bounds: |fine - 1| = 1/(2n) = gap, exactly.
    spec = QuadratureSpec(nodes_per_axis=n, target_rel_tol=1.0)
    value, error = two_level(lambda m: (1.0 + 1.0 / m, 1.0), spec, "first-order rule")
    assert value == 1.0 + 1.0 / (2 * n) and abs(value - 1.0) <= error


@pytest.mark.parametrize("m, order", [(0.0, 0.2), (3.0, 1.3), (5.0, 2.9)])
def test_quad_matches_the_closed_forms(m, order):
    # The references take t^m in closed form and use quad everywhere else;
    # on smooth integrands the two agree to round-off, so a miss above is
    # the library's, not the reference's.
    g, scale = ("pow", m), 1.0 / math.gamma(order)
    for lo in (0.0, 0.4):
        hi = lo + 1.7

        def along(t):
            return _derivative(g, t * lo + (1.0 - t) * hi)
        for at in (lo + 0.6, hi):
            assert scale * _alg(lambda t: t**m, lo, at, 0.0, order - 1.0) == pytest.approx(
                _rl(g, order, Side.LEFT, lo, hi, at), rel=2e-15, abs=0)
        for at in (lo, lo + 0.6):
            assert scale * _alg(lambda t: t**m, at, hi, order - 1.0, 0.0) == pytest.approx(
                _rl(g, order, Side.RIGHT, lo, hi, at), rel=2e-15, abs=0)
        assert (_alg(along, 0.0, 1.0, order, 0.0) - _alg(along, 0.0, 1.0, 0.0, order)
                == pytest.approx(_kernel(g, order, lo, hi), rel=2e-15, abs=1e-15))


#: f on [0, 1]^2 with an endpoint kink, as expression and terms.  At some of
#: these n the product rule's levels differ by more than their round-off
#: floor but less than target_rel_tol: the graded rule's smaller error counts.
KINKED = {
    "x^0.25*y^0.25": ((1.0, ("pow", 0.25), ("pow", 0.25)),),
    "x^0.5*y^0.5": ((1.0, ("pow", 0.5), ("pow", 0.5)),),
    "x^1.5*exp(y)": ((1.0, ("pow", 1.5), ("exp", 1.0)),),
    "x^0.5*y^0.7 + x*y": ((1.0, ("pow", 0.5), ("pow", 0.7)), (1.0, ("pow", 1.0), ("pow", 1.0))),
}


@pytest.mark.parametrize("src", sorted(KINKED))
@pytest.mark.parametrize("order", [(1.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("n", [128, 512])
def test_the_smaller_error_is_kept(src, order, n):
    order, rect = FracOrder(*order), Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
    exact, _, _ = _references(KINKED[src], rect, order, Corner.LOWER_LOWER, Side.LEFT, (1.0, 1.0))
    fv, spec = parse_function_spec(src), QuadratureSpec(nodes_per_axis=n)
    for name, fn in (("middle", middle_fractional_term_with_estimate),
                     ("a_term", a_term_with_estimate),
                     ("kernel", certify._folded_derivative_integral)):
        value, error = fn(fv, order, rect, spec)
        assert error <= 1e-13 and abs(value - exact[name]) <= error, (name, value, exact[name],
                                                                      error)
