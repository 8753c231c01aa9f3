"""Properties of the library's exact claims, over random expressions.

lemma1 is an identity: for any f whose mixed partial is integrable against
its kernel, both sides agree, so a report may raise a documented error but
must never say ``passed = False``.  The draws are expressions of depth <= 3
in both x and y; the rectangle [0, 1]^2 reaches 0, where powers 0.5 and 1.5
kink and the graded rule runs.

The symbolic mixed partial of a parsed f equals sympy's on points where both
are defined.

A non-negative sum of blocks convex on the co-ordinates of the positive
quadrant is h-convex there for every weight with h(t) >= t: the identity,
power:s (s <= 1) and one.  So the t1 chain and the t4 chains of those
weights pass on it, and so does the sampled certificate.
"""

import re

import numpy as np
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhfrac.certify import lemma1_residual, theorem1_chain, theorem4_chain
from hhfrac.errors import EvaluationDomainError, EvaluationError, QuadratureNonConvergenceError
from hhfrac.fracquad import FracOrder, Rectangle
from hhfrac.funcspace import parse_function_spec
from hhfrac.hweights import HWeight, check_coordinate_h_convex

RECTS = (Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0),
         Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5),
         Rectangle.from_bounds(1.0, 3.0, 0.5, 1.0))
ORDERS = (FracOrder(0.5, 1.3), FracOrder(2.5, 0.7))


def _expressions(depth: int, leaves=("x", "y", "0.5", "2", "1.5")):
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    sub = _expressions(depth - 1, leaves)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(sub, st.sampled_from(("2", "3", "0.5", "1.5", "-1"))).map(
            lambda t: f"({t[0]})^({t[1]})"),
        st.tuples(st.sampled_from(("exp", "sin", "cos", "log", "sqrt")), sub).map(
            lambda t: f"{t[0]}({t[1]})"),
    )


def _uses_x_and_y(src: str) -> bool:
    return all(re.search(rf"(?<![a-z]){v}(?![a-z])", src) for v in "xy")


@settings(max_examples=180, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_expressions(3).filter(_uses_x_and_y))
def test_lemma1_is_never_reported_false(src):
    f = parse_function_spec(src)
    for rect in RECTS:
        for order in ORDERS:
            try:
                report = lemma1_residual(f, order, rect)
            except (EvaluationDomainError, EvaluationError, QuadratureNonConvergenceError):
                continue
            assert report.passed, (src, rect, order, report)


X, Y = sp.symbols("x y", positive=True)
GRID = np.meshgrid(np.linspace(0.6, 1.6, 3), np.linspace(0.6, 1.6, 3), indexing="ij")


# abs is left out: sympy differentiates Abs into sign terms, and KINK_NOTE
# already flags the kink.
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_expressions(3, ("x", "y", "x*y", "(x+y)", "0.5", "2")))
def test_mixed_partial_matches_sympy(src):
    try:
        got = np.broadcast_to(parse_function_spec(src).mixed_partial(*GRID), GRID[0].shape)
    except (EvaluationDomainError, EvaluationError):
        return
    d2 = sp.diff(sp.sympify(src.replace("^", "**"), locals={"x": X, "y": Y}), X, Y)
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(sp.lambdify((X, Y), d2, "numpy")(*GRID),
                                          dtype=complex), GRID[0].shape)
    defined = np.isfinite(want) & (want.imag == 0)
    # atol: where sympy simplifies a sum to 0, as for ((x+y)^0.5)^2, the
    # unsimplified derivative leaves its round-off (2.8e-17 there)
    np.testing.assert_allclose(got[defined], want.real[defined], rtol=1e-9, atol=1e-9,
                               err_msg=src)


#: Blocks convex in x and in y on the positive quadrant, and non-negative there.
_CONVEX_BLOCKS = st.one_of(
    st.tuples(st.sampled_from(("-1", "0.5", "2")), st.sampled_from(("-0.5", "1", "1.5"))).map(
        lambda ab: f"exp({ab[0]}*x+{ab[1]}*y)"),
    st.just("x^2"),
    st.sampled_from(("0.25", "0.5", "1.5")).map(lambda c: f"(x-{c})^2*y"),
    st.tuples(st.sampled_from(("1", "1.25", "1.5", "3")),
              st.sampled_from(("1", "1.5", "2.5"))).map(lambda km: f"x^{km[0]}*y^{km[1]}"),
)
_CONVEX_SUMS = st.lists(st.tuples(st.sampled_from(("0.5", "1", "3")), _CONVEX_BLOCKS),
                        min_size=1, max_size=3).map(
    lambda terms: " + ".join(f"{c}*{block}" for c, block in terms))
_WEIGHTS_ABOVE_T = (HWeight.identity(), HWeight.power(0.5), HWeight.power(0.25), HWeight.one())


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CONVEX_SUMS, st.sampled_from(RECTS),
       # orders below 1/2 on [0, 1]^2 need the graded rule for x^1.5 and x^1.25
       st.builds(FracOrder, st.sampled_from((0.2, 0.5, 1.3, 2.5)),
                 st.sampled_from((0.3, 0.7, 1.5))))
def test_chains_and_certificates_pass_on_co_ordinate_convex_sums(src, rect, order):
    f = parse_function_spec(src)
    assert theorem1_chain(f, order, rect).passed, (src, rect, order)
    for h in _WEIGHTS_ABOVE_T:
        assert theorem4_chain(f, h, order, rect).passed, (src, h.label, rect, order)
        assert check_coordinate_h_convex(f, h, rect, grid=9).passed, (src, h.label, rect)
