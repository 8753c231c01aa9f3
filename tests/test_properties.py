"""Properties of the library's exact claims, over random expressions.

lemma1 is an identity: for any f whose mixed partial is integrable against
its kernel, both sides agree, so a report may raise a documented error but
must never say ``passed = False``.  The draws are expressions of depth <= 3
in both x and y; the rectangle [0, 1]^2 reaches 0, where powers 0.5 and 1.5
kink and the graded rule runs.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhfrac.certify import lemma1_residual
from hhfrac.errors import EvaluationDomainError, EvaluationError, QuadratureNonConvergenceError
from hhfrac.fracquad import FracOrder, Rectangle
from hhfrac.funcspace import parse_function_spec

RECTS = (Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0),
         Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5),
         Rectangle.from_bounds(1.0, 3.0, 0.5, 1.0))
ORDERS = (FracOrder(0.5, 1.3), FracOrder(2.5, 0.7))


def _expressions(depth: int):
    leaf = st.sampled_from(("x", "y", "0.5", "2", "1.5"))
    if depth == 0:
        return leaf
    sub = _expressions(depth - 1)
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
