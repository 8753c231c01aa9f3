import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from hhfrac import fracquad
from hhfrac.errors import DomainError, EvaluationError
from hhfrac.fracquad import (
    Corner,
    FracOrder,
    Interval,
    QuadratureSpec,
    Rectangle,
    Side,
    frac_integral_1d,
    frac_integral_1d_with_estimate,
    frac_integral_2d,
    frac_integral_2d_with_estimate,
)
from hhfrac.funcspace import univariate_from_source
from hhfrac.quadrature import power_weighted_rule

from oracles import brute_frac_2d

UNIT = Interval(0.0, 1.0)
UNIT_SQ = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)


class TestDomainTypes:
    def test_interval_invariants(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(0.0, float("inf"))

    def test_rectangle(self):
        r = Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5)
        assert (r.a, r.b, r.c, r.d) == (0.5, 2.0, 0.25, 1.5)
        assert r.midpoint == (1.25, 0.875)
        assert r.corners() == ((0.5, 0.25), (0.5, 1.5), (2.0, 0.25), (2.0, 1.5))
        Rectangle.from_bounds(-1.0, 1.0, 0.0, 1.0)  # engine accepts negative a
        with pytest.raises(DomainError):
            Rectangle.from_bounds(-1.0, 1.0, 0.0, 1.0).require_nonneg_origin()

    def test_frac_order(self):
        with pytest.raises(DomainError):
            FracOrder(0.0, 1.0)
        with pytest.raises(DomainError):
            FracOrder(1.0, -2.0)

    def test_quadrature_spec(self):
        with pytest.raises(DomainError):
            QuadratureSpec(nodes_per_axis=1)
        for rel_tol in (0.0, math.inf):
            with pytest.raises(DomainError):
                QuadratureSpec(target_rel_tol=rel_tol)

    def test_corner_sides(self):
        assert Corner.LOWER_LOWER.x_side is Side.LEFT
        assert Corner.LOWER_LOWER.y_side is Side.LEFT
        assert Corner.UPPER_LOWER.x_side is Side.RIGHT
        assert Corner.LOWER_UPPER.y_side is Side.RIGHT
        assert Corner("a+d-") is Corner.LOWER_UPPER


class Test1D:
    def test_non_finite_value_names_the_point_on_y_0(self):
        # one-variable integrands go through the two-variable sampler at y = 0
        with pytest.raises(EvaluationError) as ei:
            frac_integral_1d(univariate_from_source("exp(800*t)"), 0.5, Side.LEFT, UNIT, 1.0)
        assert str(ei.value) == "function value not finite at (x=1.0, y=0.0)"

    def test_constant_half_order(self):
        # J of 1 at 1 over [0,1]: (x-a)^alpha / Gamma(alpha+1)
        got = frac_integral_1d(lambda t: np.ones_like(t), 0.5, Side.LEFT, UNIT, 1.0)
        assert got == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)
        assert got == pytest.approx(1.12837916709551, rel=1e-12)

    def test_linear_half_order(self):
        got = frac_integral_1d(lambda t: t, 0.5, Side.LEFT, UNIT, 1.0)
        assert got == pytest.approx(math.gamma(2.0) / math.gamma(2.5), rel=1e-12)
        assert got == pytest.approx(0.75225277806367, rel=1e-12)

    def test_order_one_right_square(self):
        got = frac_integral_1d(lambda t: t * t, 1.0, Side.RIGHT, UNIT, 0.0)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("mu", [0, 1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.0])
    def test_monomial_oracle(self, mu, alpha):
        exact = math.gamma(mu + 1.0) / math.gamma(mu + alpha + 1.0)
        got = frac_integral_1d(lambda t: t**mu, alpha, Side.LEFT, UNIT, 1.0)
        assert got == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
    def test_order_one_reduction_and_scipy_cross_check(self, alpha):
        # alpha = 1 must reproduce the plain adaptive integral; fractional
        # orders are cross-checked against QUADPACK's algebraic-weight rule.
        for f, name in ((lambda t: t**3 - 2 * t + 1, "poly"),
                        (np.exp, "exp")):
            if alpha == 1.0:
                ref, _ = quad(f, 0.3, 0.9)
                got = frac_integral_1d(f, 1.0, Side.LEFT, Interval(0.3, 2.0), 0.9)
            else:
                ref, _ = quad(f, 0.3, 0.9, weight="alg", wvar=(0.0, alpha - 1.0))
                ref /= math.gamma(alpha)
                got = frac_integral_1d(f, alpha, Side.LEFT, Interval(0.3, 2.0), 0.9)
            assert got == pytest.approx(ref, rel=1e-8), name

    @pytest.mark.parametrize("alpha", [0.5, 1.3, 2.0])
    def test_mirror_symmetry(self, alpha):
        a, b, x = 0.25, 1.75, 0.6
        f = lambda t: np.exp(t) + t**2
        right = frac_integral_1d(f, alpha, Side.RIGHT, Interval(a, b), x)
        mirrored = frac_integral_1d(
            lambda t: f(a + b - t), alpha, Side.LEFT, Interval(a, b), a + b - x
        )
        assert right == pytest.approx(mirrored, rel=1e-10)

    def test_at_domain_errors(self):
        with pytest.raises(DomainError):
            frac_integral_1d(np.exp, 0.5, Side.LEFT, UNIT, 0.0)  # at == lo
        with pytest.raises(DomainError):
            frac_integral_1d(np.exp, 0.5, Side.RIGHT, UNIT, 1.0)  # at == hi
        with pytest.raises(DomainError):
            frac_integral_1d(np.exp, 0.5, Side.LEFT, UNIT, 1.5)
        with pytest.raises(DomainError):
            frac_integral_1d(np.exp, -0.5, Side.LEFT, UNIT, 1.0)

    def test_scalar_only_callable_falls_back(self):
        def scalar_f(t):
            if isinstance(t, np.ndarray):
                raise TypeError("scalars only")
            return t * t

        got = frac_integral_1d(scalar_f, 1.0, Side.LEFT, UNIT, 1.0,
                               QuadratureSpec(nodes_per_axis=16))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.7])
    def test_refinement_monotonicity_of_estimate(self, alpha):
        # small node counts sit before the convergent regime, so the
        # nonconvergence guard is relaxed; only the estimates matter here
        f = lambda t: np.exp(t) * np.cos(3.0 * t)
        prev = None
        for n in (16, 32, 64, 128):
            _, est = frac_integral_1d_with_estimate(
                f, alpha, Side.LEFT, UNIT, 1.0,
                QuadratureSpec(nodes_per_axis=n, target_rel_tol=1e-4),
            )
            if prev is not None:
                assert est <= 2.0 * prev
            prev = est

    def test_error_estimate_covers_truth(self):
        exact = math.gamma(4.0) / math.gamma(4.0 + 1.7)
        val, est = frac_integral_1d_with_estimate(
            lambda t: t**3, 1.7, Side.LEFT, UNIT, 1.0,
            QuadratureSpec(nodes_per_axis=16),
        )
        assert abs(val - exact) <= 10.0 * est

    def test_function_singular_at_the_far_end(self):
        # J^2 of t^-0.5 at 1 is B(2, 1/2) = 4/3.  The graded nodes crowd
        # toward t = 0, within eps of it from n = 128 on (level 256); each
        # is formed from that end, so none lands on it and the error stays
        # at round-off.
        errors = []
        for n in (16, 32, 64, 128, 256, 512, 1024):
            value, error = frac_integral_1d_with_estimate(
                lambda t: t**-0.5, 2.0, Side.LEFT, UNIT, 1.0, QuadratureSpec(nodes_per_axis=n))
            assert abs(value - 4.0 / 3.0) <= error, n
            errors.append(error)
        assert max(errors[1:]) <= 2.0 * errors[1]


class TestGradedPoints:
    @pytest.mark.parametrize("order", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("near, far", [(1.0, 0.0), (0.0, 1.0), (2.7, 0.3), (0.3, 2.7)])
    def test_each_point_is_formed_from_its_nearer_end(self, order, near, far):
        u, c, w = power_weighted_rule(order, 512)
        pts, weights = fracquad._graded_points(order, near, far, 512)
        half = u <= 0.5
        assert np.array_equal(pts[half], near + (far - near) * u[half])
        assert np.array_equal(pts[~half], far - (far - near) * c[~half])
        assert weights is w
        lo, hi = min(near, far), max(near, far)
        assert np.all((lo <= pts) & (pts <= hi))
        if lo == 0.0:
            # floats near 0 resolve any distance, so no point lands on it
            assert np.all(pts > 0.0)


class Test2D:
    def test_constant_half_orders(self):
        got = frac_integral_2d(lambda x, y: np.ones(np.broadcast(x, y).shape),
                               FracOrder(0.5, 0.5), Corner.LOWER_LOWER, UNIT_SQ,
                               (1.0, 1.0))
        assert got == pytest.approx((1.0 / math.gamma(1.5)) ** 2, rel=1e-12)
        assert got == pytest.approx(1.27323954473516, rel=1e-12)

    def test_bilinear_order_one(self):
        got = frac_integral_2d(lambda x, y: x * y, FracOrder(1.0, 1.0),
                               Corner.LOWER_LOWER, UNIT_SQ, (1.0, 1.0))
        assert got == pytest.approx(0.25, rel=1e-13)

    def test_brute_force_oracle_upper_corner(self):
        # f(t,s) = t^2 s at the b-d- corner; oracle = tensor midpoint rule,
        # cross-checked against the separable closed form.
        f = lambda x, y: x**2 * y
        closed = 1.0 / (math.gamma(0.5) * 2.5 * 3.0)
        brute = brute_frac_2d(f, 0.5, 2.0, "b-d-", 0, 1, 0, 1, (0.0, 0.0), n=2000)
        assert brute == pytest.approx(closed, rel=1e-5)
        got = frac_integral_2d(f, FracOrder(0.5, 2.0), Corner.UPPER_UPPER,
                               UNIT_SQ, (0.0, 0.0))
        assert got == pytest.approx(closed, rel=1e-10)
        assert got == pytest.approx(brute, rel=1e-5)

    @pytest.mark.parametrize("corner", list(Corner))
    def test_separable_tensor_consistency(self, corner):
        order = FracOrder(0.7, 1.4)
        rect = Rectangle.from_bounds(0.0, 1.0, 0.0, 2.0)
        at = (0.6, 1.1)
        g = lambda t: np.exp(t)
        h = lambda s: s**2 + 1.0
        got = frac_integral_2d(lambda x, y: g(x) * h(y), order, corner, rect, at)
        gx = frac_integral_1d(g, order.alpha, corner.x_side, rect.x, at[0])
        hy = frac_integral_1d(h, order.beta, corner.y_side, rect.y, at[1])
        assert got == pytest.approx(gx * hy, rel=1e-8)

    def test_at_domain_errors(self):
        with pytest.raises(DomainError):
            frac_integral_2d(lambda x, y: x * y, FracOrder(1.0, 1.0),
                             Corner.LOWER_LOWER, UNIT_SQ, (0.0, 1.0))

    def test_non_finite_sample_named(self):
        def f(x, y):
            return np.where(x + 0 * y > 0.5, np.inf, 1.0)

        with pytest.raises(EvaluationError, match=r"not finite at \(x="):
            frac_integral_2d(f, FracOrder(1.0, 1.0), Corner.LOWER_LOWER,
                             UNIT_SQ, (1.0, 1.0))

    @pytest.mark.parametrize("one_var, two_var", [
        (lambda x, y: x * x, lambda x, y: x * x + 0.0 * y),
        (lambda x, y: np.exp(y), lambda x, y: np.exp(y) + 0.0 * x),
        (lambda x, y: 3.0, lambda x, y: 3.0 + 0.0 * x * y),
    ], ids=["x-only", "y-only", "constant"])
    def test_broadcastable_result_is_one_call_per_level(self, one_var, two_var):
        calls = []

        def f(x, y):
            calls.append((x, y))
            return one_var(x, y)

        args = (FracOrder(0.5, 1.5), Corner.LOWER_UPPER, UNIT_SQ, (1.0, 0.0))
        assert frac_integral_2d_with_estimate(f, *args) == \
            frac_integral_2d_with_estimate(two_var, *args)
        assert len(calls) == 2

    @pytest.mark.parametrize("f", [
        lambda x, y: np.exp(x) * np.sin(y),
        lambda x, y: np.exp(x) + 0.0,
        lambda x, y: 2.0,
        lambda x, y: math.exp(x) * math.sin(y),
    ], ids=["two-var", "x-only", "constant", "scalar-only"])
    def test_blocks_of_rows_equal_one_call(self, monkeypatch, f):
        xs, ys = np.linspace(0.0, 1.0, 37), np.linspace(0.0, 2.0, 23)
        whole = fracquad._sample_2d(f, xs, ys)
        monkeypatch.setattr(fracquad, "_BLOCK_POINTS", 50)  # 2 rows a block, ragged
        assert fracquad._sample_2d(f, xs, ys).tobytes() == whole.tobytes()
        assert whole.shape == (37, 23) and whole.flags.c_contiguous

    def test_non_finite_sample_in_a_later_block_is_named(self, monkeypatch):
        xs, ys = np.linspace(0.0, 1.0, 37), np.linspace(0.0, 2.0, 23)
        monkeypatch.setattr(fracquad, "_BLOCK_POINTS", 50)
        with pytest.raises(EvaluationError, match=re.escape(
                f"d2f not finite at (x={float(xs[30])!r}, y={float(ys[4])!r})")):
            fracquad._sample_2d(lambda x, y: np.where((x == xs[30]) & (y >= ys[4]), np.nan, x),
                                xs, ys, "d2f")

    def test_huge_finite_values_pass(self):
        # v.v overflows here, but every value is finite
        xs = np.linspace(0.0, 1.0, 5)
        vals = fracquad._sample_2d(lambda x, y: 1e300 * (1.0 + x * y), xs, xs)
        assert vals[-1, -1] == 2e300

    def test_estimate_present(self):
        _, est = frac_integral_2d_with_estimate(
            lambda x, y: np.exp(x + y), FracOrder(0.5, 1.5),
            Corner.LOWER_LOWER, UNIT_SQ, (1.0, 1.0)
        )
        assert est > 0.0


_CHEB_DEGREE = 9
_CHEB_SCALE = 1e3


def _shifted_chebyshev_coefficients(n):
    """Exact integer coefficients c_k of ``T_n(2t - 1) = sum_k c_k t^k``, n >= 1."""
    return [(-1) ** (n - k) * n * math.factorial(n + k - 1) * 4**k
            // (math.factorial(n - k) * math.factorial(2 * k)) for k in range(n + 1)]


def _scaled_chebyshev(t):
    t = np.asarray(t, dtype=float)
    return _CHEB_SCALE * np.polynomial.chebyshev.chebval(
        2.0 * t - 1.0, [0.0] * _CHEB_DEGREE + [1.0])


def _chebyshev_left_integral_exact(order):
    """Closed form of J^order_{0+} [T_9(2t - 1)](1) = sum_k c_k k! / Gamma(k + order + 1).

    The monomial terms cancel by five orders of magnitude, so the sum is
    evaluated in 40-digit arithmetic.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        total = sum(c * mp.factorial(k) / mp.gamma(k + mp.mpf(order) + 1)
                    for k, c in enumerate(_shifted_chebyshev_coefficients(_CHEB_DEGREE)))
        return _CHEB_SCALE * float(total)


class TestRoundOffFloor:
    """The estimate at converged node counts, held from both sides.

    ``1000 T_9(2t - 1)`` is a cancelling integrand: its quadrature terms are
    much larger than the result.  A floor tied to the result instead of the
    summed terms falls below the true error (the estimate undercuts the
    closed form); since ``|T_9| <= 1`` the summed magnitude is at most
    ``1000 / Gamma(order + 1)``, and an inflated floor overshoots 1e-12 of it.
    """

    NODES = (64, 96, 128, 256)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9,
                                       1.0, 1.3, 1.5, 1.7, 2.0, 2.5, 3.3])
    def test_1d_estimate_brackets_closed_form(self, alpha):
        exact = _chebyshev_left_integral_exact(alpha)
        magnitude_bound = _CHEB_SCALE / math.gamma(alpha + 1.0)
        for n in self.NODES:
            val, est = frac_integral_1d_with_estimate(
                _scaled_chebyshev, alpha, Side.LEFT, UNIT, 1.0,
                QuadratureSpec(nodes_per_axis=n),
            )
            assert abs(val - exact) <= est, n
            assert est <= 1e-12 * (1.0 + magnitude_bound), n

    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.2), (0.7, 2.5), (1.3, 0.5),
                                             (2.0, 1.5)])
    def test_2d_estimate_brackets_closed_form(self, alpha, beta):
        # separable product: the exact value is the product of the 1D closed
        # forms divided by the duplicated scale factor
        exact = (_chebyshev_left_integral_exact(alpha)
                 * _chebyshev_left_integral_exact(beta) / _CHEB_SCALE)
        magnitude_bound = _CHEB_SCALE / (math.gamma(alpha + 1.0) * math.gamma(beta + 1.0))
        f = lambda x, y: _scaled_chebyshev(x) * _scaled_chebyshev(y) / _CHEB_SCALE
        for n in self.NODES[:3]:
            val, est = frac_integral_2d_with_estimate(
                f, FracOrder(alpha, beta), Corner.LOWER_LOWER, UNIT_SQ, (1.0, 1.0),
                QuadratureSpec(nodes_per_axis=n),
            )
            assert abs(val - exact) <= est, n
            assert est <= 1e-12 * (1.0 + magnitude_bound), n
