import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import eval_legendre

from hhfrac.errors import QuadratureNonConvergenceError
from hhfrac.fracquad import QuadratureSpec
from hhfrac.quadrature import (
    NONCONVERGENCE_FACTOR,
    error_floor,
    gauss_legendre_01,
    grading_exponent,
    power_weighted_rule,
    product_weights,
    two_level,
)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        x, w = gauss_legendre_01(8)
        # degree 15 is integrated exactly by 8 nodes
        for k in range(16):
            assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)

    def test_nodes_strictly_interior(self):
        x, _ = gauss_legendre_01(64)
        assert x.min() > 0.0 and x.max() < 1.0

    @pytest.mark.parametrize("n", [7, 64, 128])
    def test_nodes_and_weights_against_mpmath(self, n):
        # the endpoint weights are the hardest; an eigenvalue solver loses
        # about 1e-11 there at n = 128
        x, w = gauss_legendre_01(n)
        with mp.workdps(40):
            for i in (0, 1, n // 2):
                r = mp.findroot(lambda z: mp.legendre(n, z), mp.mpf(2 * x[i] - 1))
                dp = mp.diff(lambda z: mp.legendre(n, z), r)
                assert abs(x[i] - float((1 + r) / 2)) <= np.spacing(x[i])
                assert w[i] == pytest.approx(float(1 / ((1 - r * r) * dp * dp)), rel=1e-15)


class TestGradingExponent:
    def test_reduces_to_reciprocal_below_one(self):
        assert grading_exponent(0.5) == pytest.approx(2.0)
        assert grading_exponent(0.25) == pytest.approx(4.0)
        assert grading_exponent(1.0) == pytest.approx(1.0)

    def test_integer_product_above_one(self):
        for order in (1.3, 1.7, 2.0, 2.5, 3.7):
            p = grading_exponent(order)
            assert p >= 1.0
            assert abs(p * order - round(p * order)) < 1e-12


class TestPowerWeightedRule:
    # The ids keep the rule's name from when a Simpson variant existed.
    @pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 1.7, 2.0, 3.7],
                             ids=lambda order: f"gauss-{order}")
    def test_monomial_moments(self, order):
        # int_0^1 s^(order-1) * s^k ds = 1/(order+k)
        u, w = power_weighted_rule(order, 64)
        for k in range(4):
            got = float(np.dot(w, u**k))
            assert got == pytest.approx(1.0 / (order + k), rel=1e-8)

    def test_smooth_integrand(self):
        # int_0^1 s^(-0.5) exp(s) ds, reference by series: sum 1/(k! (k+0.5))
        ref = sum(1.0 / (math.factorial(k) * (k + 0.5)) for k in range(30))
        u, w = power_weighted_rule(0.5, 48)
        assert float(np.dot(w, np.exp(u))) == pytest.approx(ref, rel=1e-12)


def test_error_floor_positive():
    assert error_floor(0.0) > 0.0
    assert error_floor(1e6) > error_floor(1.0)


class TestTwoLevel:
    """The shared two-level decision, on fake rules whose levels are given."""

    SPEC = QuadratureSpec(nodes_per_axis=8, target_rel_tol=1e-9)

    def rule(self, coarse, fine, magnitude=3.0):
        """A rule with the given level values; the coarse magnitude is NaN,
        because only the finer level's may enter the error."""
        calls = []

        def level(n):
            calls.append(n)
            return (coarse, math.nan) if n == 8 else (fine, magnitude)
        return level, calls

    def test_levels_and_error(self):
        level, calls = self.rule(1.25 + 3e-10, 1.25)
        value, error = two_level(level, self.SPEC, "demo")
        assert calls == [8, 16]
        assert value == 1.25
        assert error == abs((1.25 + 3e-10) - 1.25) + error_floor(3.0)

    @pytest.mark.parametrize("fine, gap, falls_back", [
        (0.0, 1e-9, False),  # exactly the limit tol * max(1, |fine|)
        (0.0, float(np.nextafter(1e-9, 1.0)), True),
        (0.5, 0.9e-9, False),  # |fine| < 1 keeps the absolute floor of one
        (0.5, 2e-9, True),
        (-40.0, 2e-8, False),  # the limit scales with |fine|
        (-40.0, 8e-8, True),
        (0.0, 1.0, True),  # far beyond the non-convergence limit
    ])
    def test_fallback_iff_gap_exceeds_the_target(self, fine, gap, falls_back):
        coarse = fine + gap
        limit = self.SPEC.target_rel_tol * max(1.0, abs(fine))
        assert (abs(coarse - fine) > limit) == falls_back  # the case is what it claims
        level, _ = self.rule(coarse, fine)
        got = two_level(level, self.SPEC, "demo", fallback=lambda: "fallback")
        assert (got == "fallback") == falls_back
        if not falls_back:
            assert got == (fine, abs(coarse - fine) + error_floor(3.0))

    def test_without_fallback_raises_beyond_the_factor(self):
        level, _ = self.rule(1.5e-7, 0.0)
        with pytest.raises(QuadratureNonConvergenceError) as ei:
            two_level(level, self.SPEC, "demo integral")
        assert str(ei.value) == ("demo integral: refinement levels disagree by 1.500e-07 "
                                 "(limit 1.000e-07)")
        # The limit scales with the finer value only.
        level, _ = self.rule(-3.0, 0.0)
        with pytest.raises(QuadratureNonConvergenceError) as ei:
            two_level(level, self.SPEC, "demo integral")
        assert str(ei.value).endswith("by 3.000e+00 (limit 1.000e-07)")
        # Within the factor the gap is only reported.
        inside = 0.5 * NONCONVERGENCE_FACTOR * self.SPEC.target_rel_tol
        level, _ = self.rule(inside, 0.0)
        assert two_level(level, self.SPEC, "demo integral") == (0.0, inside + error_floor(3.0))


# ---------------------------------------------------------------------------
# product-integration weights, against scipy's algebraic-weight rule
# ---------------------------------------------------------------------------

PRODUCT_ORDERS = (0.05, 0.1, 0.25, 0.5, 1.3, 2.5, 3.5)


def _kernel_integral(g, order, parity):
    """1/2 int_0^1 (xi^(order-1) + (-1)^parity (1-xi)^(order-1)) g(xi) dxi by
    scipy's QAWS rule, which integrates the algebraic endpoint weights exactly."""
    opts = dict(epsabs=1e-16, epsrel=1e-15, limit=200)
    left = quad(g, 0.0, 1.0, weight="alg", wvar=(order - 1.0, 0.0), **opts)[0]
    right = quad(g, 0.0, 1.0, weight="alg", wvar=(0.0, order - 1.0), **opts)[0]
    return 0.5 * (left + right) if parity == 0 else 0.5 * (left - right)


def _product_rule(g, order, n, parity):
    """Value of the product rule and its summed magnitude, as the theorems use it."""
    xi, _ = gauss_legendre_01(n)
    omega, rho = product_weights(order, n, parity)
    values = g(xi)
    return float(omega @ values), float((np.abs(omega) + rho) @ np.abs(values))


@pytest.mark.filterwarnings("ignore", category=IntegrationWarning)
class TestProductWeights:
    @pytest.mark.parametrize("order", PRODUCT_ORDERS)
    @pytest.mark.parametrize("parity", [0, 1])
    def test_legendre_moments(self, order, parity):
        # On P_j(2 xi - 1) the rule gives mu_j(order) for j of its parity and 0
        # otherwise; mu_j is the scipy integral of xi^(order-1) P_j(2 xi - 1).
        n = 32
        xi, _ = gauss_legendre_01(n)
        omega, _ = product_weights(order, n, parity)
        for j in range(12):
            pj = lambda t, j=j: eval_legendre(j, 2.0 * t - 1.0)  # noqa: E731
            mu = quad(pj, 0.0, 1.0, weight="alg", wvar=(order - 1.0, 0.0),
                                      epsabs=1e-15, epsrel=1e-14, limit=200)[0]
            want = mu if j % 2 == parity else 0.0
            got = float(omega @ pj(xi))
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, 1.0 / order)), j

    @pytest.mark.parametrize("order", PRODUCT_ORDERS)
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("g", [
        lambda t: np.exp(t) * np.cos(3.0 * t) + 2.0,
        lambda t: np.sin(5.0 * t) + t * t,
    ], ids=["expcos", "sinpoly"])
    def test_estimate_covers_error(self, order, parity, g):
        # Two levels (n/2, n) for n = 16 ... 512: the two-level estimate covers
        # the error; from n = 64 on the round-off floor alone covers it.
        ref = _kernel_integral(g, order, parity)
        for n in (16, 32, 64, 128, 256, 512):
            coarse, _ = _product_rule(g, order, n // 2, parity)
            fine, magnitude = _product_rule(g, order, n, parity)
            err = abs(fine - ref)
            assert err <= abs(coarse - fine) + error_floor(magnitude), n
            if n >= 64:
                assert err <= error_floor(magnitude), n

    @pytest.mark.parametrize("n", [16, 64, 128, 512])
    def test_constant_and_linear_exact(self, n):
        # Even weights integrate 1 to 1/s; odd weights give 0 on 1 and
        # 1/2 (1/(s+1) - 1/(s (s+1))) = (s-1) / (2 s (s+1)) on xi.
        xi, _ = gauss_legendre_01(n)
        for s in (0.3, 1.0, 2.7):
            even, _ = product_weights(s, n, 0)
            odd, _ = product_weights(s, n, 1)
            assert float(even.sum()) == pytest.approx(1.0 / s, rel=1e-14)
            assert float(odd.sum()) == pytest.approx(0.0, abs=1e-14 / s)
            assert float(odd @ xi) == pytest.approx((s - 1.0) / (2.0 * s * (s + 1.0)),
                                                    abs=1e-14 / s)

    def test_symmetry_of_parities(self):
        # Even weights are symmetric about 1/2, odd ones antisymmetric.
        for n in (31, 32):
            even, rho = product_weights(0.4, n, 0)
            odd, _ = product_weights(1.4, n, 1)
            np.testing.assert_array_equal(even, even[::-1])
            np.testing.assert_array_equal(odd, -odd[::-1])
            np.testing.assert_array_equal(rho, rho[::-1])
            assert (rho >= 0.0).all()
