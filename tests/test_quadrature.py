import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import eval_legendre

from hhfrac.quadrature import (
    error_floor,
    gauss_legendre_01,
    grading_exponent,
    power_weighted_rule,
    product_weights,
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
    @pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 1.7, 2.0, 3.7])
    @pytest.mark.parametrize("scheme", ["gauss", "simpson"])
    def test_monomial_moments(self, order, scheme):
        # int_0^1 s^(order-1) * s^k ds = 1/(order+k)
        n = 64 if scheme == "gauss" else 4096
        u, w = power_weighted_rule(order, n, scheme)
        for k in range(4):
            got = float(np.dot(w, u**k))
            assert got == pytest.approx(1.0 / (order + k), rel=1e-8)

    def test_smooth_integrand(self):
        # int_0^1 s^(-0.5) exp(s) ds, reference by series: sum 1/(k! (k+0.5))
        ref = sum(1.0 / (math.factorial(k) * (k + 0.5)) for k in range(30))
        u, w = power_weighted_rule(0.5, 48, "gauss")
        assert float(np.dot(w, np.exp(u))) == pytest.approx(ref, rel=1e-12)


def test_error_floor_positive():
    assert error_floor(0.0) > 0.0
    assert error_floor(1e6) > error_floor(1.0)


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
