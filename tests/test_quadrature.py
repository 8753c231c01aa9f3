import math

import numpy as np
import pytest

from hhfrac.quadrature import (
    error_floor,
    gauss_legendre_01,
    grading_exponent,
    power_weighted_rule,
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
