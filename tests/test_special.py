import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hhfrac.errors import DomainError, OverflowDomainError
from hhfrac.special import GAMMA_OVERFLOW_LIMIT, beta, beta_rel_error, gamma, log_gamma

from oracles import gamma_half_oracle, simpson


class TestGamma:
    def test_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_against_quadrature_oracle(self):
        # oracle: high-resolution integral of t^(-1/2) e^(-t); equals sqrt(pi)
        oracle = gamma_half_oracle()
        assert oracle == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma(0.5) == pytest.approx(oracle, rel=1e-12)
        assert gamma(0.5) == pytest.approx(1.77245385090552, rel=1e-13)

    def test_against_stdlib_across_range(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate([rng.uniform(1e-3, 170.0, 5000), [0.5, 1.0, 2.0, 169.99]])
        for x in xs:
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-13)

    @given(st.floats(min_value=0.1, max_value=80.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                gamma(bad)
        with pytest.raises(DomainError):
            gamma(float("nan"))

    def test_overflow(self):
        with pytest.raises(OverflowDomainError):
            gamma(GAMMA_OVERFLOW_LIMIT + 1.0)
        # just below the limit still finite
        assert math.isfinite(gamma(171.0))


class TestLogGamma:
    def test_against_stdlib(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(1e-3, 500.0, 3000):
            ref = math.lgamma(float(x))
            assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestBeta:
    def test_constant_integrand(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_2_3_against_brute_integral(self):
        brute = simpson(lambda t: t * (1.0 - t) ** 2, 0.0, 1.0, 4000)
        assert brute == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert beta(2.0, 3.0) == pytest.approx(brute, rel=1e-12)
        assert beta(2.0, 3.0) == pytest.approx(0.0833333333333, rel=1e-11)

    def test_half_half_is_pi(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
        assert beta(0.5, 0.5) == pytest.approx(3.14159265358979, rel=1e-13)

    @given(
        st.floats(min_value=0.05, max_value=60.0),
        st.floats(min_value=0.05, max_value=60.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x, y):
        assert beta(x, y) == beta(y, x)  # bit-identical by construction

    def test_large_arguments_stay_finite(self):
        v = beta(400.0, 350.0)
        assert math.isfinite(v) and v > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(-1.0, 2.0)
        with pytest.raises(DomainError):
            beta(1.0, 0.0)


class TestBetaIntegralQuadrature:
    """beta against scipy's algebraic-weight rule for the defining integral
    int_0^1 t^(x-1) (1-t)^(y-1) dt, independent of the Gamma route."""

    @staticmethod
    def _integral(x, y):
        return quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(x - 1.0, y - 1.0))

    def test_consistency_grid(self):
        for x in (0.2, 0.5, 1.0, 2.7, 5.0):
            for y in (0.2, 0.9, 3.3, 5.0):
                value, abserr = self._integral(x, y)
                assert value == pytest.approx(beta(x, y), rel=1e-9)
                assert abserr >= 0.0

    def test_error_estimate_covers_truth(self):
        value, abserr = self._integral(0.5, 0.5)
        assert abs(value - math.pi) <= 10.0 * abserr
        assert abs(beta(0.5, 0.5) - value) <= 10.0 * abserr


class TestBetaRoundOffBound:
    def test_bound_covers_mpmath(self):
        # both branches: the Gamma ratio below the overflow limit, log space above
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        pairs = [tuple(p) for p in rng.uniform(0.05, 30.0, (200, 2))]
        pairs += [(float(g), s + 1.0) for g in np.geomspace(0.05, 171.0, 60)
                  for s in (0.3, 0.5, 1.0)]
        pairs += [(400.0, 350.0), (90.0, 85.0), (1e-3, 170.5)]
        with mp.workdps(40):
            for x, y in pairs:
                exact = mp.beta(x, y)
                assert abs(mp.mpf(beta(x, y)) - exact) <= beta_rel_error(x, y) * exact, (x, y)

