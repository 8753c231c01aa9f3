import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hhfrac import certify
from hhfrac.certify import (
    HolderExponents,
    KINK_NOTE,
    MOMENT_WEIGHT_NOTE,
    a_term_with_estimate,
    corollary_moment_c1,
    corollary_moment_c2,
    corollary_moment_c3,
    h_moment_m,
    lemma1_residual,
    middle_fractional_term_with_estimate,
    theorem1_chain,
    theorem4_chain,
    theorem5_bound,
    theorem6_bound,
)
from hhfrac.errors import DivergentMomentError, DomainError, EvaluationError
from hhfrac.fracquad import Corner, FracOrder, Rectangle, frac_integral_2d
from hhfrac.funcspace import (
    BivariateFunction,
    builtin_function,
    mixed_partial,
    parse_function_spec,
)
from hhfrac.hweights import HWeight, check_coordinate_h_convex, h_eval, load_table
from hhfrac.quadrature import gauss_legendre_01

from oracles import brute_frac_1d, brute_frac_2d, table_moment_exact

UNIT_SQ = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
OFF_SQ = Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5)

H_TABLE = load_table(str(Path(__file__).resolve().parents[1] / "perfbench" / "h_table.txt"))
#: First knot above 0 and last below 1, so h is constant on both end pieces.
H_TABLE_ENDS = HWeight.from_table([(0.1, 0.4), (0.3, 0.35), (0.55, 0.9), (0.8, 0.85)])
H_TABLE_CONST = HWeight.from_table([(0.0, 1.0), (1.0, 1.0)])
TABLES = (H_TABLE, H_TABLE_ENDS, H_TABLE_CONST)

PRODUCT = builtin_function("product")
QUADRATIC = builtin_function("quadratic")
BIQUADRATIC = builtin_function("biquadratic")
EXPSUM = builtin_function("expsum")
CONSTANT_ONE = builtin_function("bilinear", 1.0, 0.0, 0.0, 0.0)


def brute_mft(f, alpha, beta, a, b, c, d, n=1500):
    s = (brute_frac_2d(f, alpha, beta, "a+c+", a, b, c, d, (b, d), n)
         + brute_frac_2d(f, alpha, beta, "a+d-", a, b, c, d, (b, c), n)
         + brute_frac_2d(f, alpha, beta, "b-c+", a, b, c, d, (a, d), n)
         + brute_frac_2d(f, alpha, beta, "b-d-", a, b, c, d, (a, c), n))
    return (math.gamma(alpha + 1) * math.gamma(beta + 1)
            / (4 * (b - a) ** alpha * (d - c) ** beta) * s)


def brute_a_term(f, alpha, beta, a, b, c, d, cells=400_000):
    b1 = (brute_frac_1d(lambda s: f(a, s), beta, "left", c, d, d, cells)
          + brute_frac_1d(lambda s: f(b, s), beta, "left", c, d, d, cells)
          + brute_frac_1d(lambda s: f(a, s), beta, "right", c, d, c, cells)
          + brute_frac_1d(lambda s: f(b, s), beta, "right", c, d, c, cells))
    b2 = (brute_frac_1d(lambda t: f(t, c), alpha, "left", a, b, b, cells)
          + brute_frac_1d(lambda t: f(t, d), alpha, "left", a, b, b, cells)
          + brute_frac_1d(lambda t: f(t, c), alpha, "right", a, b, a, cells)
          + brute_frac_1d(lambda t: f(t, d), alpha, "right", a, b, a, cells))
    return (math.gamma(beta + 1) / (4 * (d - c) ** beta) * b1
            + math.gamma(alpha + 1) / (4 * (b - a) ** alpha) * b2)


class TestMiddleFractionalTerm:
    def test_bilinear_order_one(self):
        got, _ = middle_fractional_term_with_estimate(PRODUCT, FracOrder(1, 1), UNIT_SQ)
        assert got == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 2.0), (1.7, 0.3)])
    def test_constant_is_one(self, order):
        got, _ = middle_fractional_term_with_estimate(CONSTANT_ONE, FracOrder(*order), UNIT_SQ)
        assert got == pytest.approx(1.0, rel=1e-11)

    def test_biquadratic_against_brute_oracle(self):
        brute = brute_mft(lambda x, y: (x * y) ** 2, 0.5, 0.5, 0, 1, 0, 1)
        got, _ = middle_fractional_term_with_estimate(BIQUADRATIC, FracOrder(0.5, 0.5),
                                                      UNIT_SQ)
        assert got == pytest.approx(brute, rel=1e-6)

    def test_requires_nonneg_origin(self):
        with pytest.raises(DomainError):
            middle_fractional_term_with_estimate(PRODUCT, FracOrder(1, 1),
                                                 Rectangle.from_bounds(-1, 1, 0, 1))


class TestATerm:
    def test_bilinear_order_one(self):
        got, _ = a_term_with_estimate(PRODUCT, FracOrder(1, 1), UNIT_SQ)
        assert got == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 2.0), (1.7, 0.3)])
    def test_constant(self, order):
        # every section integral reproduces the normalizing power, so each
        # bracket contributes 1; forced to 2 by the two-sided identity with
        # corner average 1, middle term 1 and vanishing derivative side
        got, _ = a_term_with_estimate(CONSTANT_ONE, FracOrder(*order), UNIT_SQ)
        assert got == pytest.approx(2.0, rel=1e-11)

    def test_exp_against_brute_oracle(self):
        brute = brute_a_term(lambda x, y: np.exp(x + y), 0.5, 1.5, 0, 1, 0, 1)
        got, _ = a_term_with_estimate(EXPSUM, FracOrder(0.5, 1.5), UNIT_SQ)
        assert got == pytest.approx(brute, rel=1e-8)


class TestHMoments:
    @pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 2.0, 3.7])
    def test_m_identity_closed_form(self, order):
        # h(t) + h(1-t) == 1 for the identity, so M = 1/order
        v, err = h_moment_m(HWeight.identity(), order)
        assert v == pytest.approx(1.0 / order, rel=1e-12)
        assert err < 1e-10

    def test_m_power_matches_corollary(self):
        for order in (0.3, 0.5, 1.0, 2.0, 3.7):
            for s in (0.25, 0.5, 0.75, 1.0):
                v, _ = h_moment_m(HWeight.power(s), order)
                assert v == pytest.approx(corollary_moment_c1(order, s), rel=1e-9)

    def test_k1_identity_closed_form(self):
        for order in (0.5, 1.0, 2.0):
            v, _ = h_moment_m(HWeight.identity(), order + 1.0)
            assert v == pytest.approx(1.0 / (order + 1.0), rel=1e-12)

    def test_k1_power_matches_corollary(self):
        for order in (0.3, 1.0, 2.0):
            for s in (0.25, 0.75):
                v, _ = h_moment_m(HWeight.power(s), order + 1.0)
                assert v == pytest.approx(corollary_moment_c2(order, s), rel=1e-9)

    def test_unit_moment(self):
        v = h_moment_m(HWeight.power(0.5), 1.0)[0] / 2.0
        assert v == pytest.approx(1.0 / 1.5, rel=1e-12)
        u = h_moment_m(HWeight.one(), 1.0)[0] / 2.0
        assert u == pytest.approx(1.0, rel=1e-13)

    def test_gl_diverges(self):
        for fn in (lambda: h_moment_m(HWeight.godunova_levin(), 0.5),
                   lambda: h_moment_m(HWeight.godunova_levin(), 2.0),
                   lambda: h_moment_m(HWeight.godunova_levin(), 1.0)):
            with pytest.raises(DivergentMomentError):
                fn()

    def test_table_weight_moment(self):
        h = HWeight.from_table([(0.0, 1.0), (1.0, 1.0)])  # constant 1
        v, _ = h_moment_m(h, 2.0)
        assert v == pytest.approx(1.0, rel=1e-10)


class TestHMomentOracle:
    """Closed-form moments against 40-digit references: |M - exact| is within
    the returned round-off bound, and the bound is tight for orders <= 6."""

    ORDERS = tuple(float(g) for g in np.geomspace(0.05, 6.0, 41)) + (
        7.5, 12.0, 30.0, 75.0, 120.0, 170.0)

    @staticmethod
    def _check(value, err, exact, g):
        mp = pytest.importorskip("mpmath")
        assert abs(mp.mpf(value) - exact) <= err, (g, value, exact, err)
        if g <= 6.0:
            assert err <= 1e-13 * abs(value), (g, value, err)

    @pytest.mark.parametrize("h", TABLES, ids=["h_table", "constant_ends", "constant"])
    def test_table_against_exact_antiderivatives(self, h):
        pytest.importorskip("mpmath")
        for g in self.ORDERS:
            value, err = h_moment_m(h, g)
            self._check(value, err, table_moment_exact(h.table, g), g)

    @pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
    def test_power_against_mpmath_beta(self, s):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for g in self.ORDERS:
                value, err = h_moment_m(HWeight.power(s), g)
                exact = 1 / (mp.mpf(g) + mp.mpf(s)) + mp.beta(g, mp.mpf(s) + 1)
                self._check(value, err, exact, g)

    def test_identity_and_one(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for g in self.ORDERS:
                for h, c in ((HWeight.identity(), 1), (HWeight.one(), 2)):
                    value, err = h_moment_m(h, g)
                    self._check(value, err, c / mp.mpf(g), g)


class TestMomentIdentities:
    """The single-moment identities, each against scipy quad of the original
    integrand, split at the table knots."""

    WEIGHTS = (HWeight.power(0.5), HWeight.power(1.0), HWeight.one(), *TABLES)

    @staticmethod
    def _quad(fn, h):
        # h(t) kinks at the knots and h(1 - t) at their mirror images
        knots = sorted({x for t, _ in h.table for x in (t, 1.0 - t)}) if h.table else None
        value, _ = quad(fn, 0.0, 1.0, points=knots, epsabs=1e-15, epsrel=1e-13,
                        limit=200)
        return value

    @pytest.mark.parametrize("g", [0.3, 1.0, 2.5])
    def test_k1_is_m_at_next_order(self, g):
        for h in self.WEIGHTS:
            k1 = self._quad(lambda t: (t**g + (1 - t) ** g) * h_eval(h, t), h)
            assert h_moment_m(h, g + 1.0)[0] == pytest.approx(k1, rel=1e-12)

    def test_unit_is_half_m_at_one(self):
        for h in self.WEIGHTS:
            u = self._quad(lambda t: h_eval(h, t), h)
            assert h_moment_m(h, 1.0)[0] / 2.0 == pytest.approx(u, rel=1e-12)

    @pytest.mark.parametrize("g", [0.3, 1.0, 2.5])
    def test_mirror_equals_plain(self, g):
        for h in self.WEIGHTS:
            k1_mirror = self._quad(
                lambda t: (t**g + (1 - t) ** g) * h_eval(h, 1 - t), h)
            u_mirror = self._quad(lambda t: h_eval(h, 1 - t), h)
            assert h_moment_m(h, g + 1.0)[0] == pytest.approx(k1_mirror, rel=1e-12)
            assert h_moment_m(h, 1.0)[0] / 2.0 == pytest.approx(u_mirror, rel=1e-12)


class TestCorollaryMoments:
    def test_c1_examples(self):
        assert corollary_moment_c1(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert corollary_moment_c1(0.5, 0.5) == pytest.approx(
            1.0 + math.pi / 2.0, rel=1e-13)
        assert corollary_moment_c1(0.5, 0.5) == pytest.approx(2.5707963267948966,
                                                              rel=1e-13)
        assert corollary_moment_c1(2.0, 1.0) == pytest.approx(0.5, rel=1e-13)

    def test_c1_against_scipy_quadrature(self):
        for order in (0.3, 2.0):
            for s in (0.25, 1.0):
                ref, _ = quad(lambda t: t ** (order - 1) * (t**s + (1 - t) ** s),
                              0.0, 1.0)
                assert corollary_moment_c1(order, s) == pytest.approx(ref, rel=1e-9)

    def test_c2_against_scipy_quadrature(self):
        for order in (0.5, 1.7):
            for s in (0.25, 0.75):
                ref, _ = quad(
                    lambda t: (t**order + (1 - t) ** order) * t**s, 0.0, 1.0)
                assert corollary_moment_c2(order, s) == pytest.approx(ref, rel=1e-9)

    def test_c3(self):
        assert corollary_moment_c3(1.0) == pytest.approx(0.25, rel=1e-15)
        assert corollary_moment_c3(0.5) == pytest.approx((2.0 / 3.0) ** 2, rel=1e-13)

    def test_domains(self):
        with pytest.raises(DomainError):
            corollary_moment_c1(-1.0, 0.5)
        with pytest.raises(DomainError):
            corollary_moment_c2(1.0, 2.0)
        with pytest.raises(DomainError):
            corollary_moment_c3(0.0)


class TestTheorem4Chain:
    def test_bilinear_identity_equality(self):
        rep = theorem4_chain(PRODUCT, HWeight.identity(), FracOrder(1, 1), UNIT_SQ)
        assert rep.left == pytest.approx(0.25, abs=1e-12)
        assert rep.middle == pytest.approx(0.25, abs=1e-10)
        assert rep.right == pytest.approx(0.25, abs=1e-10)
        assert rep.passed
        assert MOMENT_WEIGHT_NOTE in rep.notes

    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 2.0), (2.0, 2.0)])
    def test_constant_function(self, order):
        rep = theorem4_chain(CONSTANT_ONE, HWeight.identity(),
                             FracOrder(*order), UNIT_SQ)
        for member in (rep.left, rep.middle, rep.right):
            assert member == pytest.approx(1.0, rel=1e-10)
        assert rep.passed

    def test_power_family_strict_gaps(self):
        f = builtin_function("powersum", 0.5)
        rep = theorem4_chain(f, HWeight.power(0.5), FracOrder(0.5, 0.5), UNIT_SQ)
        assert rep.passed
        assert rep.gap_lm > 1e-3 and rep.gap_mr > 1e-3

    def test_gl_weight_reports_divergence(self):
        with pytest.raises(DivergentMomentError):
            theorem4_chain(PRODUCT, HWeight.godunova_levin(),
                           FracOrder(0.5, 0.5), UNIT_SQ)

    def test_pass_invariant_definition(self):
        rep = theorem4_chain(QUADRATIC, HWeight.identity(), FracOrder(1, 1), UNIT_SQ)
        should = rep.gap_lm >= -rep.tol and rep.gap_mr >= -rep.tol
        assert rep.passed == should
        assert rep.tol == max(1e-8, 10.0 * rep.quadrature_error)


class TestTheorem1Chain:
    def test_bilinear(self):
        rep = theorem1_chain(PRODUCT, FracOrder(1, 1), UNIT_SQ)
        assert (rep.left, rep.middle, rep.right) == (
            pytest.approx(0.25, abs=1e-11),) * 3
        assert rep.passed

    def test_quadratic_order_one(self):
        rep = theorem1_chain(QUADRATIC, FracOrder(1, 1), UNIT_SQ)
        assert rep.left == pytest.approx(0.5, abs=1e-12)
        assert rep.middle == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert rep.right == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_constant(self):
        f = builtin_function("bilinear", 3.25, 0.0, 0.0, 0.0)
        rep = theorem1_chain(f, FracOrder(0.7, 1.3), UNIT_SQ)
        for member in (rep.left, rep.middle, rep.right):
            assert member == pytest.approx(3.25, rel=1e-10)

    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 2.0), (2.0, 0.5)])
    def test_matches_theorem4_identity_member_by_member(self, order):
        r1 = theorem1_chain(QUADRATIC, FracOrder(*order), UNIT_SQ)
        r4 = theorem4_chain(QUADRATIC, HWeight.identity(), FracOrder(*order), UNIT_SQ)
        assert r1.left == pytest.approx(r4.left, rel=1e-12)
        assert r1.middle == pytest.approx(r4.middle, rel=1e-12)
        assert r1.right == pytest.approx(r4.right, rel=1e-12)


class TestTheorem5Bound:
    def test_bilinear_identity_values(self):
        rep = theorem5_bound(PRODUCT, HWeight.identity(), FracOrder(1, 1), UNIT_SQ)
        assert rep.lhs_abs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs == pytest.approx(0.25, rel=1e-10)
        assert rep.a_term == pytest.approx(0.5, rel=1e-10)
        assert rep.passed

    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 2.0), (2.0, 2.0)])
    def test_identity_reduction_kernel_constant(self, order):
        # with the identity weight the kernel collapses to 1/((a+1)(b+1))
        al, be = order
        k1a, _ = h_moment_m(HWeight.identity(), al + 1.0)
        k1b, _ = h_moment_m(HWeight.identity(), be + 1.0)
        assert k1a * k1b == pytest.approx(1.0 / ((al + 1) * (be + 1)), rel=1e-10)

    def test_power_reduction_matches_corollary_kernel(self):
        al, be, s = 0.5, 2.0, 0.25
        k1a, _ = h_moment_m(HWeight.power(s), al + 1.0)
        k1b, _ = h_moment_m(HWeight.power(s), be + 1.0)
        want = corollary_moment_c2(al, s) * corollary_moment_c2(be, s)
        assert k1a * k1b == pytest.approx(want, rel=1e-10)

    def test_exp_bound_holds(self):
        rep = theorem5_bound(EXPSUM, HWeight.identity(), FracOrder(0.5, 1.5), UNIT_SQ)
        assert rep.passed and rep.slack > 0.0

    def test_kink_note(self):
        f = parse_function_spec("abs(x - y) + x + y")
        rep = theorem5_bound(f, HWeight.identity(), FracOrder(1.0, 1.0),
                             Rectangle.from_bounds(0.0, 0.4, 0.5, 1.0))
        assert KINK_NOTE in rep.notes


class TestTheorem6Bound:
    def test_bilinear_identity_p2(self):
        rep = theorem6_bound(PRODUCT, HWeight.identity(), FracOrder(1, 1),
                             UNIT_SQ, HolderExponents.from_p(2.0))
        assert rep.lhs_abs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert rep.passed

    def test_identity_reduction_quarter_power(self):
        # unit moments of the identity multiply to 1/4, so the corner factor
        # becomes (1/4)^(1/q) once pulled out of the q-th root
        u = h_moment_m(HWeight.identity(), 1.0)[0] / 2.0
        assert u * u == pytest.approx(0.25, rel=1e-10)

    def test_power_family_collapses_to_c3(self):
        s = 0.5
        u = h_moment_m(HWeight.power(s), 1.0)[0] / 2.0
        assert u * u == pytest.approx(corollary_moment_c3(s), rel=1e-10)

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            HolderExponents(p=2.0, q=3.0)
        with pytest.raises(DomainError):
            HolderExponents.from_p(1.0)
        pq = HolderExponents.from_p(1.5)
        assert pq.q == pytest.approx(3.0, rel=1e-14)

    def test_gl_diverges(self):
        with pytest.raises(DivergentMomentError):
            theorem6_bound(PRODUCT, HWeight.godunova_levin(), FracOrder(1, 1),
                           UNIT_SQ, HolderExponents.from_p(2.0))


class TestLemma1Residual:
    def test_bilinear_both_sides_zero(self):
        rep = lemma1_residual(PRODUCT, FracOrder(1, 1), UNIT_SQ)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    def test_biquadratic_order_one_closed_form(self):
        # corner average 1/4, middle term 1/9, A = 1/3: lhs = 1/36; the
        # derivative side integrates (2t-1)(2k-1)*4xy to the same 1/36
        rep = lemma1_residual(BIQUADRATIC, FracOrder(1, 1), UNIT_SQ)
        assert rep.lhs == pytest.approx(1.0 / 36.0, rel=1e-12)
        assert rep.rhs == pytest.approx(1.0 / 36.0, rel=1e-12)
        assert rep.passed

    def test_exp_half_orders(self):
        rep = lemma1_residual(EXPSUM, FracOrder(0.5, 0.5), UNIT_SQ)
        assert rep.residual <= 1e-6
        assert rep.residual <= 10.0 * rep.quadrature_error
        assert rep.passed

    def test_parsed_function_brings_exact_partial(self):
        f = parse_function_spec("x^2*y^2")  # partial from the expression
        assert f.mixed_partial is not None
        rep = lemma1_residual(f, FracOrder(1.5, 0.5), UNIT_SQ)
        assert rep.passed

    def test_off_unit_rectangle(self):
        rep = lemma1_residual(EXPSUM, FracOrder(1.5, 2.0), OFF_SQ)
        assert rep.passed

    @pytest.mark.parametrize("src", ["x^3", "y^2", "2"])
    def test_function_of_one_variable(self, src):
        # the mixed partial vanishes, and comes back as a (n, 1), (1, n) or
        # scalar array
        rep = lemma1_residual(parse_function_spec(src), FracOrder(0.5, 0.5), UNIT_SQ)
        assert rep.rhs == 0.0
        assert rep.passed


def _e_partial(x, y):
    # d^2/dxdy of exp(x+y)*sin(x*y) + x^3*y^2
    s, p = np.exp(x + y), x * y
    return s * ((1.0 - p) * np.sin(p) + (1.0 + x + y) * np.cos(p)) + 6.0 * x * x * y


#: Plain callables with their exact mixed partials.
CALLABLES_WITH_PARTIALS = {
    "x^2*y^2": (lambda x, y: x**2 * y**2, lambda x, y: 4.0 * x * y),
    "exp(x+y)": (lambda x, y: np.exp(x + y), lambda x, y: np.exp(x + y)),
    "exp(x+y)*sin(x*y)+x^3*y^2": (
        lambda x, y: np.exp(x + y) * np.sin(x * y) + x**3 * y**2, _e_partial),
    "x^3*y + x*y^2": (lambda x, y: x**3 * y + x * y**2,
                      lambda x, y: 3.0 * x * x + 2.0 * y),
}


class TestDerivativeContract:
    """t5, t6 and lemma1 take d^2f/dxdy from the function itself."""

    def test_callable_with_partial_passes_lemma1(self):
        # With an exact partial the residual is round-off: the tolerance
        # here is 2.68e-11, so 3.36e-11 of derivative noise would fail it.
        f = BivariateFunction(lambda x, y: x**2 * y**2, lambda x, y: 4 * x * y)
        rep = lemma1_residual(f, FracOrder(2.5, 2), UNIT_SQ)
        assert rep.passed

    @pytest.mark.parametrize("rect", [UNIT_SQ, OFF_SQ], ids=["unit", "off"])
    @pytest.mark.parametrize("name", sorted(CALLABLES_WITH_PARTIALS))
    def test_lemma1_matrix_never_fails(self, name, rect):
        ev, partial = CALLABLES_WITH_PARTIALS[name]
        f = BivariateFunction(ev, partial)
        failed = [(a, b) for a in (0.5, 1.0, 1.7, 2.5) for b in (0.5, 1.3, 2.0)
                  if not lemma1_residual(f, FracOrder(a, b), rect).passed]
        assert failed == []

    @pytest.mark.parametrize("wrap", [lambda g: g, BivariateFunction],
                             ids=["callable", "no-partial"])
    @pytest.mark.parametrize("call", [
        lambda f: theorem5_bound(f, HWeight.identity(), FracOrder(1.5, 0.5), UNIT_SQ),
        lambda f: theorem6_bound(f, HWeight.identity(), FracOrder(1.5, 0.5), UNIT_SQ,
                                 HolderExponents.from_p(2.0)),
        lambda f: lemma1_residual(f, FracOrder(1.5, 0.5), UNIT_SQ),
        lambda f: mixed_partial(f, 0.3, 0.7),
    ], ids=["t5", "t6", "lemma1", "mixed_partial"])
    def test_function_without_partial_is_rejected(self, call, wrap):
        f = wrap(lambda x, y: x**2 * y**2)
        with pytest.raises(DomainError, match=r"BivariateFunction\(f, partial\)"):
            call(f)

    @pytest.mark.parametrize("call", [
        lambda f: theorem5_bound(f, HWeight.identity(), FracOrder(1.5, 0.5), UNIT_SQ),
        lambda f: theorem6_bound(f, HWeight.identity(), FracOrder(1.5, 0.5), UNIT_SQ,
                                 HolderExponents.from_p(2.0)),
        lambda f: lemma1_residual(f, FracOrder(1.5, 0.5), UNIT_SQ),
    ], ids=["t5", "t6", "lemma1"])
    def test_rejected_before_f_is_evaluated(self, call):
        calls = []

        def f(x, y):
            calls.append((x, y))
            return x**2 * y**2
        with pytest.raises(DomainError):
            call(f)
        assert calls == []

    def test_divergent_moment_raises_before_f_is_sampled(self):
        calls = []

        def ev(x, y):
            calls.append((x, y))
            return x * y
        f = BivariateFunction(ev, lambda x, y: 1.0)
        with pytest.raises(DivergentMomentError):
            theorem5_bound(f, HWeight.godunova_levin(), FracOrder(1.5, 0.5), UNIT_SQ)
        assert calls == []

    def test_plain_callable_still_serves_chains_and_integrals(self):
        f = lambda x, y: x**2 * y**2  # noqa: E731
        rep = theorem4_chain(f, HWeight.identity(), FracOrder(1.5, 0.5), UNIT_SQ)
        assert rep.passed
        got = frac_integral_2d(f, FracOrder(1.0, 1.0), Corner.LOWER_LOWER, UNIT_SQ,
                               (1.0, 1.0))
        assert got == pytest.approx(1.0 / 9.0, rel=1e-13)


class TestScalingCovariance:
    def test_verdicts_unchanged_under_affine_scaling(self):
        ell = 3.0
        big = Rectangle.from_bounds(0.0, ell, 0.0, ell)
        cases = [
            (PRODUCT, BivariateFunction(lambda x, y: (x / ell) * (y / ell)),
             HWeight.identity()),
            (QUADRATIC,
             BivariateFunction(lambda x, y: (x / ell) ** 2 + (y / ell) ** 2),
             HWeight.identity()),
        ]
        for f_unit, f_big, h in cases:
            r_unit = theorem4_chain(f_unit, h, FracOrder(0.5, 2.0), UNIT_SQ)
            r_big = theorem4_chain(f_big, h, FracOrder(0.5, 2.0), big)
            assert r_unit.passed == r_big.passed
            assert r_big.left == pytest.approx(r_unit.left, rel=1e-9)
            assert r_big.middle == pytest.approx(r_unit.middle, rel=1e-9)
            assert r_big.right == pytest.approx(r_unit.right, rel=1e-9)


def _sqrt_twin(sqrt):
    """x^2 y^2 + sqrt(1 + x^2 + y^2) and its exact mixed partial, built on
    ``sqrt``: with ``math.sqrt`` both reject arrays.  Both twins round every
    operation alike, as sqrt is correctly rounded."""
    def f(x, y):
        return x * x * y * y + sqrt(1.0 + x * x + y * y)

    def d2f(x, y):
        s = sqrt(1.0 + x * x + y * y)
        return 4.0 * x * y - x * y / (s * s * s)
    return BivariateFunction(f, d2f)


def _every_entry_point(f, rect):
    order, h = FracOrder(0.75, 1.3), HWeight.power(0.5)
    return [
        theorem1_chain(f, order, rect),
        theorem4_chain(f, h, order, rect),
        theorem5_bound(f, h, order, rect),
        theorem6_bound(f, h, order, rect, HolderExponents.from_p(2.0)),
        lemma1_residual(f, order, rect),
        frac_integral_2d(f, order, Corner.UPPER_LOWER, rect, (rect.a, rect.d)),
        check_coordinate_h_convex(f, HWeight.identity(), rect, grid=5),
        check_coordinate_h_convex(f, HWeight.identity(), rect, grid=5, direction="concave"),
    ]


def _inf_at(px, py, g):
    return lambda x, y: np.where((x == px) & (y == py), np.inf, g(x, y))


_GL = gauss_legendre_01(32)[0]  # the first product-rule level at 64 nodes
_GRADED_X = certify._folded_rule(1.5, UNIT_SQ.x, 32, -1.0)[0][5]
_GRADED_Y = certify._folded_rule(2.3, UNIT_SQ.y, 32, -1.0)[0][7]


def _bad_f(px, py):
    return BivariateFunction(_inf_at(px, py, lambda x, y: x * y), lambda x, y: 1.0 + 0.0 * x * y)


def _bad_d2f(px, py, f=lambda x, y: x * y, d2f=lambda x, y: 1.0 + 0.0 * x * y):
    return BivariateFunction(f, _inf_at(px, py, d2f))


#: f or its mixed partial infinite at one point: the call that samples it,
#: the quantity named and the point.
_NON_FINITE_CASES = {
    "f-corner-t4": (lambda: theorem4_chain(_bad_f(1.0, 1.0), HWeight.identity(),
                                           FracOrder(0.5, 1.3), UNIT_SQ),
                    "function value", 1.0, 1.0),
    "f-midpoint-t4": (lambda: theorem4_chain(_bad_f(0.5, 0.5), HWeight.identity(),
                                             FracOrder(0.5, 1.3), UNIT_SQ),
                      "function value", 0.5, 0.5),
    "f-gauss-node-t1": (lambda: theorem1_chain(_bad_f(_GL[5], _GL[7]), FracOrder(0.5, 1.3),
                                               UNIT_SQ),
                        "function value", _GL[5], _GL[7]),
    "d2f-corner-t5": (lambda: theorem5_bound(_bad_d2f(1.0, 0.0), HWeight.identity(),
                                             FracOrder(0.5, 1.3), UNIT_SQ),
                      "d^2f/dxdy value", 1.0, 0.0),
    "d2f-gauss-node-lemma1": (lambda: lemma1_residual(_bad_d2f(_GL[5], _GL[7]),
                                                      FracOrder(0.5, 1.3), UNIT_SQ),
                              "d^2f/dxdy value", _GL[5], _GL[7]),
    # sqrt(xy) converges only algebraically on the product grid, so the
    # kernel integral falls back to the graded rule
    "d2f-graded-node-lemma1": (lambda: lemma1_residual(
        _bad_d2f(_GRADED_X, _GRADED_Y, lambda x, y: (x * y) ** 1.5,
                 lambda x, y: 2.25 * np.sqrt(x * y)),
        FracOrder(0.5, 1.3), UNIT_SQ),
        "d^2f/dxdy value", _GRADED_X, _GRADED_Y),
}


class TestOneSampler:
    """Every value of f and d^2f/dxdy on points comes from one sampler."""

    @pytest.mark.parametrize("rect", [UNIT_SQ, OFF_SQ], ids=["unit", "off"])
    def test_scalar_only_twin_matches_numpy_twin(self, rect):
        got = _every_entry_point(_sqrt_twin(math.sqrt), rect)
        want = _every_entry_point(_sqrt_twin(np.sqrt), rect)
        assert [c.verdict for c in want[-2:]] == ["pass", "fail"]
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("case", sorted(_NON_FINITE_CASES))
    def test_non_finite_sample_raises_naming_it(self, case):
        call, what, px, py = _NON_FINITE_CASES[case]
        point = f"not finite at (x={float(px)!r}, y={float(py)!r})"
        with pytest.raises(EvaluationError, match=re.escape(f"{what} {point}")):
            call()
