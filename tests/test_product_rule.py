"""The product-integration path of the middle term, A and the lemma1 kernel
integral: agreement with the graded corner rules, the fallback to them, and
one set of samples per function, rectangle and level across a sweep."""

import sys
import tracemalloc

import numpy as np
import pytest
import sympy as sp

import hhfrac.certify as certify
import hhfrac.fracquad as fracquad
import hhfrac.quadrature as quadrature
from hhfrac.certify import (
    a_term_with_estimate,
    lemma1_residual,
    middle_fractional_term_with_estimate,
    theorem4_chain,
)
from hhfrac.cli import main
from hhfrac.errors import DomainError
from hhfrac.fracquad import MAX_NODES_PER_AXIS, FracOrder, QuadratureSpec, Rectangle
from hhfrac.funcspace import BivariateFunction, FDSpec, parse_function_spec
from hhfrac.hweights import HWeight

UNIT_SQ = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
OFF_SQ = Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5)
SPEC = QuadratureSpec()
FD = FDSpec()

PRODUCT_PATHS = ("_product_middle", "_product_a_term", "_product_kernel_integral")
SMOOTH = ("exp(x+y)", "x^2*y^2", "2+sin(5*x*y)", "exp(x+y)*sin(x*y)+x^3*y^2")
ORDERS = ((0.7, 1.3), (0.2, 0.5), (2.5, 1.0))


def graded(monkeypatch, fn, *args):
    """``fn(*args)`` with the product rule switched off."""
    with monkeypatch.context() as m:
        for name in PRODUCT_PATHS:
            m.setattr(certify, name, lambda *a: None)
        return fn(*args)


def with_exact_partial(src: str) -> BivariateFunction:
    """The parsed function with its mixed partial from sympy, so that the
    derivative side carries no finite-difference noise."""
    x, y = sp.symbols("x y")
    d2 = sp.lambdify((x, y), sp.diff(sp.sympify(src.replace("^", "**")), x, y), "numpy")
    return BivariateFunction(parse_function_spec(src).evaluator, mixed_partial=d2)


def quantities(f, order, rect):
    return (
        (middle_fractional_term_with_estimate, (f, order, rect, SPEC)),
        (a_term_with_estimate, (f, order, rect, SPEC)),
        (certify._folded_derivative_integral, (f, order, rect, FD, SPEC)),
    )


class TestAgreesWithGradedRules:
    @pytest.mark.parametrize("src", SMOOTH)
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("rect", [UNIT_SQ, OFF_SQ], ids=["unit", "off"])
    def test_middle_a_and_rhs(self, monkeypatch, src, order, rect):
        f = with_exact_partial(src)
        order = FracOrder(*order)
        assert certify._product_middle(f, order, rect, SPEC) is not None
        assert certify._product_a_term(f, order, rect, SPEC) is not None
        assert certify._product_kernel_integral(f, order, rect, FD, SPEC) is not None
        for fn, args in quantities(f, order, rect):
            value, err = fn(*args)
            ref, ref_err = graded(monkeypatch, fn, *args)
            assert value == pytest.approx(ref, rel=1e-11), fn.__name__
            assert abs(value - ref) <= err + ref_err, fn.__name__

    def test_graded_composite_scheme_never_takes_the_product_rule(self):
        spec = QuadratureSpec(scheme=fracquad.QuadratureScheme.GRADED_COMPOSITE)
        f = with_exact_partial("exp(x+y)")
        assert certify._product_middle(f, FracOrder(1.0, 1.0), UNIT_SQ, spec) is None


class TestFallback:
    """x^0.5 converges only algebraically on a product grid that reaches 0, so
    the two levels disagree and the graded rules take over, bit for bit."""

    @pytest.mark.parametrize("src", ["x^0.5 + y^0.5", "builtin:powersum:0.5"])
    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 1.3), (2.5, 0.7)])
    def test_bit_identical_to_graded(self, monkeypatch, src, order):
        f = parse_function_spec(src)
        order = FracOrder(*order)
        assert certify._product_middle(f, order, UNIT_SQ, SPEC) is None
        assert certify._product_a_term(f, order, UNIT_SQ, SPEC) is None
        for fn, args in quantities(f, order, UNIT_SQ)[:2]:
            assert fn(*args) == graded(monkeypatch, fn, *args)
        h = HWeight.power(0.5)
        assert (theorem4_chain(f, h, order, UNIT_SQ)
                == graded(monkeypatch, theorem4_chain, f, h, order, UNIT_SQ))

    def test_lemma1_builtin_powersum_identical(self, monkeypatch):
        f = parse_function_spec("builtin:powersum:0.5")
        order = FracOrder(0.5, 1.3)
        assert (lemma1_residual(f, order, UNIT_SQ)
                == graded(monkeypatch, lemma1_residual, f, order, UNIT_SQ))

    def test_report_byte_identical(self, monkeypatch, capsys):
        argv = ["verify", "--theorem", "t4", "--f", "x^0.5 + y^0.5", "--rect", "0", "1",
                "0", "1", "--alpha", "0.5", "--beta", "1.3", "--h", "power:0.5",
                "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert graded(monkeypatch, main, argv) == 0
        assert capsys.readouterr().out == out


def _sweep(capsys, *extra):
    code = main(["sweep", "--format", "csv", *extra])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


ALPHAS = ",".join(repr(0.25 * i) for i in range(1, 13))
BETAS = ",".join(repr(0.5 * i) for i in range(1, 7))


class TestSweepSharesSamples:
    def test_each_level_sampled_once(self, monkeypatch, capsys):
        samples, partials, graded_rules = [], [], []
        sample_2d, mixed_partial = fracquad._sample_2d, certify.mixed_partial

        def count_samples(f, xs, ys):
            samples.append((xs.size, ys.size))
            return sample_2d(f, xs, ys)

        def count_partials(*args, **kwargs):
            partials.append(np.broadcast(*(np.asarray(a) for a in args[1:3])).shape)
            return mixed_partial(*args, **kwargs)

        def no_graded_rule(*args, **kwargs):
            graded_rules.append(args)
            raise AssertionError("graded rule used")

        monkeypatch.setattr(fracquad, "_sample_2d", count_samples)
        monkeypatch.setattr(certify, "mixed_partial", count_partials)
        monkeypatch.setattr(certify, "power_weighted_rule", no_graded_rule)
        monkeypatch.setattr(fracquad, "power_weighted_rule", no_graded_rule)
        out = _sweep(capsys, "--theorem", "lemma1", "--f", "builtin:expsum",
                     "--rect", "0", "1", "0", "1", "--nodes", "32", "--jobs", "1",
                     "--axis", f"alpha={ALPHAS}", "--axis", f"beta={BETAS}")
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 72 and all(",true," in r for r in rows)
        # the grid and its four edge sections, at n = 32 and 64
        assert samples == [(32, 32), (2, 32), (32, 2), (64, 64), (2, 64), (64, 2)]
        assert partials == [(32, 32), (64, 64)]
        assert graded_rules == []


CACHES = ("gauss_legendre_01", "power_weighted_rule", "_upper_roots_ld", "product_weights")


class TestJobs:
    ARGS = ("--theorem", "lemma1", "--f", "exp(x+y)*sin(x*y)+x^3*y^2",
            "--rect", "0", "1", "0", "1", "--nodes", "24",
            "--axis", "alpha=0.25,0.5,1,1.5,2.5", "--axis", "beta=0.5,1.3")

    def _run(self, monkeypatch, capsys, jobs):
        for name in CACHES:
            getattr(quadrature, name).cache_clear()
        samples = []
        sample_2d = fracquad._sample_2d

        def count_samples(f, xs, ys):
            samples.append(xs.size * ys.size)
            return sample_2d(f, xs, ys)

        # Frequent thread switches make a lost or doubled cache build likely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with monkeypatch.context() as m:
                m.setattr(fracquad, "_sample_2d", count_samples)
                out = _sweep(capsys, *self.ARGS, "--jobs", str(jobs))
        finally:
            sys.setswitchinterval(interval)
        builds = {}
        for name in CACHES:
            info = getattr(quadrature, name).cache_info()
            # every entry was built exactly once
            assert info.misses == info.currsize, name
            builds[name] = info.misses
        return out, builds, sorted(samples)

    def test_deterministic_builds_and_output(self, monkeypatch, capsys):
        serial = self._run(monkeypatch, capsys, 1)
        first = self._run(monkeypatch, capsys, 4)
        second = self._run(monkeypatch, capsys, 4)
        assert first == second == serial

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code = main(["sweep", *self.ARGS, "--jobs", jobs])
        assert code == 2 and "--jobs" in capsys.readouterr().err


class TestNodeCap:
    def test_spec_bounds(self):
        assert QuadratureSpec(nodes_per_axis=MAX_NODES_PER_AXIS).nodes_per_axis == 1024
        with pytest.raises(DomainError):
            QuadratureSpec(nodes_per_axis=MAX_NODES_PER_AXIS + 1)

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_huge_nodes_is_usage_error_in_bounded_memory(self, capsys, command):
        argv = [command, "--theorem", "lemma1", "--f", "exp(x+y)", "--rect", "0", "1",
                "0", "1", "--alpha", "0.5", "--beta", "0.5", "--nodes", "100000"]
        if command == "sweep":
            argv += ["--axis", "alpha=0.5,1", "--jobs", "1"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "nodes_per_axis" in capsys.readouterr().err
        assert peak < 1 << 20
