"""The product-integration path of the middle term, A and the lemma1 kernel
integral: agreement with the folded graded rule, the fallback to it (checked
against closed forms), and one set of samples per function, rectangle and
level across a sweep."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from scipy.special import beta as beta_fn

import hhfrac.certify as certify
import hhfrac.fracquad as fracquad
import hhfrac.funcspace as funcspace
import hhfrac.quadrature as quadrature
from hhfrac.certify import (
    a_term_with_estimate,
    lemma1_residual,
    middle_fractional_term_with_estimate,
    theorem4_chain,
)
from hhfrac.cli import main
from hhfrac.errors import DomainError, QuadratureNonConvergenceError
from hhfrac.fracquad import MAX_NODES_PER_AXIS, FracOrder, QuadratureSpec, Rectangle
from hhfrac.funcspace import BivariateFunction, parse_function_spec
from hhfrac.hweights import HWeight

UNIT_SQ = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
OFF_SQ = Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5)
SPEC = QuadratureSpec()

SMOOTH = ("exp(x+y)", "x^2*y^2", "2+sin(5*x*y)", "exp(x+y)*sin(x*y)+x^3*y^2")
ORDERS = ((0.7, 1.3), (0.2, 0.5), (2.5, 1.0))


def graded(monkeypatch, fn, *args):
    """``fn(*args)`` with the product rule switched off: every two-level
    estimate in certify that has a graded rule runs that rule alone."""
    def graded_only(level, spec, what, graded=None):
        return quadrature.two_level(graded or level, spec, what)

    with monkeypatch.context() as m:
        m.setattr(certify, "two_level", graded_only)
        return fn(*args)


def fallbacks(monkeypatch, fn, *args) -> list[str]:
    """The two-level estimates whose graded rule ran in ``fn(*args)``."""
    ran = []

    def recording(level, spec, what, graded=None):
        levels = []

        def recorded(n):
            if not levels:
                ran.append(what)
            levels.append(n)
            return graded(n)
        return quadrature.two_level(level, spec, what, recorded if graded else None)

    with monkeypatch.context() as m:
        m.setattr(certify, "two_level", recording)
        fn(*args)
    return ran


def with_exact_partial(src: str) -> BivariateFunction:
    """The parsed function with its mixed partial from sympy, an oracle
    independent of the expression's own derivative."""
    x, y = sp.symbols("x y")
    d2 = sp.lambdify((x, y), sp.diff(sp.sympify(src.replace("^", "**")), x, y), "numpy")
    return BivariateFunction(parse_function_spec(src).evaluator, mixed_partial=d2)


def quantities(f, order, rect):
    return (
        (middle_fractional_term_with_estimate, (f, order, rect, SPEC)),
        (a_term_with_estimate, (f, order, rect, SPEC)),
        (certify._folded_derivative_integral, (f, order, rect, SPEC)),
    )


class TestAgreesWithGradedRules:
    @pytest.mark.parametrize("src", SMOOTH)
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("rect", [UNIT_SQ, OFF_SQ], ids=["unit", "off"])
    def test_middle_a_and_rhs(self, monkeypatch, src, order, rect):
        f = with_exact_partial(src)
        order = FracOrder(*order)
        for fn, args in quantities(f, order, rect):
            assert fallbacks(monkeypatch, fn, *args) == [], fn.__name__
            value, err = fn(*args)
            ref, ref_err = graded(monkeypatch, fn, *args)
            assert value == pytest.approx(ref, rel=1e-11), fn.__name__
            assert abs(value - ref) <= err + ref_err, fn.__name__


class TestFallback:
    """x^0.5 converges only algebraically on a product grid that reaches 0, so
    the two levels disagree and the graded rules take over, bit for bit."""

    @pytest.mark.parametrize("src", ["x^0.5 + y^0.5", "builtin:powersum:0.5"])
    @pytest.mark.parametrize("order", [(0.5, 0.5), (1.0, 1.3), (2.5, 0.7)])
    def test_bit_identical_to_graded(self, monkeypatch, src, order):
        f = parse_function_spec(src)
        order = FracOrder(*order)
        (middle, middle_args), (a, a_args), _ = quantities(f, order, UNIT_SQ)
        assert fallbacks(monkeypatch, middle, *middle_args) == ["middle term"]
        assert fallbacks(monkeypatch, a, *a_args) == ["A term"]
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


def folded_moment(order, p, sign):
    """int_0^1 (t^(order-1) + sign (1-t)^(order-1)) t^p dt in closed form."""
    return 1.0 / (order + p) + sign * beta_fn(order, p + 1.0)


#: Separable f as (coefficient, power of x, power of y) terms, each with an
#: endpoint kink at 0 in one variable at least.
SEPARABLE = {
    "x^0.5 + y^0.5": ((1.0, 0.5, 0.0), (1.0, 0.0, 0.5)),
    "x^0.5*y^0.7 + x*y": ((1.0, 0.5, 0.7), (1.0, 1.0, 1.0)),
    "2*x^0.3*y": ((2.0, 0.3, 1.0),),
}


class TestFoldedFallbackAgainstClosedForms:
    """The forced fallback on the unit square, where the folded kernels
    (xi^(o-1) + (1-xi)^(o-1)) of the middle term and A and
    ((1-xi)^o - xi^o) of the lemma1 kernel integrate monomials in closed form."""

    ORDERS = [(0.2, 0.3), (0.5, 1.3), (2.5, 0.7), (1.0, 2.0)]

    @pytest.mark.parametrize("src", sorted(SEPARABLE))
    @pytest.mark.parametrize("order", ORDERS)
    def test_middle_and_a(self, monkeypatch, src, order):
        al, be = order
        terms = SEPARABLE[src]
        f = parse_function_spec(src)
        middle = 0.25 * al * be * sum(c * folded_moment(al, px, 1) * folded_moment(be, py, 1)
                                      for c, px, py in terms)
        # f(0, y) + f(1, y) and f(x, 0) + f(x, 1) per term: 0^0 = 1
        a = 0.25 * sum(c * (be * (0.0**px + 1.0) * folded_moment(be, py, 1)
                            + al * (0.0**py + 1.0) * folded_moment(al, px, 1))
                       for c, px, py in terms)
        order = FracOrder(*order)
        for fn, exact in ((middle_fractional_term_with_estimate, middle),
                          (a_term_with_estimate, a)):
            value, err = graded(monkeypatch, fn, f, order, UNIT_SQ, SPEC)
            assert abs(value - exact) <= err, (fn.__name__, value, exact, err)

    @pytest.mark.parametrize("order", ORDERS)
    def test_kernel(self, monkeypatch, order):
        # f = x^2.5 y^1.5, D = 3.75 x^1.5 y^0.5; x(t) = 1 - t on [0, 1], so
        # int (t^a - (1-t)^a) x(t)^p dt = -folded_moment(a + 1, p, -1) per axis
        f = BivariateFunction(lambda x, y: x**2.5 * y**1.5,
                              lambda x, y: 3.75 * x**1.5 * y**0.5)
        al, be = order
        exact = 0.25 * 3.75 * folded_moment(al + 1.0, 1.5, -1) * folded_moment(be + 1.0, 0.5, -1)
        value, err = graded(monkeypatch, certify._folded_derivative_integral,
                            f, FracOrder(*order), UNIT_SQ, SPEC)
        assert abs(value - exact) <= err, (value, exact, err)


class TestFallbackThatDoesNotConverge:
    """An interior kink defeats the graded rule too: it raises, naming the quantity."""

    SRC = "sqrt(abs(x-0.3)) + y"

    @pytest.mark.parametrize("fn, what", [(middle_fractional_term_with_estimate, "middle term"),
                                          (a_term_with_estimate, "A term")])
    def test_raises_naming_the_quantity(self, fn, what):
        with pytest.raises(QuadratureNonConvergenceError, match=f"^{what}: "):
            fn(parse_function_spec(self.SRC), FracOrder(0.5, 1.3), UNIT_SQ)

    def test_verify_reports_an_error(self, capsys):
        argv = ["verify", "--theorem", "t4", "--f", self.SRC, "--rect", "0", "1", "0", "1",
                "--alpha", "0.5", "--beta", "1.3", "--h", "identity", "--format", "json"]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["error"].startswith("QuadratureNonConvergenceError: middle term: ")


def run_levels(monkeypatch, fn, *args):
    """``fn(*args)``, the ``(n, (value, magnitude))`` of each product-rule
    level it ran, and the ``product_weights`` it asked for."""
    levels, weights = [], []
    pw = certify.product_weights

    def recording(level, spec, what, graded=None):
        def recorded(n):
            levels.append((n, level(n)))
            return levels[-1][1]
        return quadrature.two_level(recorded, spec, what, graded)

    def count_weights(order, n, parity):
        weights.append((order, n, parity))
        return pw(order, n, parity)

    with monkeypatch.context() as m:
        m.setattr(certify, "two_level", recording)
        m.setattr(certify, "product_weights", count_weights)
        return fn(*args), levels, weights


def pair_estimate(levels, n, spec):
    """``(value, error)`` of the level pair (n, 2n) alone: the finer value,
    the gap plus the floor of the finer magnitude."""
    (coarse, _), (fine, magnitude) = levels[n], levels[2 * n]
    gap = abs(coarse - fine)
    assert gap <= spec.target_rel_tol * max(1.0, abs(fine))  # no fallback
    return fine, gap + quadrature.error_floor(magnitude)


class TestProbe:
    """The probe (n/2, n) of ``two_level`` on the theorem quantities: an
    early exit at 2n nodes gives what the pair (n, 2n) gives at n, and a
    failed probe gives the pair (n, 2n) at the same n, bit for bit."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("rect", [UNIT_SQ, OFF_SQ], ids=["unit", "off"])
    def test_early_exit_at_2n_is_the_pair_at_n(self, monkeypatch, order, rect):
        spec = QuadratureSpec(nodes_per_axis=128)
        f = parse_function_spec(SMOOTH[3])
        order = FracOrder(*order)
        for fn, args in quantities(f, order, rect):
            result, levels, _ = run_levels(monkeypatch, fn, *args[:3], spec)
            assert [n for n, _ in levels] == [64, 128], fn.__name__
            assert result == pair_estimate(dict(levels), 64, spec), fn.__name__

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_failed_probe_is_the_pair_at_n(self, monkeypatch, alpha):
        # exp(x+y) at 16 nodes: levels 8 and 16 differ by more than round-off
        spec = QuadratureSpec(nodes_per_axis=16)
        f = parse_function_spec("exp(x+y)")
        for fn, args in quantities(f, FracOrder(alpha, 1.3), UNIT_SQ)[:2]:
            result, levels, _ = run_levels(monkeypatch, fn, *args[:3], spec)
            assert [n for n, _ in levels] == [8, 16, 32], fn.__name__
            assert result == pair_estimate(dict(levels), 16, spec), fn.__name__

    @pytest.mark.parametrize("nodes", [64, 128])
    def test_an_endpoint_singularity_still_falls_back(self, monkeypatch, nodes):
        spec = QuadratureSpec(nodes_per_axis=nodes)
        f = parse_function_spec("x^0.5 + y^0.5")
        (middle, args), (a, a_args), _ = quantities(f, FracOrder(0.5, 1.3), UNIT_SQ)
        assert fallbacks(monkeypatch, middle, *args[:3], spec) == ["middle term"]
        assert fallbacks(monkeypatch, a, *a_args[:3], spec) == ["A term"]


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
        monkeypatch.setattr(fracquad, "power_weighted_rule", no_graded_rule)
        out = _sweep(capsys, "--theorem", "lemma1", "--f", "builtin:expsum",
                     "--rect", "0", "1", "0", "1", "--nodes", "32", "--jobs", "1",
                     "--axis", f"alpha={ALPHAS}", "--axis", f"beta={BETAS}")
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 72 and all(",true," in r for r in rows)
        # the grid and its four edge sections, at n = 16 and 32: every
        # quantity stops at the probe, so no level of 64 nodes is sampled
        assert samples == [(16, 16), (2, 16), (16, 2), (32, 32), (2, 32), (32, 2)]
        assert partials == [(16, 16), (32, 32)]
        assert graded_rules == []


    def test_mixed_partial_differentiated_once(self, monkeypatch, capsys):
        calls = []
        diff = funcspace._diff

        def count_diff(expr, var):
            calls.append(var)
            return diff(expr, var)

        monkeypatch.setattr(funcspace, "_diff", count_diff)
        assert main(["verify", "--theorem", "t4", "--f", "exp(x+y)*sin(x*y)+x^3*y^2",
                     "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "1.3",
                     "--h", "identity"]) == 0
        capsys.readouterr()
        assert calls == []
        out = _sweep(capsys, "--theorem", "lemma1", "--f", "exp(x+y)*sin(x*y)+x^3*y^2",
                     "--rect", "0", "1", "0", "1", "--axis", f"alpha={ALPHAS}",
                     "--axis", f"beta={BETAS}")
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 72 and all(",true," in r for r in rows)
        # one derivative AST for the whole sweep: d/dx, then d/dy of that
        assert calls == ["x", "y"]


class TestHalfProducts:
    """Each grid keeps the x halves of its last bilinear form, keyed by the x
    weights' (order, parity), so a row with the previous alpha costs O(n)."""

    ORDER = FracOrder(0.7, 1.3)

    def test_a_hit_equals_a_miss(self, monkeypatch):
        f = parse_function_spec(SMOOTH[3])
        n = SPEC.nodes_per_axis
        a, b = self.ORDER.alpha, self.ORDER.beta
        x_weights = {"middle_fractional_term_with_estimate": (a, 0),
                     "a_term_with_estimate": None,
                     "_folded_derivative_integral": (a + 1.0, 1)}
        for fn, args in quantities(f, self.ORDER, UNIT_SQ):
            miss = run_levels(monkeypatch, fn, *args)
            hit = run_levels(monkeypatch, fn, *args)
            # the same value and error, and the same value and magnitude at each level
            assert hit[0] == miss[0] and hit[1] == miss[1], fn.__name__
            # the probe (n/2, n) settles it, so 2n is never sampled
            assert [m for m, _ in miss[1]] == [n // 2, n], fn.__name__
            x = x_weights[fn.__name__]
            if x is not None:
                # the miss formed the x weights' half at each level, the hit reused it
                assert [(x[0], k, x[1]) for k in (n // 2, n)] == [
                    w for w in miss[2] if w[::2] == x], fn.__name__
                assert not [w for w in hit[2] if w[::2] == x], fn.__name__
                y = (b, 0) if x[1] == 0 else (b + 1.0, 1)
                assert [w for w in hit[2] if w[::2] == y], fn.__name__
        assert lemma1_residual(f, self.ORDER, UNIT_SQ) == lemma1_residual(
            parse_function_spec(SMOOTH[3]), self.ORDER, UNIT_SQ)

    def test_a_sweep_forms_each_grids_half_once_per_run_of_alpha(self, monkeypatch, capsys):
        misses = []

        class Counting(certify._Grid):
            def bilinear_form(self, x, y):
                if self._last[0] != x:
                    misses.append((self.n, x))
                return super().bilinear_form(x, y)

        monkeypatch.setattr(certify, "_Grid", Counting)
        argv = ("--theorem", "lemma1", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1",
                "--nodes", "32")
        alpha_first = _sweep(capsys, *argv, "--axis", "alpha=0.3,0.9", "--axis", "beta=1.1,1.3,2")
        # f and its mixed partial at n = 16 and 32 (every quantity stops at
        # the probe): one miss per grid and alpha
        assert sorted(misses) == [(k, x) for k in (16, 32)
                                  for x in ((0.3, 0), (0.9, 0), (1.3, 1), (1.9, 1))]
        misses.clear()
        beta_first = _sweep(capsys, *argv, "--axis", "beta=1.1,1.3,2", "--axis", "alpha=0.3,0.9")
        assert len(misses) == 6 * 4  # alpha changes on every row
        assert sorted(alpha_first.split("\n")) == sorted(beta_first.split("\n"))

    def test_a_replaced_half_gives_the_fresh_reports(self):
        f = parse_function_spec(SMOOTH[3])
        first = FracOrder(0.3, 1.3)
        reports = [lemma1_residual(f, FracOrder(a, 1.3), UNIT_SQ) for a in (0.3, 0.9)]
        grid = certify._f_grid(f, UNIT_SQ, SPEC.nodes_per_axis)[0]
        assert grid._last[0] == (0.9, 0)
        again = lemma1_residual(f, first, UNIT_SQ)
        assert again == reports[0] == lemma1_residual(
            parse_function_spec(SMOOTH[3]), first, UNIT_SQ)
        assert grid._last[0] == (0.3, 0)
        h = HWeight.power(0.5)
        assert (theorem4_chain(f, h, first, UNIT_SQ)
                == theorem4_chain(parse_function_spec(SMOOTH[3]), h, first, UNIT_SQ))

    def test_threads_sharing_a_function_get_the_serial_reports(self):
        orders = [FracOrder(0.2 * i, 1.3) for i in range(1, 9)]
        expected = [lemma1_residual(parse_function_spec(SMOOTH[3]), o, UNIT_SQ) for o in orders]
        f = parse_function_spec(SMOOTH[3])
        lemma1_residual(f, orders[0], UNIT_SQ)  # the grids exist before the threads start
        results, errors = {}, []

        def work(k):
            try:
                for rep in range(300):
                    i = (k + rep) % len(orders)
                    results.setdefault(i, set()).add(lemma1_residual(f, orders[i], UNIT_SQ))
            except Exception as exc:  # reported below
                errors.append(exc)

        # Frequent thread switches make a torn or stale half likely if there is one.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert results == {i: {expected[i]} for i in range(len(orders))}


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

    def test_rows_run_on_the_calling_thread(self, monkeypatch, capsys):
        serial = _sweep(capsys, *self.ARGS, "--jobs", "1")

        def no_thread(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert _sweep(capsys, *self.ARGS, "--jobs", "4") == serial

    def test_cli_import_leaves_out_the_thread_pool(self):
        src = str(Path(funcspace.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        probe = "import sys, hhfrac.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"


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


class TestBoundedMemos:
    """Each memo keyed by an order or a rectangle holds at most its bound."""

    @pytest.mark.parametrize("name, args", [("power_weighted_rule", ()),
                                            ("product_weights", (0,))])
    def test_rule_caches_stop_at_their_bound(self, name, args):
        rule = getattr(quadrature, name)
        for i in range(300):
            rule(1.0 + i / 300, 4, *args)
        info = rule.cache_info()
        assert info.currsize == info.maxsize == quadrature._RULE_CACHE_SIZE == 256

    def test_function_samples_stop_at_their_bound(self):
        f, builds = parse_function_spec("x*y"), []
        for key in range(300):
            assert f.cached(key, lambda key=key: builds.append(key) or (key,)) == (key,)
        assert len(f._samples) == funcspace._SAMPLE_CACHE_KEYS == 16
        # the newest keys stay and are not built again; the oldest are rebuilt
        assert f.cached(299, lambda: (-1,)) == (299,) and f.cached(0, lambda: (-1,)) == (-1,)
        assert builds == list(range(300))
