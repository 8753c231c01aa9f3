import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hhfrac import fracquad, hweights
from hhfrac.cli import main as cli_main
from hhfrac.errors import DomainError, EvaluationDomainError, EvaluationError
from hhfrac.fracquad import Rectangle
from hhfrac.funcspace import builtin_function, parse_function_spec
from hhfrac.hweights import (
    ConvexityCertificate,
    HFamily,
    HWeight,
    check_coordinate_h_convex,
    h_eval,
    inequality_deficit,
    load_table,
    parse_hweight,
    table_pieces,
)

from oracles import coordinate_convex_deficit, coordinate_h_convex_deficit

UNIT_SQ = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)


class TestHWeight:
    def test_families(self):
        assert HWeight.identity().family is HFamily.IDENTITY
        assert HWeight.power(0.5).s == 0.5
        assert HWeight.one().family is HFamily.CONSTANT_ONE
        assert HWeight.godunova_levin().moments_diverge

    def test_power_range(self):
        with pytest.raises(DomainError):
            HWeight.power(0.0)
        with pytest.raises(DomainError):
            HWeight.power(1.5)

    def test_table_validation(self):
        HWeight.from_table([(0.0, 1.0), (0.5, 2.0), (1.0, 1.0)])
        with pytest.raises(DomainError):
            HWeight.from_table([(0.0, 1.0)])
        with pytest.raises(DomainError):
            HWeight.from_table([(0.0, 1.0), (0.5, -2.0)])
        with pytest.raises(DomainError):
            HWeight.from_table([(0.5, 1.0), (0.2, 2.0)])


class TestHEval:
    def test_examples(self):
        assert h_eval(HWeight.identity(), 0.5) == 0.5
        assert h_eval(HWeight.power(0.5), 0.25) == pytest.approx(0.5, rel=1e-15)
        assert h_eval(HWeight.one(), 0.9) == 1.0
        assert h_eval(HWeight.godunova_levin(), 0.25) == 4.0

    def test_gl_endpoints_rejected(self):
        for t in (0.0, 1.0):
            with pytest.raises(DomainError):
                h_eval(HWeight.godunova_levin(), t)

    def test_finite_families_allow_endpoints(self):
        assert h_eval(HWeight.identity(), 0.0) == 0.0
        assert h_eval(HWeight.power(0.5), 1.0) == 1.0

    def test_out_of_range(self):
        for t in (-0.1, 1.1):
            with pytest.raises(DomainError):
                h_eval(HWeight.identity(), t)

    def test_table_interpolation(self):
        h = HWeight.from_table([(0.0, 1.0), (1.0, 3.0)])
        assert h_eval(h, 0.5) == pytest.approx(2.0)

    def test_array_input(self):
        out = h_eval(HWeight.power(0.5), np.array([0.25, 1.0]))
        np.testing.assert_allclose(out, [0.5, 1.0])

    @pytest.mark.parametrize("knots", [
        [(0.0, 0.05), (0.25, 0.3), (0.5, 0.6), (0.75, 0.8), (1.0, 1.0)],
        [(0.1, 0.4), (0.3, 0.35), (0.55, 0.9), (0.8, 0.85)],
    ])
    def test_table_pieces_extend_as_h_eval(self, knots):
        h = HWeight.from_table(knots)
        pieces = table_pieces(h)
        assert pieces[0][0] == 0.0 and pieces[-1][1] == 1.0
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
        for t0, t1, p, q in pieces:
            t = np.linspace(t0, t1, 7)
            np.testing.assert_allclose(p + q * t, h_eval(h, t), rtol=1e-14, atol=1e-15)


class TestParseHWeight:
    def test_syntax(self):
        assert parse_hweight("identity").family is HFamily.IDENTITY
        assert parse_hweight("power:0.5").s == 0.5
        assert parse_hweight("one").family is HFamily.CONSTANT_ONE
        assert parse_hweight("gl").family is HFamily.GODUNOVA_LEVIN

    def test_table_path(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("# knots\n0.0 1.0\n0.5, 2.0\n1.0 1.0\n")
        h = parse_hweight(f"table:{p}")
        assert h.family is HFamily.TABLE and len(h.table) == 3

    def test_table_file_errors_name_the_file(self, tmp_path):
        p = tmp_path / "h.txt"
        with pytest.raises(DomainError, match=f"cannot read h table {p}"):
            load_table(str(p))
        p.write_text("0 1\n\n1 x\n")
        with pytest.raises(DomainError, match=f"bad table line 3 in {p}: '1 x'"):
            load_table(str(p))
        p.write_text("0 1\n0.5 2 3\n")
        with pytest.raises(DomainError, match="bad table line 2"):
            load_table(str(p))
        p.write_text("0 1\n0.5 -2\n")
        with pytest.raises(DomainError, match=f"h table {p}: "):
            load_table(str(p))

    def test_bad(self):
        with pytest.raises(DomainError):
            parse_hweight("powerful")
        with pytest.raises(DomainError):
            parse_hweight("power:zz")


class TestCertifier:
    def test_bilinear_passes(self):
        cert = check_coordinate_h_convex(builtin_function("product"),
                                         HWeight.identity(), UNIT_SQ, grid=9)
        assert cert.passed
        assert cert.worst_violation == 0.0
        assert "not a proof" in cert.message
        assert cert.samples_checked == 9 * 9 * 9**4

    def test_concave_fails_with_witness(self):
        f = parse_function_spec("0-x^2-y^2")
        cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=9)
        assert cert.verdict == "fail"
        assert cert.witness is not None
        t, k, p1, p2 = cert.witness
        # independent re-evaluation of the identity-weight inequality
        deficit = coordinate_convex_deficit(lambda x, y: -(x * x + y * y),
                                            t, k, p1[0], p1[1], p2[0], p2[1])
        assert deficit > cert.tol / 2.0
        assert cert.witness_deficit == pytest.approx(deficit, rel=1e-12)

    def test_s_convex_power_family(self):
        f = parse_function_spec("x^0.5 + y^0.5")
        cert = check_coordinate_h_convex(f, HWeight.power(0.5), UNIT_SQ, grid=17)
        assert cert.passed

    def test_power_family_agrees_with_brute_force(self):
        # full nested-loop evaluation of the weighted inequality on the
        # same small grid the library samples
        fs = lambda x, y: math.sqrt(x) + math.sqrt(y)
        hf = lambda t: math.sqrt(t)
        g = 5
        xs = np.linspace(0.0, 1.0, g)
        ts = np.linspace(0.0, 1.0, g)
        worst = -np.inf
        for t, k, x, y, u, w in itertools.product(ts, ts, xs, xs, xs, xs):
            worst = max(worst, coordinate_h_convex_deficit(fs, hf, t, k, x, u, y, w))
        cert = check_coordinate_h_convex(parse_function_spec("x^0.5 + y^0.5"),
                                         HWeight.power(0.5), UNIT_SQ,
                                         grid=g, tol=1e-10)
        assert cert.passed == (worst <= 1e-10)
        assert cert.passed

    def test_reduction_coherence_with_direct_check(self):
        # identity-weight verdict must agree with a direct brute-force check
        # of the plain coordinated-convexity inequality on the same grid
        for src, expected in (("x*y", True), ("exp(x+y)", True),
                              ("0-x^2", False)):
            f = parse_function_spec(src)
            g = 5
            cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ,
                                             grid=g, tol=1e-10)
            xs = np.linspace(0.0, 1.0, g)
            ts = np.linspace(0.0, 1.0, g)
            worst = -np.inf
            for t, k, x, y, u, w in itertools.product(ts, ts, xs, xs, xs, xs):
                worst = max(worst, coordinate_convex_deficit(
                    lambda a, b: f(a, b), t, k, x, u, y, w))
            assert cert.passed == (worst <= 1e-10) == expected, src

    def test_monotone_refinement_subset(self):
        # grid 2n+1 samples contain the grid n+1 samples, so a pass at the
        # fine grid implies no violation at the coarse one (fixed tol)
        f = parse_function_spec("x^2*y^2")
        fine = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ,
                                         grid=17, tol=1e-9)
        coarse = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ,
                                           grid=9, tol=1e-9)
        assert fine.passed and coarse.passed
        fine_t = np.linspace(0.0, 1.0, 17)
        coarse_t = np.linspace(0.0, 1.0, 9)
        assert set(np.round(coarse_t, 12)) <= set(np.round(fine_t, 12))

    def test_nonnegativity_enforced_for_nonidentity(self):
        f = parse_function_spec("x + y - 1")  # negative near the origin
        with pytest.raises(DomainError, match="f >= 0"):
            check_coordinate_h_convex(f, HWeight.power(0.5), UNIT_SQ, grid=5)
        # identity family imposes no sign restriction
        cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=5)
        assert cert.passed

    def test_negative_value_is_named_in_plain_floats(self):
        f = parse_function_spec("exp(x+y)*sin(x*y)+x^3*y^2")
        with pytest.raises(DomainError) as ei:
            check_coordinate_h_convex(f, HWeight.power(0.5), Rectangle.from_bounds(1, 2, 0.5, 3))
        assert str(ei.value).endswith("f(1.625, 3.0) = -62.03800531788744")

    def test_concave_direction_flag(self):
        f = parse_function_spec("0-x^2-y^2")
        cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ,
                                         grid=9, direction="concave")
        assert cert.passed
        cert2 = check_coordinate_h_convex(parse_function_spec("x^2+y^2"),
                                          HWeight.identity(), UNIT_SQ,
                                          grid=9, direction="concave")
        assert not cert2.passed

    def test_gl_skips_endpoint_spot_checks(self):
        f = builtin_function("bilinear", 1.0, 0.0, 0.0, 0.0)  # constant 1
        cert = check_coordinate_h_convex(f, HWeight.godunova_levin(), UNIT_SQ,
                                         grid=9)
        # interior t-grid only: (9-2)^2 * 9^4 configurations
        assert cert.samples_checked == 7 * 7 * 9**4
        assert cert.passed

    def test_grid_minimum(self):
        with pytest.raises(DomainError):
            check_coordinate_h_convex(builtin_function("product"),
                                      HWeight.identity(), UNIT_SQ, grid=2)

    def test_grid_maximum(self):
        with pytest.raises(DomainError, match="grid must lie in"):
            check_coordinate_h_convex(builtin_function("product"), HWeight.identity(),
                                      UNIT_SQ, grid=hweights.MAX_GRID + 1)

    def test_default_tolerance_scales_with_f(self):
        f = builtin_function("bilinear", 0.0, 0.0, 0.0, 1e6)
        cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=5)
        assert cert.tol >= 1e-10 * 1e6 * 0.9

    def test_inequality_deficit_matches_oracle(self):
        f = builtin_function("quadratic")
        args = (0.3, 0.7, (0.2, 0.9), (0.8, 0.1))
        lib = inequality_deficit(f, HWeight.identity(), *args)
        ora = coordinate_convex_deficit(lambda x, y: x * x + y * y, 0.3, 0.7,
                                        0.2, 0.9, 0.8, 0.1)
        assert lib == pytest.approx(ora, rel=1e-12, abs=1e-15)

    def test_inequality_deficit_rejects_an_unknown_direction(self):
        args = (0.3, 0.7, (0.2, 0.9), (0.8, 0.1))
        with pytest.raises(DomainError, match="direction must be 'convex' or 'concave'"):
            inequality_deficit(builtin_function("quadratic"), HWeight.identity(), *args,
                               "concav")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_unusable_tolerance_raises_before_sampling(self, tol):
        # inf would pass every violation, nan fail by "0.000000e+00 (tol nan)"
        calls = []

        def f(x, y):
            calls.append(x)
            return x * y

        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=5, tol=tol)
        assert calls == []


# ---------------------------------------------------------------------------
# the sampling kernel against a brute-force sweep of every configuration
# ---------------------------------------------------------------------------

_TABLE = ((0.0, 0.25), (0.5, 0.75), (1.0, 1.25))

#: Each weight with an evaluation of its own, independent of ``h_eval``.
WEIGHTS = {
    "identity": (HWeight.identity(), lambda t: t),
    "power:0.5": (HWeight.power(0.5), np.sqrt),
    "one": (HWeight.one(), np.ones_like),
    "gl": (HWeight.godunova_levin(), lambda t: 1.0 / t),
    "table": (HWeight.from_table(_TABLE),
              lambda t: np.interp(t, [p[0] for p in _TABLE], [p[1] for p in _TABLE])),
}


def brute_force_certificate(f, hf, g, finite_at_endpoints, direction, rect=UNIT_SQ):
    """Worst deficit and default tolerance over all g^6 configurations
    (t, k, x, y, u, w) of the rectangle's grid, no symmetry used."""
    xs = np.linspace(rect.a, rect.b, g)
    ys = np.linspace(rect.c, rect.d, g)
    ts = np.linspace(0.0, 1.0, g)
    if not finite_at_endpoints:
        ts = ts[1:-1]
    T = ts[:, None, None, None, None, None]
    K = ts[None, :, None, None, None, None]
    X = xs[None, None, :, None, None, None]
    Y = xs[None, None, None, :, None, None]
    U = ys[None, None, None, None, :, None]
    W = ys[None, None, None, None, None, :]
    lhs = f(T * X + (1 - T) * Y, K * U + (1 - K) * W)
    rhs = (hf(T) * hf(K) * f(X, U) + hf(K) * hf(1 - T) * f(Y, U)
           + hf(T) * hf(1 - K) * f(X, W) + hf(1 - T) * hf(1 - K) * f(Y, W))
    deficit = rhs - lhs if direction == "concave" else lhs - rhs
    max_abs = max(np.abs(f(xs[:, None], ys[None, :])).max(), np.abs(lhs).max())
    return float(deficit.max()), 1e-10 * (1.0 + float(max_abs))


def assert_matches_brute_force(src, weight, direction, g, rect):
    h, hf = WEIGHTS[weight]
    f = parse_function_spec(src)
    worst, tol = brute_force_certificate(f, hf, g, h.finite_at_endpoints, direction, rect)
    cert = check_coordinate_h_convex(f, h, rect, grid=g, direction=direction)
    assert cert.tol == pytest.approx(tol, rel=1e-12)
    assert cert.passed == (worst <= tol)
    if cert.passed:
        assert cert.worst_violation == 0.0 and cert.witness is None
        return
    assert cert.worst_violation == pytest.approx(worst, abs=1e-12)
    t, k, (x, u), (y, w) = cert.witness
    assert x <= y and u <= w
    assert inequality_deficit(f, h, t, k, (x, u), (y, w), direction) > cert.tol


class TestCertifierKernel:
    @pytest.mark.parametrize("g", [5, 7, 9])
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    @pytest.mark.parametrize("src", ["exp(x+y)", "2+sin(5*x*y)", "x^2", "3"])
    def test_matches_brute_force(self, src, weight, direction, g):
        assert_matches_brute_force(src, weight, direction, g, UNIT_SQ)

    @pytest.mark.parametrize("g", [7, 9])
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    @pytest.mark.parametrize("src", ["exp(x+y)", "x^2", "3"])
    def test_matches_brute_force_on_a_non_dyadic_rectangle(self, src, weight, direction, g):
        # few combination abscissas coincide here, unlike on the unit square
        assert_matches_brute_force(src, weight, direction, g,
                                   Rectangle.from_bounds(0.3, 1.7, -0.9, 2.3))

    @pytest.mark.parametrize("direction", ["convex", "concave"])
    def test_negative_combination_values_set_the_tolerance(self, direction):
        # f vanishes on the grid abscissas and reaches -1 between them, so
        # only the left sides' minimum carries max |f|
        f = parse_function_spec("0-sin(4*3.141592653589793*x)^2")
        worst, tol = brute_force_certificate(f, lambda t: t, 5, True, direction)
        cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=5,
                                         direction=direction)
        assert tol == pytest.approx(2e-10, rel=1e-12)
        assert cert.tol == pytest.approx(tol, rel=1e-12)
        assert cert.passed == (worst <= tol)

    @pytest.mark.parametrize("budget", [8, 7 * 45 * 8, 4 * 45 * 45 * 8])
    def test_blocks_do_not_change_the_result(self, monkeypatch, budget):
        # grid 9 has 45 index pairs per axis: one pair per block, ragged
        # blocks of 7 pairs, and ragged blocks of 4 k-slices
        cases = [("x^2+y^2", HWeight.identity(), "concave"),  # many exact ties
                 ("2+sin(5*x*y)", HWeight.power(0.5), "convex"),
                 ("exp(x+y)", HWeight.godunova_levin(), "convex")]

        def run():
            return [check_coordinate_h_convex(parse_function_spec(src), h, UNIT_SQ,
                                              grid=9, direction=d)
                    for src, h, d in cases]

        monkeypatch.setattr(hweights, "_BLOCK_BYTES", 1 << 40)
        whole = run()
        monkeypatch.setattr(hweights, "_BLOCK_BYTES", budget)
        assert run() == whole

    @staticmethod
    def count_points(h, bend, g=7):
        """The certificate of exp(x+y) + bend*(x - x^2) at grid g, the points
        f was evaluated at per call, the sections' and the sweep's counts."""
        points = []

        def f(x, y):
            points.append(np.broadcast(x, y).size)
            return np.exp(x + y) + bend * (x - x * x)

        cert = check_coordinate_h_convex(f, h, UNIT_SQ, grid=g)
        xs = [Fraction(i, g - 1) for i in range(g)]
        ts = xs if h.finite_at_endpoints else xs[1:-1]
        # the combination abscissas are distinct in exact arithmetic
        abscissas = {t * xs[i] + (1 - t) * xs[j]
                     for t in ts for i in range(g) for j in range(i, g)}
        ordinates = abscissas  # the unit square has the same grid on both axes
        # T = f(abscissas, ordinates); its rows at the grid abscissas are
        # the sections in y
        sections = len(abscissas) * len(ordinates)
        sweep = len(ts) * len(abscissas) * g * (g + 1) // 2
        return cert, points, sections, sweep

    @pytest.mark.parametrize("h", [HWeight.identity(), HWeight.godunova_levin()])
    def test_evaluates_only_canonical_pairs(self, h):
        g = 7
        npair = g * (g + 1) // 2
        cert, points, sections, sweep = self.count_points(h, 0.0, g)
        nt = g if h.finite_at_endpoints else g - 2
        assert cert.passed and cert.samples_checked == nt**2 * g**4
        assert points[0] == g * g  # the grid itself
        # a pass settled by the sections evaluates no sweep point
        assert sum(points[1:]) == sections
        assert sections < sweep < nt**2 * npair**2  # every canonical pair

    def test_a_fail_evaluates_the_sections_then_the_rows_that_can_hold_the_witness(
            self, monkeypatch):
        # concave in x where exp(x+y) < 6: the bound of every t exceeds the
        # tolerance, so the sections are walked again, whole, for each row's
        # own bound
        calls = record_sections(monkeypatch)
        cert, points, sections, sweep = self.count_points(HWeight.identity(), 3.0)
        assert cert.verdict == "fail"
        (*_, IX, _, _, _, _), (U, _) = calls[0]
        live = (U >= cert.worst_violation) & (U > cert.tol)
        top = U == U.max()
        assert live[top].all() and top.sum() == 1
        # one abscissa per k for the row of the largest bound, then the
        # abscissas of the other rows that reach its worst deficit
        swept = 7 * 28 * (1 + np.unique(IX[live & ~top]).size)
        assert points[0] == 7 * 7
        assert sum(points[1:-5]) == 2 * sections + swept
        assert swept < sweep / 5
        assert points[-5:] == [1] * 5  # the witness re-evaluated point by point

    def test_the_second_walk_evaluates_only_the_t_whose_bounds_exceed_the_tolerance(
            self, monkeypatch):
        # h(t) = sqrt(t) and a deeper bend: some t keep their bounds within
        # the tolerance after the first walk, and the abscissas that only
        # they combine are not evaluated again
        calls = record_sections(monkeypatch)
        abscissas = []

        def f(x, y):
            abscissas.append(np.unique(np.broadcast_to(x, np.broadcast(x, y).shape)))
            return np.exp(x + y) + 5.0 * (x - x * x)

        cert = check_coordinate_h_convex(f, HWeight.power(0.5), UNIT_SQ, grid=7)
        assert cert.verdict == "fail"
        (*_, ux, _, IX, _, _, _, _), (U, _) = calls[0]
        # one chunk of sections per walk at grid 7: the grid, then both walks
        first, second = abscissas[1:3]
        assert first.tolist() == ux.tolist()
        assert set(second.tolist()) < set(first.tolist())  # 33 of 37
        # every row that can hold the witness has its own bound
        rows = (U > cert.tol).any(axis=1)
        assert set(ux[IX[rows]].ravel().tolist()) <= set(second.tolist())
        assert not rows.all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lo, hi, match", [
        (0.1, 0.2, "combination point"),  # no grid abscissa lies in (0.1, 0.2)
        (0.4, 0.6, r"not finite at \(x="),
    ])
    def test_non_finite_values_raise(self, bad, lo, hi, match):
        def f(x, y):
            return np.where((x > lo) & (x < hi), bad, x * y)

        with pytest.raises(EvaluationError, match=match):
            check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=5)

    def test_non_finite_combination_point_is_named(self):
        # 1/16 is the combination abscissa (3/4)*0 + (1/4)*(1/4) of grid 5,
        # and no grid abscissa
        def f(x, y):
            return np.where((x == 0.0625) & (y == 0.0), np.inf, x * y)

        with pytest.raises(EvaluationError, match=re.escape(
                "function value at a combination point not finite at (x=0.0625, y=0.0)")):
            check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=5)

    def test_each_table_is_one_sampler_call_by_default(self):
        # a table holds at most _BLOCK_BYTES // 8 points
        assert fracquad._BLOCK_POINTS >= hweights._BLOCK_BYTES // 8

    def test_memory_is_bounded_by_the_block_budget(self, monkeypatch):
        budget = 1 << 20
        monkeypatch.setattr(hweights, "_BLOCK_BYTES", budget)
        f = parse_function_spec("exp(x+y)*sin(x*y)+x^3*y^2")
        tracemalloc.start()
        try:
            cert = check_coordinate_h_convex(f, HWeight.power(0.5), UNIT_SQ, grid=25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.samples_checked == 25**6
        # one float64 array over (k, x, y, u, w) alone would take 78 MB
        assert peak < 8 * budget


# ---------------------------------------------------------------------------
# the section test that settles a pass before the sweep
# ---------------------------------------------------------------------------

NON_DYADIC = Rectangle.from_bounds(0.3, 1.7, -0.9, 2.3)


def sweep_only(monkeypatch):
    """Take the row bounds away, as when f fails in the sections, so every
    row is swept and every certificate comes from the full sweep."""
    monkeypatch.setattr(hweights, "_row_bounds", lambda *args: None)


def record_sections(monkeypatch):
    """Record the arguments of each call of the row bounds and what it
    returned: the bounds U[t, pair] and max |f|, or None."""
    calls = []
    real = hweights._row_bounds

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(hweights, "_row_bounds", spy)
    return calls


def is_settled(call):
    """Whether a recorded call's bounds left no row above the tolerance, so
    the certificate is a pass without a sweep."""
    args, bounds = call
    return (bounds is not None
            and bounds[0].max() <= hweights._tolerance(args[-2], bounds[1]))


#: Sources whose certificates the pruned sweep must reproduce: convex, many
#: exact ties (x^2+y^2 concave), a saddle and, last, the fails of the
#: benchmark (bump, dip).
MATRIX_SOURCES = [
    "exp(x+y)", "2+sin(5*x*y)", "x^2", "3", "x^2+y^2", "(x-0.5)^2-(y-0.5)^2+2",
    "x^2+y^2+0.437*sin(3.141592653589793*x)*sin(3.141592653589793*y)",
    "x*y-0.3*(x-0.5)^2",
]


class TestSectionTest:
    @pytest.mark.parametrize("rect", [UNIT_SQ, NON_DYADIC], ids=["unit", "non-dyadic"])
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    @pytest.mark.parametrize("src", MATRIX_SOURCES)
    def test_changes_no_certificate(self, monkeypatch, src, weight, direction, rect):
        # tol 0 and 1e-13 leave the rounding margin no slack; at grid 7 no
        # lattice point or deficit is dyadic.  Grid 17, the benchmark's, runs
        # its two fails on its unit square at the default tolerance only, as
        # each full sweep there costs about ten pruned certificates.
        h = WEIGHTS[weight][0]
        f = parse_function_spec(src)
        cases = [(g, tol) for g in (5, 7, 9) for tol in (None, 0.0, 1e-13)]
        cases += [(17, None)] if rect is UNIT_SQ and src in MATRIX_SOURCES[-2:] else []

        def run():
            certs = []
            for g, tol in cases:
                try:
                    certs.append(check_coordinate_h_convex(f, h, rect, grid=g, tol=tol,
                                                           direction=direction))
                except (DomainError, EvaluationDomainError) as exc:
                    certs.append(repr(exc))  # f < 0, or a power of a negative ordinate
            return certs

        with_sections = run()
        sweep_only(monkeypatch)
        assert run() == with_sections

    @pytest.mark.parametrize("src, verdict", [("x*y", "pass"), ("0-x^2-y^2", "fail")])
    def test_cli_json_is_byte_identical(self, monkeypatch, capsys, src, verdict):
        argv = ["check-hconvex", "--f", src, "--h", "identity",
                "--rect", "0.3", "1.7", "-0.9", "2.3", "--grid", "9", "--format", "json"]

        def run():
            code = cli_main(argv)
            return code, capsys.readouterr().out

        with_sections = run()
        assert json.loads(with_sections[1])["result"]["verdict"] == verdict
        sweep_only(monkeypatch)
        assert run() == with_sections

    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    def test_a_settled_pass_passes_every_configuration(self, monkeypatch, weight,
                                                       direction):
        h, hf = WEIGHTS[weight]
        calls = record_sections(monkeypatch)
        sources = ["x*y", "exp(x+y)", "x^2", "3", "2+sin(5*x*y)", "x^2*y^2",
                   "0-x^2-y^2", "x^0.5+y^0.5", "1+x^0.5*y^0.5"]
        for src, rect, g in itertools.product(sources, (UNIT_SQ, NON_DYADIC), (5, 7)):
            f = parse_function_spec(src)
            try:
                cert = check_coordinate_h_convex(f, h, rect, grid=g, direction=direction)
            except (DomainError, EvaluationDomainError):
                continue  # f < 0, or a power of a negative ordinate
            if not is_settled(calls[-1]):
                continue
            worst, tol = brute_force_certificate(f, hf, g, h.finite_at_endpoints,
                                                 direction, rect)
            assert cert.passed and cert.tol == pytest.approx(tol, rel=1e-12)
            assert worst <= tol, (src, rect, g)
        assert any(is_settled(c) for c in calls)

    @pytest.mark.parametrize("rect", [UNIT_SQ, NON_DYADIC], ids=["unit", "non-dyadic"])
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    def test_every_row_bound_holds(self, monkeypatch, weight, direction, rect):
        # Every deficit of a row (t, pair), as the sweep computes it, is at
        # most the row's bound.  Where h(t) + h(1-t) varies with t (power,
        # Godunova-Levin, table) and the deficits in y are negative, a bound
        # that weighs them with the largest sum instead of h(t) falls short.
        h = WEIGHTS[weight][0]
        calls = record_sections(monkeypatch)
        peak = "exp(0-50*(x-0.5)^2-50*(y-0.5)^2)"  # fails for every weight
        for src, g in itertools.product(MATRIX_SOURCES + [peak], (5, 9)):
            try:
                check_coordinate_h_convex(parse_function_spec(src), h, rect, grid=g,
                                          direction=direction)
            except (DomainError, EvaluationDomainError):
                continue  # f < 0, or a power of a negative ordinate
            (f, F, _, i1, i2, ux, uy, IX, ht, hmt, _, _), (U, _) = calls[-1]
            # D[t, p, k, q] = L - (h(t) G[k, x_p, q] + h(1-t) G[k, y_p, q]),
            # G[k, i, q] = h(k) F[i, u_q] + h(1-k) F[i, w_q]
            L = fracquad._sample_2d(f, ux, uy)[IX[:, :, None, None], IX[None, None]]
            G = ht[:, None, None] * F[:, i1] + hmt[:, None, None] * F[:, i2]
            G1, G2 = G[:, i1].transpose(1, 0, 2)[None], G[:, i2].transpose(1, 0, 2)[None]
            D = L - (ht[:, None, None, None] * G1 + hmt[:, None, None, None] * G2)
            assert (D.max(axis=(2, 3)) <= U).all(), (src, g)
        assert not all(is_settled(c) for c in calls)  # the bounds per row

    @pytest.mark.parametrize("f, rows", [
        (lambda x, y: x * x + y * y + 0.437 * np.sin(np.pi * x) * np.sin(np.pi * y), 34),
        (lambda x, y: x * y - 0.3 * (x - 0.5) ** 2, 1),
    ], ids=["bump", "dip"])
    def test_a_fail_at_grid_17_sweeps_only_the_rows_that_can_hold_the_witness(
            self, monkeypatch, f, rows):
        # The fails of the benchmark: of 2,601 rows, only those whose bound
        # reaches the worst deficit are swept.  Each holds the combination
        # abscissa 1/2, so the sweep evaluates f at that one abscissa per k:
        # once for the row of the largest bound, once for the others.
        calls = record_sections(monkeypatch)
        shapes = []

        def record(x, y):
            shapes.append((np.unique(x).tolist(), np.broadcast(x, y).shape))
            return f(x, y)

        cert = check_coordinate_h_convex(record, HWeight.identity(), UNIT_SQ, grid=17)
        assert cert.verdict == "fail"
        (*_, IX, _, _, _, _), (U, _) = calls[0]
        live = (U >= cert.worst_violation) & (U > cert.tol)
        assert live.sum() == rows and U.size == 2601
        sweeps = 2 if rows > 1 else 1
        assert shapes[-5 - 17 * sweeps:-5] == [([0.5], (1, 153))] * 17 * sweeps

    @pytest.mark.parametrize("src, weight, direction", [
        ("x*(1-x)*y*(1-y)", "one", "convex"),
        ("x*(1-x)*y*(1-y)", "power:0.5", "convex"),
        ("x^2+y^2+4*x*(1-x)*y*(1-y)", "identity", "concave"),
    ])
    def test_rows_that_tie_the_worst_deficit_are_swept(self, monkeypatch, src, weight,
                                                       direction):
        # Without the rounding margin, exact dyadic arithmetic makes bounds
        # equal the worst deficit, and the tie's first configuration lies in
        # a row other than the one of the largest bound.
        monkeypatch.setattr(hweights, "_EPS", 0.0)
        f, h = parse_function_spec(src), WEIGHTS[weight][0]
        pruned = [check_coordinate_h_convex(f, h, UNIT_SQ, grid=g, direction=direction)
                  for g in (5, 9)]
        sweep_only(monkeypatch)
        assert pruned == [check_coordinate_h_convex(f, h, UNIT_SQ, grid=g,
                                                    direction=direction)
                          for g in (5, 9)]

    @pytest.mark.parametrize("g", [4, 5, 7])
    @pytest.mark.parametrize("rect", [UNIT_SQ, NON_DYADIC], ids=["unit", "non-dyadic"])
    @pytest.mark.parametrize("h", [HWeight.identity(), HWeight.godunova_levin()],
                             ids=["identity", "gl"])
    def test_every_section_point_is_a_sweep_point(self, monkeypatch, h, rect, g):
        # Godunova-Levin drops t = 0 and 1, yet the diagonal pairs x = y
        # still put every grid abscissa among the combination abscissas
        def evaluated():
            points = set()

            def f(x, y):
                x, y = np.broadcast_arrays(x, y)
                points.update(zip(x.ravel().tolist(), y.ravel().tolist()))
                return 2.0 + x * y

            return check_coordinate_h_convex(f, h, rect, grid=g), points

        calls = record_sections(monkeypatch)
        cert, with_sections = evaluated()
        assert cert.passed and is_settled(calls[0])
        sweep_only(monkeypatch)
        assert evaluated() == (cert, with_sections)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "raise"])
    def test_a_failure_at_a_grid_abscissa_raises_as_in_the_sweep(self, monkeypatch, bad):
        # f fails at the grid abscissa 1.7 off the grid ordinates.  The
        # section test evaluates such points, and so does the sweep through
        # the diagonal pair (1.7, 1.7) at every t.
        g = 4
        yg = np.linspace(-0.9, 2.3, g)

        def f(x, y):
            unsampled = (x == 1.7) & ~np.isin(y, yg)
            if bad == "raise":
                if unsampled.any():
                    raise EvaluationError("f fails off the grid ordinates")
                return 2.0 + x * y
            return np.where(unsampled, bad, 2.0 + x * y)

        def error():
            with pytest.raises(EvaluationError) as info:
                check_coordinate_h_convex(f, HWeight.godunova_levin(), NON_DYADIC, grid=g)
            return type(info.value), str(info.value)

        with_sections = error()
        sweep_only(monkeypatch)
        assert error() == with_sections

    def test_memory_of_a_settled_pass_is_bounded_by_the_block_budget(self, monkeypatch):
        budget = 1 << 20
        monkeypatch.setattr(hweights, "_BLOCK_BYTES", budget)
        calls = record_sections(monkeypatch)
        tracemalloc.start()
        try:
            cert = check_coordinate_h_convex(builtin_function("quadratic"),
                                             HWeight.identity(), UNIT_SQ, grid=40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.passed and is_settled(calls[0])
        # T alone, f over 1,522 x 1,522 distinct abscissas and ordinates,
        # would take 18.5 MB
        assert peak < 8 * budget


# ---------------------------------------------------------------------------
# the integer lattice of combination points
# ---------------------------------------------------------------------------

NARROW = Rectangle.from_bounds(1e6, 1e6 + 1e-9, 1e6, 1e6 + 1e-9)


def sampled_points(f, h, rect, grid, direction="convex"):
    """The certificate and the abscissas and ordinates f was evaluated at."""
    xs, ys = [], []

    def record(x, y):
        x, y = np.broadcast_arrays(x, y)
        xs.append(x.ravel())
        ys.append(y.ravel())
        return f(x, y)

    cert = check_coordinate_h_convex(record, h, rect, grid=grid, direction=direction)
    return cert, np.concatenate(xs), np.concatenate(ys)


class TestLattice:
    @pytest.mark.parametrize("verdict, direction", [("pass", "convex"), ("fail", "concave")])
    def test_grid_21_evaluates_401_distinct_abscissas(self, verdict, direction):
        # t*x + (1-t)*y = m/400 on the unit square; rounding used to split
        # these into 1,044 floats
        cert, xs, ys = sampled_points(lambda x, y: x * x + y * y, HWeight.identity(),
                                      UNIT_SQ, 21, direction)
        assert cert.verdict == verdict
        assert np.unique(xs).size == np.unique(ys).size == 401

    @pytest.mark.parametrize("g", [3, 4, 7, 21, 64])
    @pytest.mark.parametrize("rect", [UNIT_SQ, NON_DYADIC, NARROW],
                             ids=["unit", "non-dyadic", "narrow"])
    def test_grid_points_are_exact(self, rect, g):
        xg = np.linspace(rect.a, rect.b, g)
        m = np.arange((g - 1) ** 2 + 1)
        pts = hweights._lattice(rect.a, rect.b, xg, m)
        assert pts[::g - 1].tobytes() == xg.tobytes()
        # t = 1 gives x, t = 0 gives y, at m = j*i1 + (g-1-j)*i2
        i1, i2 = np.triu_indices(g)
        assert pts[(g - 1) * i1].tobytes() == xg[i1].tobytes()
        assert pts[(g - 1) * i2].tobytes() == xg[i2].tobytes()

    @pytest.mark.parametrize("h", [HWeight.identity(), HWeight.godunova_levin()],
                             ids=["identity", "gl"])
    @pytest.mark.parametrize("g", [4, 7])
    def test_every_grid_abscissa_is_a_combination_abscissa(self, monkeypatch, h, g):
        sweep_only(monkeypatch)
        for rect in (NON_DYADIC, NARROW):
            _, xs, ys = sampled_points(lambda x, y: 2.0 + 0 * x * y, h, rect, g)
            # the grid itself is the first call
            grid_x, grid_y = xs[:g * g].reshape(g, g)[:, 0], ys[:g * g].reshape(g, g)[0]
            assert np.isin(grid_x, xs[g * g:]).all() and np.isin(grid_y, ys[g * g:]).all()

    @pytest.mark.parametrize("h", [HWeight.identity(), HWeight.power(0.5),
                                   HWeight.godunova_levin()], ids=["identity", "power", "gl"])
    @pytest.mark.parametrize("g", [7, 21, 64])
    def test_t_grid_is_exact(self, monkeypatch, h, g):
        # np.linspace(0, 1, g) misses j/(g-1) by an ulp at 1, 7 and 8 points
        class Stop(Exception):
            pass

        seen = {}
        h_eval = hweights.h_eval

        def record_t(hw, t):
            seen["t"] = np.array(t)
            return h_eval(hw, t)

        def stop(ev, F, gx, i1, i2, ux, uy, IX, ht, hmt, *rest):
            seen["hmt"] = hmt
            raise Stop

        monkeypatch.setattr(hweights, "h_eval", record_t)
        monkeypatch.setattr(hweights, "_row_bounds", stop)
        with pytest.raises(Stop):
            check_coordinate_h_convex(lambda x, y: x * x + y * y, h, UNIT_SQ, grid=g)
        j = range(g) if h.finite_at_endpoints else range(1, g - 1)
        assert seen["t"].tobytes() == np.array([i / (g - 1) for i in j]).tobytes()
        mirrored = np.array([(g - 1 - i) / (g - 1) for i in j])
        assert seen["hmt"].tobytes() == h_eval(h, mirrored).tobytes()

    @pytest.mark.parametrize("sections", [True, False], ids=["sections", "sweep"])
    @pytest.mark.parametrize("direction", ["convex", "concave"])
    @pytest.mark.parametrize("rect", [NON_DYADIC, NARROW,
                                      Rectangle.from_bounds(-3.0, 1e-20, 5.0, 7.1)],
                             ids=["non-dyadic", "narrow", "rounded-width"])
    def test_every_sample_lies_in_the_rectangle(self, monkeypatch, rect, direction,
                                                sections):
        if not sections:
            sweep_only(monkeypatch)
        for g in (4, 9, 21):
            _, xs, ys = sampled_points(lambda x, y: (x - rect.a) * (y - rect.c),
                                       HWeight.identity(), rect, g, direction)
            assert rect.a <= xs.min() and xs.max() <= rect.b
            assert rect.c <= ys.min() and ys.max() <= rect.d


class TestConcaveIsConvexOfNegation:
    """The concave check on f is the convex check on -f, which is how the
    certifier runs it: negation is exact, so every field agrees."""

    @pytest.mark.parametrize("rect", [UNIT_SQ, NON_DYADIC], ids=["unit", "non-dyadic"])
    @pytest.mark.parametrize("g", [5, 9, 17, 21])
    def test_field_by_field(self, rect, g):
        verdicts = set()
        for src in ("exp(x+y)", "0-x^2-y^2", "x*y", "2+sin(5*x*y)"):
            f = parse_function_spec(src)
            concave = check_coordinate_h_convex(f, HWeight.identity(), rect, grid=g,
                                                direction="concave")
            convex = check_coordinate_h_convex(lambda x, y: -f(x, y), HWeight.identity(),
                                               rect, grid=g)
            for field in dataclasses.fields(ConvexityCertificate):
                assert getattr(concave, field.name) == getattr(convex, field.name), \
                    (src, field.name)
            verdicts.add(concave.verdict)
        assert verdicts == {"pass", "fail"}


class TestGoldenCertificates:
    """Grid 17 on the unit square: every product t*x is exact, so these
    certificates are those of the float formula t*x + (1-t)*y."""

    def test_pass(self):
        f = parse_function_spec("exp(x+y)*sin(x*y)+x^3*y^2")
        cert = check_coordinate_h_convex(f, HWeight.power(0.5), UNIT_SQ, grid=17)
        assert cert.passed and cert.samples_checked == 17**6
        assert cert.tol.hex() == "0x1.c3c5832ebdea7p-31"

    def test_godunova_levin_pass(self):
        cert = check_coordinate_h_convex(builtin_function("expsum"),
                                         HWeight.godunova_levin(), UNIT_SQ, grid=17)
        assert cert.passed and cert.samples_checked == 15**2 * 17**4
        assert cert.tol.hex() == "0x1.cd3177efd92a0p-31"

    @pytest.mark.parametrize("f, worst, tol, witness, deficit", [
        (lambda x, y: x * x + y * y + 0.437 * np.sin(np.pi * x) * np.sin(np.pi * y),
         "0x1.7ef9db22d0e58p-3", "0x1.49da7e361ce4cp-32",
         (0.0, 0.5, (0.0, 0.0), (0.5, 1.0)), "0x1.7ef9db22d0e58p-3"),
        (lambda x, y: x * y - 0.3 * (x - 0.5) ** 2,
         "0x1.3333333333336p-4", "0x1.a74fddb460d04p-33",
         (0.5, 0.1875, (0.0, 0.25), (1.0, 0.4375)), "0x1.3333333333334p-4"),
    ], ids=["bump", "dip"])
    def test_fail(self, f, worst, tol, witness, deficit):
        cert = check_coordinate_h_convex(f, HWeight.identity(), UNIT_SQ, grid=17)
        assert cert.verdict == "fail" and cert.samples_checked == 17**6
        assert cert.worst_violation.hex() == worst and cert.tol.hex() == tol
        assert cert.witness == witness and cert.witness_deficit.hex() == deficit
