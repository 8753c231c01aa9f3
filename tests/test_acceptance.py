"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria with a runtime budget assert it.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from hhfrac.certify import (
    HolderExponents,
    corollary_moment_c1,
    corollary_moment_c2,
    corollary_moment_c3,
    h_moment_m,
    lemma1_residual,
    theorem1_chain,
    theorem4_chain,
    theorem5_bound,
    theorem6_bound,
)
from hhfrac.cli import main
from hhfrac.fracquad import FracOrder, Interval, Rectangle, Side, frac_integral_1d
from hhfrac.funcspace import builtin_function, parse_function_spec
from hhfrac.hweights import HWeight, check_coordinate_h_convex
from hhfrac.special import gamma as lib_gamma

UNIT = Interval(0.0, 1.0)
UNIT_SQ = Rectangle.from_bounds(0.0, 1.0, 0.0, 1.0)
OFF_SQ = Rectangle.from_bounds(0.5, 2.0, 0.25, 1.5)

LEMMA_FUNCTIONS = (
    ("xy", builtin_function("product")),
    ("x2y2", builtin_function("biquadratic")),
    ("exp(x+y)", builtin_function("expsum")),
    ("x2+y2", builtin_function("quadratic")),
)

CONVEX_CORPUS = tuple(
    [("xy", builtin_function("product"), HWeight.identity()),
     ("x2+y2", builtin_function("quadratic"), HWeight.identity())]
    + [(f"powersum:{s}", builtin_function("powersum", s), HWeight.power(s))
       for s in (0.25, 0.5, 0.75, 1.0)]
)


def _report(number: int, description: str, failures: list,
            elapsed: float | None = None, limit: float | None = None) -> None:
    ok = not failures and (limit is None or elapsed < limit)
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
    if elapsed is not None:
        line += f" [{elapsed:.2f}s" + (f" < {limit:.0f}s]" if limit else "]")
    print(line)
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_1_monomial_oracle():
    t0 = time.perf_counter()
    failures = []
    for mu in (0, 1, 2, 3):
        for alpha in (0.3, 0.5, 1.0, 1.7, 2.0):
            exact = math.gamma(mu + 1.0) / math.gamma(mu + alpha + 1.0)
            got = frac_integral_1d(lambda t: t**mu, alpha, Side.LEFT, UNIT, 1.0)
            rel = abs(got - exact) / abs(exact)
            if rel > 1e-8:
                failures.append((mu, alpha, rel))
    _report(1, "monomial fractional-integral oracle (rel 1e-8)", failures,
            time.perf_counter() - t0, 1.0)


def test_criterion_2_lemma1_identity():
    t0 = time.perf_counter()
    failures = []
    orders = [FracOrder(a, b) for a in (0.5, 1.0, 1.5, 2.0)
              for b in (0.5, 1.0, 1.5, 2.0)]
    for rect in (UNIT_SQ, OFF_SQ):
        for name, f in LEMMA_FUNCTIONS:
            for order in orders:
                rep = lemma1_residual(f, order, rect)
                if rep.residual > 10.0 * rep.quadrature_error:
                    failures.append((name, order.alpha, order.beta,
                                     rect.a, rep.residual, rep.quadrature_error))
    # hand-checkable polynomial case settles the kernel-sign question:
    # corner average 1/4 + middle 1/9 - A 1/3 = 1/36 on both sides
    rep = lemma1_residual(builtin_function("biquadratic"), FracOrder(1, 1), UNIT_SQ)
    if abs(rep.lhs - 1.0 / 36.0) > 1e-12 or abs(rep.rhs - 1.0 / 36.0) > 1e-12:
        failures.append(("hand-check x2y2", rep.lhs, rep.rhs))
    _report(2, "two-sided identity residual <= 10x quadrature error", failures,
            time.perf_counter() - t0, 30.0)


def test_criterion_3_theorem4_chain():
    t0 = time.perf_counter()
    failures = []
    for name, f, h in CONVEX_CORPUS:
        cert = check_coordinate_h_convex(f, h, UNIT_SQ, grid=17)
        if not cert.passed:
            failures.append((name, "certification failed", cert.message))
            continue
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                rep = theorem4_chain(f, h, FracOrder(alpha, beta), UNIT_SQ)
                if not rep.passed:
                    failures.append((name, alpha, beta, rep.gap_lm, rep.gap_mr))
    rep = theorem4_chain(builtin_function("product"), HWeight.identity(),
                         FracOrder(1, 1), UNIT_SQ)
    for member in (rep.left, rep.middle, rep.right):
        if abs(member - 0.25) > 1e-10:
            failures.append(("equality case", rep.left, rep.middle, rep.right))
    _report(3, "Hadamard chain passes on the certified corpus", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_4_reduction_fidelity():
    failures = []
    identity = HWeight.identity()
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            k1a, _ = h_moment_m(identity, alpha + 1.0)
            k1b, _ = h_moment_m(identity, beta + 1.0)
            want = 1.0 / ((alpha + 1.0) * (beta + 1.0))
            if abs(k1a * k1b - want) / want > 1e-10:
                failures.append(("trapezoid kernel", alpha, beta, k1a * k1b))
    u = h_moment_m(identity, 1.0)[0] / 2.0
    for q in (1.5, 2.0, 3.0):
        if abs((u * u) ** (1.0 / q) - 0.25 ** (1.0 / q)) > 1e-10 * 0.25 ** (1.0 / q):
            failures.append(("holder kernel", q, u * u))
    f = builtin_function("quadratic")
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            order = FracOrder(alpha, beta)
            r1 = theorem1_chain(f, order, UNIT_SQ)
            r4 = theorem4_chain(f, identity, order, UNIT_SQ)
            for m1, m4 in ((r1.left, r4.left), (r1.middle, r4.middle),
                           (r1.right, r4.right)):
                if abs(m1 - m4) > 1e-12 * max(1.0, abs(m4)):
                    failures.append(("member mismatch", alpha, beta, m1, m4))
    _report(4, "identity-weight reductions reproduce the plain-convex forms",
            failures)


def test_criterion_5_corollary_closed_forms():
    failures = []
    orders = (0.3, 0.5, 1.0, 2.0, 3.7)
    svals = (0.25, 0.5, 0.75, 1.0)
    for g in orders:
        for s in svals:
            h = HWeight.power(s)
            m, _ = h_moment_m(h, g)
            want = corollary_moment_c1(g, s)
            if abs(m - want) / want > 1e-9:
                failures.append(("c1", g, s, m, want))
            k1, _ = h_moment_m(h, g + 1.0)
            want = corollary_moment_c2(g, s)
            if abs(k1 - want) / want > 1e-9:
                failures.append(("c2", g, s, k1, want))
    for s in svals:
        u = h_moment_m(HWeight.power(s), 1.0)[0] / 2.0
        want = corollary_moment_c3(s)
        if abs(u * u - want) / want > 1e-9:
            failures.append(("c3", s, u * u, want))
    _report(5, "h-moments match the Beta-function closed forms",
            failures)


def test_criterion_6_certifier_honesty():
    failures = []
    rng = np.random.default_rng(20240817)
    bases = [builtin_function(n) for n in
             ("product", "quadratic", "biquadratic", "expsum")]
    for i in range(20):
        base = bases[i % len(bases)]
        c = float(rng.uniform(4.5, 10.0))
        x0, y0 = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        pert = lambda x, y, base=base, c=c, x0=x0, y0=y0: (
            base(x, y) - c * ((x - x0) ** 2 + (y - y0) ** 2))
        cert = check_coordinate_h_convex(pert, HWeight.identity(), UNIT_SQ,
                                         grid=9)
        if cert.passed or cert.witness is None:
            failures.append((i, "no violation found"))
            continue
        t, k, (wx, wu), (wy, ww) = cert.witness
        lhs = pert(t * wx + (1 - t) * wy, k * wu + (1 - k) * ww)
        rhs = (t * k * pert(wx, wu) + k * (1 - t) * pert(wy, wu)
               + t * (1 - k) * pert(wx, ww) + (1 - t) * (1 - k) * pert(wy, ww))
        if lhs - rhs < cert.tol / 2.0:
            failures.append((i, "witness does not re-violate", lhs - rhs, cert.tol))
    for name, f, h in CONVEX_CORPUS:
        cert = check_coordinate_h_convex(f, h, UNIT_SQ, grid=17)
        if not cert.passed or cert.worst_violation != 0.0:
            failures.append((name, cert.worst_violation))
    _report(6, "fail witnesses re-violate independently; convex corpus is clean",
            failures)


def test_criterion_7_bound_theorems():
    failures = []
    pq = HolderExponents.from_p(2.0)
    for name, f, h in CONVEX_CORPUS:
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.0):
                order = FracOrder(alpha, beta)
                b5 = theorem5_bound(f, h, order, UNIT_SQ)
                if b5.slack < -b5.tol:
                    failures.append(("t5", name, alpha, beta, b5.slack))
                b6 = theorem6_bound(f, h, order, UNIT_SQ, pq)
                if b6.slack < -b6.tol:
                    failures.append(("t6", name, alpha, beta, b6.slack))
    rep = theorem6_bound(builtin_function("product"), HWeight.identity(),
                         FracOrder(1, 1), UNIT_SQ, pq)
    if abs(rep.lhs_abs) > 1e-10 or abs(rep.rhs - 1.0 / 3.0) > 1e-10:
        failures.append(("equality case", rep.lhs_abs, rep.rhs))
    _report(7, "trapezoid and Hölder bounds hold on the certified corpus",
            failures)


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    failures = []

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    code, out = run("verify", "--theorem", "t4", "--f", "x*y",
                    "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "1",
                    "--h", "identity", "--format", "json")
    rep = json.loads(out)
    if code != 0 or rep["status"] != "pass":
        failures.append(("verify t4", code))
    if any(abs(rep["result"][k] - 0.25) > 1e-9 for k in ("left", "middle", "right")):
        failures.append(("verify t4 chain", rep["result"]))

    code, out = run("frac-integrate", "--f1", "t", "--alpha", "0.5",
                    "--side", "left", "--interval", "0", "1", "--at", "1",
                    "--format", "json")
    value = json.loads(out)["result"]["value"]
    if code != 0 or abs(value - 0.75225277806367) > 1e-11:
        failures.append(("frac-integrate", code, value))

    code, out = run("verify", "--theorem", "lemma1", "--f", "exp(x+y)",
                    "--rect", "0", "1", "0", "1", "--alpha", "0.5",
                    "--beta", "0.5", "--format", "json")
    rep = json.loads(out)
    if code != 0 or rep["status"] != "pass":
        failures.append(("verify lemma1", code))

    sweep = ("sweep", "--theorem", "t4", "--f", "builtin:powersum:1",
             "--rect", "0", "1", "0", "1", "--h", "power:1", "--beta", "1",
             "--axis", "alpha=0.5,1,2", "--axis", "s=0.5,1")
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    c1, _ = run(*sweep, "--output", str(p1))
    c2, _ = run(*sweep, "--jobs", "3", "--output", str(p2))
    if c1 != 0 or c2 != 0:
        failures.append(("sweep exit", c1, c2))
    if p1.read_bytes() != p2.read_bytes():
        failures.append(("sweep not byte-deterministic",))
    rows = p1.read_text().strip().split("\n")[1:]
    if len(rows) != 6 or not all(",true," in r for r in rows):
        failures.append(("sweep rows", rows))

    _report(8, "CLI examples reproduce stated outputs; sweeps deterministic",
            failures)
