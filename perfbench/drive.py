"""Run one workload's operations in this process and report raw results.

Started by ``run.py`` as a fresh process with hhfrac on ``PYTHONPATH`` and
one BLAS thread, so its peak memory is the workload's own.  It runs one
untimed warm-up pass (its outputs are the ones checked), then whole timed
passes of the same operations until ``--seconds`` have passed.  With
``--trace 1`` untraced and traced passes alternate.  It prints one JSON
object on its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time

import numpy as np

import hhfrac as H
from hhfrac import cli

import tracer as tracing
import workloads as wl

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _report(rep) -> dict:
    fields = ("left", "middle", "right", "lhs", "rhs", "residual", "lhs_abs", "slack", "a_term")
    out = {k: getattr(rep, k) for k in fields if hasattr(rep, k)}
    out["passed"] = rep.passed
    out["qerr"] = rep.quadrature_error
    return out


def run_theorem_op(op: wl.Op) -> dict:
    order = H.FracOrder(*op.order)
    if op.kind == "frac1d":
        x = op.extra
        ast = H.parse_expression(x["src"])
        value = H.frac_integral_1d(lambda t: H.evaluate(ast, t, 0.0), order.alpha,
                                   H.Side(x["side"]), H.Interval(*x["interval"]), x["at"])
        return {"value": value}
    f = H.parse_function_spec(op.fn.spec)
    rect = H.Rectangle.from_bounds(*op.rect)
    if op.kind == "frac2d":
        return {"value": H.frac_integral_2d(f, order, H.Corner(op.extra["corner"]), rect,
                                            op.extra["at"])}
    h = H.parse_hweight(op.h) if op.h else None
    if op.kind == "t1":
        return _report(H.theorem1_chain(f, order, rect))
    if op.kind == "t4":
        return _report(H.theorem4_chain(f, h, order, rect))
    if op.kind == "t5":
        return _report(H.theorem5_bound(f, h, order, rect))
    if op.kind == "t6":
        return _report(H.theorem6_bound(f, h, order, rect, H.HolderExponents.from_p(op.p)))
    return _report(H.lemma1_residual(f, order, rect))


def run_sweep_op(op: wl.Op) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(op.extra["argv"])
    return {"rc": rc, "csv": buf.getvalue()}


def run_certify_op(op: wl.Op) -> dict:
    x = op.extra
    if x["f"] in wl.BUILTINS:
        f = H.builtin_function(x["f"], *x["params"])
    else:
        fun, params = wl.CERTIFY_FUNCTIONS[x["f"]], x["params"]
        f = lambda xs, ys: fun(np, xs, ys, *params)  # noqa: E731
    cert = H.check_coordinate_h_convex(f, H.parse_hweight(op.h),
                                       H.Rectangle.from_bounds(*wl.UNIT),
                                       grid=x["grid"], direction=x["direction"])
    return {"verdict": cert.verdict, "samples_checked": cert.samples_checked,
            "worst_violation": cert.worst_violation, "tol": cert.tol,
            "witness": cert.witness, "witness_deficit": cert.witness_deficit}


def peak_rss_mb() -> float:
    """This process's peak resident memory.  ``ru_maxrss`` would also count
    the parent's memory before ``exec``, so read the kernel's high-water mark
    of this address space where there is one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RUNNERS = {"theorems": run_theorem_op, "sweep": run_sweep_op, "certify": run_certify_op}


def run_pass(run_op, ops, op_ms=None) -> tuple[dict, float]:
    gc.collect()
    outputs = {}
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs[op.id] = run_op(op)
        except Exception as exc:  # an operation's failure is data, not a crash
            outputs[op.id] = {"error": f"{type(exc).__name__}: {exc}"}
        if op_ms is not None:
            op_ms[op.id].append((time.perf_counter() - t0) * 1e3)
    return outputs, time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ops = wl.build(args.workload, args.seed)
    run_op = RUNNERS[args.workload]
    outputs, _ = run_pass(run_op, ops)
    identical = True
    walls, traced_walls, layers, spans, missing = [], [], [], [], []
    op_ms = {op.id: [] for op in ops}
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        tr = tracing.Tracer() if traced else None
        if tr:
            tr.install()
        try:
            outs, wall = run_pass(run_op, ops, None if traced else op_ms)
        finally:
            if tr:
                tr.uninstall()
        identical &= outs == outputs
        if tr:
            traced_walls.append(wall)
            layers.append(tr.layer_metrics(wl.SWEEP_JOBS))
            spans, missing = tr.spans, tr.missing
        else:
            walls.append(wall)
        enough = len(walls) >= MIN_PASSES and (not args.trace
                                               or len(traced_walls) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    json.dump({
        "outputs": outputs,
        "identical": identical,
        "passes": 1 + len(walls) + len(traced_walls),
        "walls": walls,
        "traced_walls": traced_walls,
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
        "rule_builds": tracing.rule_builds(),
        "spans": spans,
        "missing": missing,
    }, sys.stdout)


if __name__ == "__main__":
    main()
