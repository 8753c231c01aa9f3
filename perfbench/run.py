"""hhfrac benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload theorems|sweep|certify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  It times the cold start of the CLI
(``setup_s``), runs the workload in a fresh process (``drive.py``), checks
every output against references computed here apart from hhfrac
(``references.py``, ``checks.py``) and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics of a traced run with
``--trace 1``.  The full result, the failed operations and the spans of the
last traced pass go to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Cold CLI starts per run; the median is reported.  One more start before
#: them writes the bytecode caches, which a CLI user has after the first run.
SETUP_SPAWNS = 9
CHILD_TIMEOUT_S = 120

#: The smallest command of each workload, as a CLI user would type it.
SMALLEST = {
    "theorems": ["verify", "--theorem", "t4", "--f", "builtin:product", "--rect", "0", "1",
                 "0", "1", "--alpha", "0.5", "--beta", "0.5", "--h", "identity"],
    "sweep": ["sweep", "--theorem", "lemma1", "--f", wl.EXPR_E,
              "--rect", "0", "1", "0", "1", "--beta", "0.5", "--axis", "alpha=0.5",
              "--nodes", "128", "--jobs", "2"],
    "certify": ["check-hconvex", "--f", "builtin:product", "--h", "identity",
                "--rect", "0", "1", "0", "1", "--grid", "5"],
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # At most two threads: the sweep's two row workers; numpy's BLAS gets one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(workload: str, env: dict) -> float:
    cmd = [sys.executable, "-m", "hhfrac.cli", *SMALLEST[workload]]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"setup command failed ({proc.returncode}): {proc.stderr}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_workload(args, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "drive.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=args.seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def with_units(values: dict, section: str) -> dict:
    units = declared_units(section)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} are not both "
                         f"computed and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(workload, ops, per_pass, data, setup_s, verdict) -> dict:
    """Throughputs are medians over the timed passes; a latency percentile is
    taken over the operations of a pass, each at its median across passes."""
    ops_per_s = statistics.median(per_pass / w for w in data["walls"])
    if workload == "certify":
        samples = sum(wl.certify_grid_points(op.h, op.extra["grid"]) ** 2
                      * op.extra["grid"] ** 4 for op in ops)
        samples_per_s = statistics.median(samples / w for w in data["walls"])
    else:
        samples_per_s = ops_per_s  # one evaluated configuration per operation
    latencies = [statistics.median(ms) for ms in data["op_ms"].values()]
    return with_units({
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "samples_per_s": samples_per_s,
        "peak_rss_mb": data["peak_rss_mb"],
        "accuracy_digits": verdict.accuracy_digits,
    }, "end_to_end")


def per_layer(data) -> dict:
    """Counts from the first traced pass (they repeat exactly); times are
    medians over the traced passes."""
    units = declared_units("per_layer")
    out = {name: (value if units[name] == "count"
                  else statistics.median(layer[name] for layer in data["layers"]))
           for name, value in data["layers"][0].items()}
    out["quadrature.rule_builds"] = data["rule_builds"]
    out["trace.overhead_pct"] = 100.0 * (statistics.median(data["traced_walls"])
                                         / statistics.median(data["walls"]) - 1.0)
    return with_units(out, "per_layer")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("theorems", "sweep", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hhfrac" / "__init__.py").is_file():
        print(f"no hhfrac source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = child_env()
    setup_s = measure_setup(args.workload, env) if not args.trace else None
    data = run_workload(args, env)
    ops = wl.build(args.workload, args.seed)
    verdict = checks.check(args.workload, ops, data["outputs"])
    if not data["identical"]:
        verdict.problems.append("outputs differ between passes of the same operations")

    per_pass = sum(wl.operations_per_op(op) for op in ops)
    attempted = per_pass * data["passes"]
    failed = len(verdict.failed) * data["passes"]
    if args.trace:
        metrics = per_layer(data)
    else:
        metrics = end_to_end(args.workload, ops, per_pass, data, setup_s, verdict)
    result = {"correct": verdict.correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        **result, "failed_operations": verdict.failed, "problems": verdict.problems,
        "passes": data["passes"], "walls": data["walls"],
        "traced_walls": data["traced_walls"], "missing_trace_targets": data["missing"],
    }, indent=1))
    if args.trace:
        (RESULTS / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"columns": ["name", "start_s", "end_s", "parent"],
                        "spans": data["spans"]}))
    for problem in verdict.problems:
        print(f"problem: {problem}")
    print(f"counted failures per pass ({len(verdict.failed)}): "
          + (", ".join(verdict.failed) or "none"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
