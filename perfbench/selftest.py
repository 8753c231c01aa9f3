"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py

Each correctness check must reject a deliberately corrupted output, sweep
rows must be byte-identical at --jobs 1 and --jobs 2, and the tracer must
report a wrapped name that no longer exists as zero without crashing.
"""

from __future__ import annotations

import copy
import csv
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import drive  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(HERE.parent)  # the table weight is named relative to the root


def _one_per_kind(ops):
    seen, picked = set(), []
    for op in ops:
        key = (op.kind, op.fd, op.fault != "")
        if key not in seen and not op.fault:
            seen.add(key)
            picked.append(op)
    return picked


@pytest.fixture(scope="module")
def theorem_outputs():
    ops = _one_per_kind(wl.build("theorems", 0))
    return ops, {op.id: drive.run_theorem_op(op) for op in ops}


def test_theorem_checks_accept_the_program(theorem_outputs):
    ops, outputs = theorem_outputs
    v = checks.check("theorems", ops, outputs)
    assert v.correct, v.problems
    assert v.digits and not v.failed


def test_theorem_checks_reject_corrupted_values(theorem_outputs):
    ops, outputs = theorem_outputs
    for op in ops:
        for key in ("value", "left", "middle", "right", "lhs", "rhs", "lhs_abs", "a_term"):
            if key not in outputs[op.id] or (op.kind == "lemma1" and key != "lhs"):
                continue
            if op.kind == "lemma1" and not op.fn.terms:
                continue  # lemma1 on a non-separable f is checked by its residual
            bad = copy.deepcopy(outputs)
            bad[op.id][key] *= 1.001
            assert not checks.check("theorems", ops, bad).correct, (op.id, key)


def test_theorem_checks_reject_wrong_verdicts_and_errors(theorem_outputs):
    ops, outputs = theorem_outputs
    for op in ops:
        if "passed" in outputs[op.id] and (op.certified or op.kind == "lemma1"):
            bad = copy.deepcopy(outputs)
            bad[op.id]["passed"] = False
            assert not checks.check("theorems", ops, bad).correct, op.id
        bad = copy.deepcopy(outputs)
        bad[op.id] = {"error": "EvaluationError: injected"}
        v = checks.check("theorems", ops, bad)
        assert not v.correct and v.failed == [op.id]


def test_known_faults_are_counted_not_wrong():
    ops = [op for op in wl.build("theorems", 0) if op.fault]
    v = checks.check("theorems", ops, drive.run_pass(drive.run_theorem_op, ops)[0])
    assert v.correct, v.problems
    assert sorted(v.failed) == sorted(op.id for op in ops)


@pytest.fixture(scope="module")
def sweep_outputs():
    ops = wl.build("sweep", 0)
    return ops, {op.id: drive.run_sweep_op(op) for op in ops}


def test_sweep_checks(sweep_outputs):
    ops, outputs = sweep_outputs
    v = checks.check("sweep", ops, outputs)
    assert v.correct, v.problems
    assert len(v.failed) == len(wl.SWEEP_FAULT_ROWS)

    def corrupted(op_id, edit):
        bad = copy.deepcopy(outputs)
        rows = checks.sweep_rows(bad[op_id]["csv"])
        edit(rows)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        bad[op_id]["csv"] = buf.getvalue()
        return checks.check("sweep", ops, bad)

    def scale_rhs(rows):
        rows[0]["rhs"] = repr(float(rows[0]["rhs"]) * 1.001)

    def fail_good_lemma_row(rows):
        row = next(r for r in rows if (float(r["alpha"]), float(r["beta"]))
                   not in wl.SWEEP_FAULT_ROWS)
        row["pass"] = "false"

    assert not corrupted("sweep/t6", scale_rhs).correct
    assert not corrupted("sweep/lemma1", fail_good_lemma_row).correct
    assert not corrupted("sweep/lemma1", lambda rows: rows.pop()).correct


def test_sweep_rows_identical_at_one_and_two_jobs():
    op = wl.build("sweep", 0)[0]
    argv = op.extra["argv"]
    at = argv.index("--jobs") + 1
    texts = []
    for jobs in ("1", "2"):
        one = wl.Op(op.id, op.kind, extra={**op.extra, "argv": argv[:at] + [jobs] + argv[at + 1:]})
        texts.append(drive.run_sweep_op(one)["csv"])
    assert texts[0] == texts[1]


def test_certify_checks():
    ops = [op for op in wl.build("certify", 0) if op.extra["grid"] == 17][-4:]
    outputs = {op.id: drive.run_certify_op(op) for op in ops}
    assert checks.check("certify", ops, outputs).correct
    fail_id = next(op.id for op in ops if op.extra["expect"] == "fail")
    pass_id = next(op.id for op in ops if op.extra["expect"] == "pass")
    edits = (
        (pass_id, lambda o: o.update(samples_checked=o["samples_checked"] + 1)),
        (pass_id, lambda o: o.update(verdict="fail")),
        (fail_id, lambda o: o.update(worst_violation=o["worst_violation"] * 1.001)),
        # t = k = 1 puts the combination point on a corner: no violation there.
        (fail_id, lambda o: o.update(witness=(1.0, 1.0, *o["witness"][2:]))),
    )
    for op_id, edit in edits:
        bad = copy.deepcopy(outputs)
        edit(bad[op_id])
        assert not checks.check("certify", ops, bad).correct, (op_id, bad[op_id])


def test_tracer_reports_missing_names_as_zero():
    import hhfrac

    original = hhfrac.certify.theorem4_chain
    tr = tracer.Tracer(targets=(("hhfrac.certify", "no_such_function", "certify.entry"),
                                ("hhfrac.no_such_module", "f", "cli.main")))
    tr.install()
    try:
        drive.run_theorem_op(next(op for op in wl.build("theorems", 0) if op.kind == "t4"))
    finally:
        tr.uninstall()
    assert tr.missing == ["hhfrac.certify.no_such_function", "hhfrac.no_such_module.f"]
    assert all(v == 0 for v in tr.layer_metrics(2).values())
    assert hhfrac.certify.theorem4_chain is original


def test_tracer_counts_repeat_and_restore():
    import hhfrac

    op = next(op for op in wl.build("theorems", 0) if op.kind == "t5")
    drive.run_theorem_op(op)  # fill the rule caches, as the warm-up pass does
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            drive.run_theorem_op(op)
        finally:
            tr.uninstall()
        m = tr.layer_metrics(2)
        counts.append({k: v for k, v in m.items() if not k.endswith(("_ms", "_frac"))})
    assert counts[0] == counts[1]
    assert counts[0]["certify.calls"] == 1 and counts[0]["certify.moment_calls"] > 0
    assert not tr.missing
    assert not hasattr(hhfrac.theorem5_bound, "__wrapped__")
