"""Checks of the program's outputs against the references and properties.

``check(workload, ops, outputs)`` returns a :class:`Verdict`: the operations
(or sweep rows) that failed, the problems found (an empty list means the
outputs are correct) and the accuracy in correct significant digits.

An operation fails when it raises or when the lemma1 identity, which is exact,
reports false.  A failure is counted; it is a problem only when the operation
is not on the known-fault list.  Every value of an operation that did not
fail must match its reference to ``MIN_DIGITS`` significant digits
(``MIN_DIGITS_FD`` when it goes through the finite-difference mixed partial,
whose error is not part of the quadrature estimate).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import references as ref
from workloads import CERTIFY_FUNCTIONS, FD_FAULT, SWEEP_FAULT_ROWS, Op, certify_grid_points

#: Digits are capped at the 15 decimal digits a double always carries.
MAX_DIGITS = 15.0
MIN_DIGITS = 8.0
MIN_DIGITS_FD = 4.0
BOUND_FIELDS = ("lhs_abs", "rhs", "a_term")


@dataclass
class Verdict:
    failed: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digits: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def accuracy_digits(self) -> float:
        return min(self.digits) if self.digits else 0.0


def digits(value: float, expected: float) -> float:
    """Correct significant digits of ``value``, capped at ``MAX_DIGITS``."""
    err = abs(value - expected)
    if err == 0.0:
        return MAX_DIGITS
    scale = abs(expected) if expected != 0.0 else 1.0
    return max(0.0, min(MAX_DIGITS, -math.log10(err / scale)))


def _residual_digits(lhs: float, rhs: float, residual: float) -> float:
    return digits(residual / max(abs(lhs), abs(rhs), 1e-300), 0.0)


def _compare(v: Verdict, name: str, got: dict, expected: dict, fd_fields=()):
    for key, want in expected.items():
        d = digits(float(got[key]), want)
        v.digits.append(d)
        floor = MIN_DIGITS_FD if key in fd_fields else MIN_DIGITS
        if d < floor:
            v.problems.append(f"{name}: {key} = {got[key]!r}, reference {want!r} "
                              f"({d:.1f} digits < {floor})")


def _failed(v: Verdict, name: str, fault: str, detail) -> None:
    v.failed.append(name)
    if not fault:
        v.problems.append(f"{name}: unexpected failure: {detail}")


def check_theorems(ops: list[Op], outputs: dict) -> Verdict:
    v = Verdict()
    for op in ops:
        out = outputs[op.id]
        if "error" in out:
            _failed(v, op.id, op.fault, out["error"])
            continue
        if op.kind == "lemma1":
            if not out["passed"]:
                _failed(v, op.id, op.fault,
                        f"residual {out['residual']!r} > 10 * qerr {out['qerr']!r}")
                continue
            v.digits.append(_residual_digits(out["lhs"], out["rhs"], out["residual"]))
        elif op.certified and not out["passed"]:
            v.problems.append(f"{op.id}: reported false although its hypotheses hold")
        _compare(v, op.id, out, ref.theorem(op), ("rhs",) if op.fd else ())
    return v


def sweep_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(ops: list[Op], outputs: dict) -> Verdict:
    v = Verdict()
    for op in ops:
        out = outputs[op.id]
        if "error" in out or out["rc"] != 0:
            v.problems.append(f"{op.id}: sweep did not complete: {out}")
            continue
        rows = sweep_rows(out["csv"])
        if len(rows) != op.extra["rows"]:
            v.problems.append(f"{op.id}: {len(rows)} rows, expected {op.extra['rows']}")
        for row in rows:
            key = (float(row["alpha"]), float(row["beta"]))
            name = f"{op.id}/a{row['alpha']}/b{row['beta']}" + (
                f"/p{row['p']}" if row["p"] else "")
            fault = FD_FAULT if row["theorem"] == "lemma1" and key in SWEEP_FAULT_ROWS else ""
            if row["error"]:
                _failed(v, name, fault, row["error"])
                continue
            if row["theorem"] == "lemma1":
                if row["pass"] != "true":
                    _failed(v, name, fault, f"residual {row['residual']}")
                    continue
                # The row has no lhs column; rhs has the same size.
                v.digits.append(_residual_digits(0.0, float(row["rhs"]), float(row["residual"])))
                continue
            _compare(v, name, {k: float(row[k]) for k in BOUND_FIELDS},
                     ref.sweep_row(op, row), ("rhs",))
    return v


def check_certify(ops: list[Op], outputs: dict) -> Verdict:
    v = Verdict()
    for op in ops:
        out, x = outputs[op.id], op.extra
        if "error" in out:
            _failed(v, op.id, "", out["error"])
            continue
        if out["verdict"] != x["expect"]:
            v.problems.append(f"{op.id}: verdict {out['verdict']}, expected {x['expect']}")
            continue
        n_t = certify_grid_points(op.h, x["grid"])
        if out["samples_checked"] != n_t**2 * x["grid"] ** 4:
            v.problems.append(f"{op.id}: samples_checked {out['samples_checked']}, "
                              f"expected {n_t ** 2 * x['grid'] ** 4}")
        if out["verdict"] == "fail":
            f = CERTIFY_FUNCTIONS[x["f"]]
            t, k, p1, p2 = out["witness"]
            deficit = ref.certify_deficit(lambda a, b: f(math, a, b, *x["params"]),
                                          op.h, t, k, p1, p2, x["direction"])
            if not deficit > out["tol"]:
                v.problems.append(f"{op.id}: witness does not re-violate "
                                  f"(deficit {deficit!r}, tol {out['tol']!r})")
            _compare(v, op.id, out, {"worst_violation": deficit})
    return v


CHECKS = {"theorems": check_theorems, "sweep": check_sweep, "certify": check_certify}


def check(workload: str, ops: list[Op], outputs: dict) -> Verdict:
    return CHECKS[workload](ops, outputs)
