"""Command-line interface.

Four commands:

* ``frac-integrate``: evaluate a one- or two-variable fractional integral.
* ``check-hconvex``: run the sampled coordinate h-convexity certifier.
* ``verify``: evaluate one inequality (t1, t4, t5, t6) or the lemma1
  identity and report pass/fail.
* ``sweep``: run ``verify`` over a grid of parameter values and emit one row
  per grid point.

Exit codes: 0 pass/success, 1 inequality violation or computational failure
(with the reason in the report of ``verify`` and ``sweep``, on stderr for the
other two), 2 usage error.  Reports are deterministic: fixed field order and
floats printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import io
import json
import math
import sys
from itertools import product

from .certify import (
    DEFAULT_ABS_TOL,
    HolderExponents,
    lemma1_residual,
    theorem1_chain,
    theorem4_chain,
    theorem5_bound,
    theorem6_bound,
)
from .errors import DomainError, HHFracError, UsageError
from .fracquad import (
    MAX_NODES_PER_AXIS,
    Corner,
    FracOrder,
    Interval,
    QuadratureSpec,
    Rectangle,
    Side,
    frac_integral_1d_with_estimate,
    frac_integral_2d_with_estimate,
)
from .funcspace import parse_function_spec, univariate_from_source
from .hweights import MAX_GRID, check_coordinate_h_convex, parse_hweight

SCHEMA_VERSION = 2

SWEEP_COLUMNS = (
    "alpha", "beta", "s", "p", "theorem", "h", "function",
    "left", "middle", "right", "gap_lm", "gap_mr",
    "lhs_abs", "rhs", "slack", "a_term", "residual",
    "pass", "quadrature_error", "error", "notes",
)

_SWEEP_AXES = ("alpha", "beta", "s", "p")

#: Most rows a sweep may have.  Every row's configuration and result are held
#: until the output is written, so the product of the axis lengths is checked
#: before any row is built.
MAX_SWEEP_ROWS = 100_000


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        return "null"
    return format(float(v), ".17g")


def _emit_json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_emit_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        items = (f"{json.dumps(str(k))}: {_emit_json_value(x)}" for k, x in v.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(v)}")


def _emit_json(obj: dict) -> str:
    return _emit_json_value(obj) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _emit_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _emit_text(report: dict) -> str:
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}.", v)
        elif isinstance(value, float):
            lines.append(f"{prefix[:-1]} = {_fmt_float(value)}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix[:-1]} = {_emit_json_value(value)}")
        elif value is None:
            lines.append(f"{prefix[:-1]} =")
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _write_report(report: dict, fmt: str, output: str | None,
                  csv_columns=None, csv_rows=None) -> None:
    if fmt == "json":
        text = _emit_json(report)
    elif fmt == "csv":
        if csv_columns is None:
            raise UsageError("csv output is not available for this command")
        text = _emit_csv(csv_columns, csv_rows)
    else:
        text = _emit_text(report)
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config_overrides(args: argparse.Namespace) -> None:
    """Fill unset args from a --config JSON file (flags win over the file).

    The fields are the subcommand's flags.  Each value becomes that flag's
    tokens, parsed by the subcommand's own parser, so it is checked and
    converted as on the command line.  A list holds a flag's several values
    or the values of a repeated flag, a switch takes true or false, and null
    leaves a field unset.
    """
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"--config: cannot read {args.config}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("--config: top level must be a JSON object")
    actions = {a.dest: a for a in args.parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    fields, argv = {}, []
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"--config: unknown field {key!r}")
        if value is None:
            continue
        fields[action.dest] = value
        flag, values = action.option_strings[0], value if isinstance(value, list) else [value]
        if action.nargs == 0 and isinstance(value, bool):
            argv += [flag] * value
        elif action.nargs is None:  # "=" lets a value start with "-"
            argv += [f"{flag}={v}" for v in values]
        else:
            argv += [flag, *map(str, values)]
    args.parser.exit_on_error = False  # the parser serves this one call
    try:
        parsed, extra = args.parser.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise UsageError(f"--config: {exc}") from exc
    if extra:
        raise UsageError(f"--config: unexpected values {' '.join(extra)}")
    for field, value in fields.items():
        if isinstance(value, list) and not isinstance(getattr(parsed, field), list):
            raise UsageError(f"--config: {field} takes one value, got {value!r}")
        if getattr(args, field) is None:
            setattr(args, field, getattr(parsed, field))


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(nodes_per_axis=int(args.nodes),
                          target_rel_tol=float(args.rel_tol))


def _rect(args) -> Rectangle:
    return Rectangle.from_bounds(*(float(v) for v in args.rect))


def _status_exit(status: str) -> int:
    return 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_SPEC = QuadratureSpec()
_QUAD_DEFAULTS = {"nodes": _SPEC.nodes_per_axis, "rel_tol": _SPEC.target_rel_tol}
_VERIFY_DEFAULTS = {**_QUAD_DEFAULTS, "abs_tol": DEFAULT_ABS_TOL, "format": "text"}
_GRID_DEFAULT = inspect.signature(check_coordinate_h_convex).parameters["grid"].default


def _apply_defaults(args, defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _check_theorem_consistency(args) -> None:
    needs_h = args.theorem in ("t4", "t5", "t6")
    if needs_h and args.h is None:
        raise UsageError(f"--h is required for theorem {args.theorem}")
    if not needs_h and args.h is not None:
        raise UsageError(f"--h is not accepted for theorem {args.theorem}")
    if args.theorem == "t6" and args.p is None:
        raise UsageError("--p is required for theorem t6")
    if args.theorem != "t6" and args.p is not None:
        raise UsageError("--p is only accepted for theorem t6")


#: The flags that ``verify`` and ``sweep`` echo as their config, in order.
#: argparse has already converted each value, also from ``--config``.
_THEOREM_CONFIG = ("theorem", "f", "rect", "alpha", "beta", "h", "p",
                   "nodes", "rel_tol", "abs_tol", "format")


def _theorem_config(args) -> dict:
    return {name: getattr(args, name) for name in _THEOREM_CONFIG}


def _run_theorem(args, parse=parse_function_spec,
                 parse_h=parse_hweight) -> tuple[str, dict]:
    """Returns (status, result-dict) for one verify-style evaluation.

    ``parse`` turns ``args.f`` into a function and ``parse_h`` turns
    ``args.h`` into a weight; sweep passes ones that hand every row the same
    parsed instance, so the rows share its samples and read a table once.
    """
    # Construction problems are usage errors; anything after is computation.
    try:
        rect = _rect(args)
        order = FracOrder(float(args.alpha), float(args.beta))
        spec = _quad_spec(args)
        f = parse(args.f)
        h = parse_h(args.h) if args.h is not None else None
        pq = HolderExponents.from_p(float(args.p)) if args.theorem == "t6" else None
        abs_tol = float(args.abs_tol)
        rect.require_nonneg_origin()
    except UsageError:
        raise
    except HHFracError as exc:
        raise UsageError(str(exc)) from exc

    if args.theorem == "t1":
        rep = theorem1_chain(f, order, rect, spec, abs_tol)
    elif args.theorem == "t4":
        rep = theorem4_chain(f, h, order, rect, spec, abs_tol)
    elif args.theorem == "t5":
        rep = theorem5_bound(f, h, order, rect, spec, abs_tol)
    elif args.theorem == "t6":
        rep = theorem6_bound(f, h, order, rect, pq, spec, abs_tol)
    else:
        rep = lemma1_residual(f, order, rect, spec)
    # The report's own fields, in order; "passed" is written "pass".
    result = {"pass" if fld.name == "passed" else fld.name: getattr(rep, fld.name)
              for fld in dataclasses.fields(rep)}
    result["notes"] = list(result.get("notes", ()))
    return ("pass" if rep.passed else "fail"), result


def _outcome(args, *parsers) -> tuple[str, dict, str | None]:
    """``(status, result, error)``: a computational failure becomes status
    "error" with its message; a usage error propagates."""
    try:
        return (*_run_theorem(args, *parsers), None)
    except UsageError:
        raise
    except HHFracError as exc:
        return "error", {}, f"{type(exc).__name__}: {exc}"


def _cmd_verify(args) -> int:
    _apply_defaults(args, _VERIFY_DEFAULTS)
    for required in ("theorem", "f", "rect", "alpha", "beta"):
        if getattr(args, required) is None:
            raise UsageError(f"--{required.replace('_', '-')} is required")
    _check_theorem_consistency(args)
    config = _theorem_config(args)
    status, result, error = _outcome(args)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "status": status,
        "config": config,
        "result": result,
    }
    if error:
        report["error"] = error
    row = _sweep_row_from(config, result, error)
    _write_report(report, args.format, args.output,
                  csv_columns=SWEEP_COLUMNS, csv_rows=[row])
    return _status_exit(status)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_axes(entries) -> list[tuple[str, list[float]]]:
    axes = []
    seen = set()
    for entry in entries or ():
        if "=" not in entry:
            raise UsageError(f"--axis expects NAME=v1,v2,..., got {entry!r}")
        name, _, values = entry.partition("=")
        name = name.strip()
        if name not in _SWEEP_AXES:
            raise UsageError(f"--axis: unknown parameter {name!r} "
                             f"(one of {', '.join(_SWEEP_AXES)})")
        if name in seen:
            raise UsageError(f"--axis: duplicate parameter {name!r}")
        seen.add(name)
        try:
            vals = [float(v) for v in values.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"--axis {name}: bad value ({exc})") from exc
        if not vals:
            raise UsageError(f"--axis {name}: no values given")
        for v in vals:
            if name in ("alpha", "beta") and v <= 0:
                raise UsageError(f"--axis {name}: values must be positive, got {v}")
            if name == "s" and not 0 < v <= 1:
                raise UsageError(f"--axis s: values must lie in (0, 1], got {v}")
            if name == "p" and v <= 1:
                raise UsageError(f"--axis p: values must exceed 1, got {v}")
        axes.append((name, vals))
    if not axes:
        raise UsageError("sweep needs at least one --axis")
    return axes


def _apply_axis_value(args_dict: dict, name: str, value: float) -> None:
    if name in ("alpha", "beta", "p"):
        args_dict[name] = value
    else:  # s substitutes into the powersum builtin and the power h-weight
        applied = False
        if str(args_dict.get("f", "")).startswith("builtin:powersum"):
            args_dict["f"] = f"builtin:powersum:{value!r}"
            applied = True
        if args_dict.get("h") is not None and str(args_dict["h"]).startswith("power"):
            args_dict["h"] = f"power:{value!r}"
            applied = True
        if not applied:
            raise UsageError(
                "--axis s needs a builtin:powersum function or a power h-weight"
            )


def _sweep_row_from(config: dict, result: dict, error: str | None) -> dict:
    """One ``SWEEP_COLUMNS`` row: the parameters from ``config``, then every
    result field that is a column."""
    row = {c: config.get(c) for c in SWEEP_COLUMNS}
    row.update((key, value) for key, value in result.items() if key in row)
    row.update(function=config["f"], error=error,
               notes="; ".join(result["notes"]) if result else None)
    return row


def _cmd_sweep(args) -> int:
    _apply_defaults(args, {"format": "csv", "jobs": 1})
    _apply_defaults(args, _VERIFY_DEFAULTS)
    for required in ("theorem", "f", "rect"):
        if getattr(args, required) is None:
            raise UsageError(f"--{required} is required")
    axes = _parse_axes(args.axis)
    axis_names = [name for name, _ in axes]
    base = _theorem_config(args)

    rows = math.prod(len(vals) for _, vals in axes)
    if rows > MAX_SWEEP_ROWS:
        raise UsageError(f"--axis: the axes give {rows} rows, at most {MAX_SWEEP_ROWS}")
    combos = list(product(*(vals for _, vals in axes)))
    row_configs = []
    for combo in combos:
        cfg = dict(base)
        for name, value in zip(axis_names, combo):
            _apply_axis_value(cfg, name, value)
            if name == "s":
                cfg["s"] = value
        row_configs.append(cfg)

    # Fixed parameters must still be present after axis substitution.
    for cfg in row_configs:
        if cfg["alpha"] is None or cfg["beta"] is None:
            raise UsageError("sweep needs --alpha and --beta (or axes for them)")
        ns = argparse.Namespace(**cfg)
        _check_theorem_consistency(ns)

    jobs = int(args.jobs)
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    try:
        _quad_spec(argparse.Namespace(**base))
    except HHFracError as exc:
        raise UsageError(str(exc)) from exc

    # Each distinct f and h text is parsed once, so every row reuses the
    # samples cached on f, a row with the previous row's alpha reuses its
    # half-products on each grid, and a table file is read once.  Rows run
    # with the first axis outermost, so an alpha axis given first shares most.
    parse = functools.cache(parse_function_spec)
    parse_h = functools.cache(parse_hweight)

    def run_row(cfg: dict) -> dict:
        _, result, error = _outcome(argparse.Namespace(**cfg), parse, parse_h)
        return _sweep_row_from(cfg, result, error)

    rows = [run_row(cfg) for cfg in row_configs]

    config = dict(base)
    config["axes"] = {name: vals for name, vals in axes}
    config["jobs"] = jobs
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "status": "pass",
        "config": config,
        "rows": rows,
    }
    _write_report(report, args.format, args.output,
                  csv_columns=SWEEP_COLUMNS, csv_rows=rows)
    return 0


# ---------------------------------------------------------------------------
# check-hconvex
# ---------------------------------------------------------------------------

_CHECK_COLUMNS = ("verdict", "samples_checked", "worst_violation", "tol",
                  "witness", "message")


def _cmd_check(args) -> int:
    _apply_defaults(args, {"grid": _GRID_DEFAULT, "format": "text", "concave": False})
    for required in ("f", "h", "rect"):
        if getattr(args, required) is None:
            raise UsageError(f"--{required} is required")
    if not 3 <= int(args.grid) <= MAX_GRID:
        raise UsageError(f"--grid must lie in [3, {MAX_GRID}], got {args.grid}")
    try:
        rect = _rect(args)
        f = parse_function_spec(args.f)
        h = parse_hweight(args.h)
    except UsageError:
        raise
    except HHFracError as exc:
        raise UsageError(str(exc)) from exc
    cert = check_coordinate_h_convex(
        f, h, rect, grid=int(args.grid),
        tol=None if args.tol is None else float(args.tol),
        direction="concave" if args.concave else "convex",
    )
    config = {
        "f": args.f, "h": args.h, "rect": [float(v) for v in args.rect],
        "grid": int(args.grid), "tol": cert.tol,
        "direction": "concave" if args.concave else "convex",
        "format": args.format,
    }
    result = {
        "verdict": cert.verdict,
        "samples_checked": cert.samples_checked,
        "worst_violation": cert.worst_violation,
        "tol": cert.tol,
        "witness": None if cert.witness is None else [
            cert.witness[0], cert.witness[1],
            list(cert.witness[2]), list(cert.witness[3]),
        ],
        "witness_deficit": cert.witness_deficit,
        "message": cert.message,
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check-hconvex",
        "status": cert.verdict,
        "config": config,
        "result": result,
    }
    row = dict(result)
    row["witness"] = "" if cert.witness is None else _emit_json_value(result["witness"])
    _write_report(report, args.format, args.output,
                  csv_columns=_CHECK_COLUMNS, csv_rows=[row])
    return _status_exit(cert.verdict)


# ---------------------------------------------------------------------------
# frac-integrate
# ---------------------------------------------------------------------------

def _cmd_frac(args) -> int:
    _apply_defaults(args, {**_QUAD_DEFAULTS, "format": "text"})
    if (args.f1 is None) == (args.f is None):
        raise UsageError("give exactly one of --f1 (one variable) or --f (two variables)")
    if args.alpha is None:
        raise UsageError("--alpha is required")
    try:
        spec = _quad_spec(args)
    except HHFracError as exc:
        raise UsageError(str(exc)) from exc
    if args.f1 is not None:
        for required in ("side", "interval", "at"):
            if getattr(args, required) is None:
                raise UsageError(f"--{required} is required for a 1d integral")
        if len(args.at) != 1:
            raise UsageError("--at takes one value for a 1d integral")
        try:
            f = univariate_from_source(args.f1)
            interval = Interval(float(args.interval[0]), float(args.interval[1]))
            side = Side(args.side)
        except (HHFracError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
        try:
            value, est = frac_integral_1d_with_estimate(
                f, float(args.alpha), side, interval, float(args.at[0]), spec
            )
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        config = {
            "f1": args.f1, "alpha": float(args.alpha), "side": args.side,
            "interval": [interval.lo, interval.hi], "at": float(args.at[0]),
            "nodes": int(args.nodes), "rel_tol": float(args.rel_tol),
            "format": args.format,
        }
    else:
        for required in ("beta", "corner", "rect", "at"):
            if getattr(args, required) is None:
                raise UsageError(f"--{required} is required for a 2d integral")
        if len(args.at) != 2:
            raise UsageError("--at takes two values for a 2d integral")
        try:
            f = parse_function_spec(args.f)
            rect = _rect(args)
            order = FracOrder(float(args.alpha), float(args.beta))
            corner = Corner(args.corner)
        except (HHFracError, ValueError) as exc:
            raise UsageError(str(exc)) from exc
        try:
            value, est = frac_integral_2d_with_estimate(
                f, order, corner, rect,
                (float(args.at[0]), float(args.at[1])), spec,
            )
        except DomainError as exc:
            raise UsageError(str(exc)) from exc
        config = {
            "f": args.f, "alpha": float(args.alpha), "beta": float(args.beta),
            "corner": args.corner, "rect": [float(v) for v in args.rect],
            "at": [float(args.at[0]), float(args.at[1])],
            "nodes": int(args.nodes), "rel_tol": float(args.rel_tol),
            "format": args.format,
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "frac-integrate",
        "status": "pass",
        "config": config,
        "result": {"value": value, "error_estimate": est},
    }
    _write_report(report, args.format, args.output,
                  csv_columns=("value", "error_estimate"),
                  csv_rows=[{"value": value, "error_estimate": est}])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with the same field names as the flags")
    p.add_argument("--format", choices=("text", "json", "csv"), default=None)
    p.add_argument("--output", help="write the report to this path instead of stdout")


def _add_quadrature(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=None,
                   help=("quadrature nodes per axis n; levels n/2 and n are compared "
                         "first, and 2n is added only when they differ beyond round-off "
                         f"(default {_SPEC.nodes_per_axis}, at most {MAX_NODES_PER_AXIS})"))
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None,
                   help=f"quadrature target relative tolerance (default {_SPEC.target_rel_tol!r})")


def _add_theorem(p: argparse.ArgumentParser) -> None:
    """The flags that ``verify`` and ``sweep`` share."""
    p.add_argument("--theorem", choices=("t1", "t4", "t5", "t6", "lemma1"), default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--rect", nargs=4, type=float, default=None, metavar=("A", "B", "C", "D"))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--h", default=None)
    p.add_argument("--p", type=float, default=None, help="Hölder exponent (t6)")
    p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
    _add_quadrature(p)
    _add_common(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhfrac",
        description=("Fractional-integral Hadamard-type inequality "
                     "verification for coordinate h-convex functions"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frac-integrate", help="evaluate a fractional integral")
    p.add_argument("--f1", help="expression in t for a one-variable integral")
    p.add_argument("--f", help="expression in x, y (or builtin:...) for two variables")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--side", choices=tuple(s.value for s in Side), default=None)
    p.add_argument("--corner", choices=tuple(c.value for c in Corner), default=None)
    p.add_argument("--interval", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--rect", nargs=4, type=float, default=None, metavar=("A", "B", "C", "D"))
    p.add_argument("--at", nargs="+", type=float, default=None)
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_frac, parser=p)

    p = sub.add_parser("check-hconvex", help="sampled coordinate h-convexity check")
    p.add_argument("--f", default=None)
    p.add_argument("--h", default=None, help="identity | power:<s> | one | gl | table:<path>")
    p.add_argument("--rect", nargs=4, type=float, default=None, metavar=("A", "B", "C", "D"))
    p.add_argument("--grid", type=int, default=None,
                   help=f"points per axis (default {_GRID_DEFAULT}, at most {MAX_GRID})")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--concave", action="store_true", default=None,
                   help="check the reversed (h-concave) inequality")
    _add_common(p)
    p.set_defaults(handler=_cmd_check, parser=p)

    p = sub.add_parser("verify", help="evaluate one inequality or the identity")
    _add_theorem(p)
    p.set_defaults(handler=_cmd_verify, parser=p)

    p = sub.add_parser("sweep", help="verify over a parameter grid")
    _add_theorem(p)
    p.add_argument("--axis", action="append", default=None, metavar="NAME=V1,V2,...",
                   help=("sweep axis; repeatable; NAME in alpha, beta, s, p; "
                         f"at most {MAX_SWEEP_ROWS} rows in all"))
    p.add_argument("--jobs", type=int, default=None,
                   help=("accepted for compatibility and ignored: rows always run in "
                         "order on one thread; at least 1; to be removed"))
    p.set_defaults(handler=_cmd_sweep, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config_overrides(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HHFracError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
