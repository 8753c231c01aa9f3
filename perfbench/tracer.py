"""Per-layer tracing from outside the program.

The tracer replaces each layer's functions, under the name every calling
module imports them by, with a wrapper that records a span (name, start,
end, parent) and counts the work done.  Spans go on a per-thread stack,
because sweep rows run on pool threads; a span that opens on an empty stack
outside the main thread is a child of the main thread's open root span.
Spans stay in memory until the benchmark writes them out.

A target that no longer exists is listed in ``missing`` and its metrics
read 0, so a renamed internal never crashes the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

_ENTRIES = ("theorem1_chain", "theorem4_chain", "theorem5_bound", "theorem6_bound",
            "lemma1_residual")

#: (module, attribute, span name).  Each module is listed where it looks the
#: function up, so calls inside the package are seen too.
TARGETS = (
    ("hhfrac.cli", "main", "cli.main"),
    ("hhfrac.cli", "_run_theorem", "cli.row"),
    *((m, f, "certify.entry") for m in ("hhfrac", "hhfrac.cli", "hhfrac.certify")
      for f in _ENTRIES),
    ("hhfrac.certify", "middle_fractional_term_with_estimate", "certify.middle_term"),
    ("hhfrac.certify", "a_term_with_estimate", "certify.a_term"),
    *(("hhfrac.certify", f, "certify.moment")
      for f in ("h_moment_m", "h_moment_k1", "h_moment_unit")),
    *((m, f"frac_integral_{d}_with_estimate", f"fracquad.frac_{d}")
      for m in ("hhfrac.fracquad", "hhfrac.certify", "hhfrac.cli") for d in ("1d", "2d")),
    ("hhfrac.fracquad", "_sample_1d", "fracquad.sample"),
    ("hhfrac.fracquad", "_sample_2d", "fracquad.sample"),
    ("hhfrac.fracquad", "power_weighted_rule", "quadrature.rule"),
    ("hhfrac.certify", "power_weighted_rule", "quadrature.rule"),
    ("hhfrac.certify", "tanh_sinh_01", "quadrature.tanh_sinh"),
    ("hhfrac.special", "tanh_sinh_01", "quadrature.tanh_sinh"),
    ("hhfrac", "parse_expression", "funcspace.parse"),
    ("hhfrac.funcspace", "parse_expression", "funcspace.parse"),
    ("hhfrac", "evaluate", "funcspace.eval"),
    ("hhfrac.funcspace", "evaluate", "funcspace.eval"),
    *((m, "mixed_partial", "funcspace.mixed_partial")
      for m in ("hhfrac", "hhfrac.certify", "hhfrac.funcspace")),
    ("hhfrac.cli", "validate_mixed_partial", "funcspace.validate"),
    *((m, "check_coordinate_h_convex", "hweights.certify")
      for m in ("hhfrac", "hhfrac.cli", "hhfrac.hweights")),
    *((m, "h_eval", "hweights.h_eval") for m in ("hhfrac", "hhfrac.certify", "hhfrac.hweights")),
    *((m, "gamma", "special.gamma") for m in ("hhfrac", "hhfrac.fracquad", "hhfrac.certify")),
)


def _grid_points(xy) -> int:
    return int(np.broadcast(np.asarray(xy[0]), np.asarray(xy[1])).size)


def _certify_counts(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    g = int(bound.arguments["grid"])
    n_t = g if bound.arguments["h"].finite_at_endpoints else g - 2
    tracer.add("hweights.samples", result.samples_checked)
    # One per-t temporary of shape (k, i1, i2, j1, j2) in float64; computed, not measured.
    tracer.maximum("hweights.temp_bytes_computed", n_t * g**4 * 8)


#: span name -> callback(tracer, function, args, kwargs, result) adding counts.
COUNTERS = {
    "fracquad.sample": lambda tr, fn, a, kw, r: tr.add("fracquad.points", np.size(r)),
    "funcspace.eval": lambda tr, fn, a, kw, r: tr.add("funcspace.eval_points",
                                                       _grid_points(a[1:3])),
    "funcspace.mixed_partial": lambda tr, fn, a, kw, r: tr.add(
        "funcspace.mixed_partial_points", _grid_points(a[1:3])),
    "hweights.certify": _certify_counts,
}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patched: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if name == "quadrature.tanh_sinh" and args and callable(args[0]):
                args = (self._counting_integrand(args[0]),) + args[1:]
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting_integrand(self, integrand):
        def counted(t, omt):
            self.add("quadrature.tanh_sinh_points", np.size(t))
            return integrand(t, omt)
        return counted

    # -- spans and counts ---------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def _open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        if not stack and threading.current_thread() is threading.main_thread():
            self._root = idx
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()
        if self._root == idx:
            self._root = -1

    # -- summaries ----------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, ms (outermost spans of a name) and self_ms per span name.

        A span nested in one of the same name (theorem1_chain calling
        theorem4_chain) adds to self time but not to calls or ms.  Self time
        is the duration minus the union of the children's intervals, which
        handles children running in parallel on pool threads.
        """
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            d = out[name]
            if parent < 0 or self.spans[parent][0] != name:
                d["calls"] += 1
                d["ms"] += (end - start) * 1e3
            covered = _union(sorted((max(self.spans[c][1], start), min(self.spans[c][2], end))
                                    for c in children[i]))
            d["self_ms"] += (end - start - covered) * 1e3
        return out

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        s, c = self.by_name(), self.counts

        def get(name, key):
            return s[name][key] if name in s else 0

        main_ms = get("cli.main", "ms")
        certify_ms = get("hweights.certify", "ms")
        return {
            "cli.self_ms": get("cli.main", "self_ms") + get("cli.row", "self_ms"),
            "cli.pool_busy_frac": get("cli.row", "ms") / (main_ms * jobs) if main_ms else 0.0,
            "certify.calls": get("certify.entry", "calls"),
            "certify.self_ms": get("certify.entry", "self_ms"),
            "certify.middle_term_ms": get("certify.middle_term", "ms"),
            "certify.a_term_ms": get("certify.a_term", "ms"),
            "certify.moment_calls": get("certify.moment", "calls"),
            "certify.moment_ms": get("certify.moment", "ms"),
            "fracquad.frac_1d_calls": get("fracquad.frac_1d", "calls"),
            "fracquad.frac_1d_ms": get("fracquad.frac_1d", "ms"),
            "fracquad.frac_2d_calls": get("fracquad.frac_2d", "calls"),
            "fracquad.frac_2d_ms": get("fracquad.frac_2d", "ms"),
            "fracquad.points": c["fracquad.points"],
            "quadrature.rule_calls": get("quadrature.rule", "calls"),
            "quadrature.rule_ms": get("quadrature.rule", "ms"),
            "quadrature.tanh_sinh_calls": get("quadrature.tanh_sinh", "calls"),
            "quadrature.tanh_sinh_points": c["quadrature.tanh_sinh_points"],
            "quadrature.tanh_sinh_ms": get("quadrature.tanh_sinh", "ms"),
            "funcspace.parse_calls": get("funcspace.parse", "calls"),
            "funcspace.parse_ms": get("funcspace.parse", "ms"),
            "funcspace.eval_calls": get("funcspace.eval", "calls"),
            "funcspace.eval_points": c["funcspace.eval_points"],
            "funcspace.eval_ms": get("funcspace.eval", "ms"),
            "funcspace.mixed_partial_calls": get("funcspace.mixed_partial", "calls"),
            "funcspace.mixed_partial_points": c["funcspace.mixed_partial_points"],
            "funcspace.mixed_partial_ms": get("funcspace.mixed_partial", "ms"),
            "funcspace.validate_ms": get("funcspace.validate", "ms"),
            "hweights.certify_ms": certify_ms,
            "hweights.samples": c["hweights.samples"],
            "hweights.samples_per_s": (c["hweights.samples"] / (certify_ms / 1e3)
                                       if certify_ms else 0.0),
            "hweights.temp_bytes_computed": c["hweights.temp_bytes_computed"],
            "hweights.h_eval_calls": get("hweights.h_eval", "calls"),
            "special.gamma_calls": get("special.gamma", "calls"),
            "special.gamma_ms": get("special.gamma", "ms"),
        }


def _union(intervals) -> float:
    """Total length of sorted (start, end) intervals, overlaps counted once."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in intervals:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def rule_builds() -> int:
    """Rule-cache misses so far in this process (rules a cold process builds)."""
    total = 0
    quadrature = importlib.import_module("hhfrac.quadrature")
    for attr in ("power_weighted_rule", "gauss_legendre_01"):
        info = getattr(getattr(quadrature, attr, None), "cache_info", None)
        if info is not None:
            total += info().misses
    return total
