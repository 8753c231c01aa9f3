"""The fixed operation lists of the three workloads, made from a seed.

Both the workload process (which runs the operations) and the parent process
(which computes the references and checks the outputs) build the same list
from the same seed.  Everything here is plain data: no hhfrac import.

The seed changes only what cannot change the cost or the failure set of an
operation: the order of the theorem calls, polynomial and bump coefficients,
the power-weight exponent of one certificate, and the order of the sweep axis
values.  Every input that runs into a counted fault is fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

UNIT = (0.0, 1.0, 0.0, 1.0)
RECT2 = (0.5, 2.0, 0.25, 1.5)
ALPHAS = (0.5, 1.0, 1.7, 2.5)
BETAS = (0.5, 1.3, 2.0)
ORDERS = tuple((a, b) for a in ALPHAS for b in BETAS)
TABLE_H = "table:perfbench/h_table.txt"
H_CYCLE = ("identity", "power:0.5", "one", TABLE_H)
EXPR_E = "exp(x+y)*sin(x*y)+x^3*y^2"
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Fn:
    """A test function: what hhfrac receives and what the references use.

    ``spec`` goes to ``hhfrac.parse_function_spec``; ``sym`` is the same
    function in sympy syntax; ``terms`` is its separable form
    ``((c, gx, gy), ...)`` with factors ``("pow", m)`` (t^m) or
    ``("exp", 0)`` (e^t), empty when there is none.
    """

    spec: str
    sym: str
    terms: tuple = ()


def _pow(m):
    return ("pow", float(m))


EXP = ("exp", 0.0)
PRODUCT = Fn("builtin:product", "x*y", ((1.0, _pow(1), _pow(1)),))
QUADRATIC = Fn("builtin:quadratic", "x**2 + y**2",
               ((1.0, _pow(2), _pow(0)), (1.0, _pow(0), _pow(2))))
BIQUADRATIC = Fn("builtin:biquadratic", "x**2*y**2", ((1.0, _pow(2), _pow(2)),))
EXPSUM = Fn("builtin:expsum", "exp(x + y)", ((1.0, EXP, EXP),))
POWERSUM = Fn("builtin:powersum:0.5", "x**0.5 + y**0.5",
              ((1.0, _pow(0.5), _pow(0)), (1.0, _pow(0), _pow(0.5))))
E = Fn(EXPR_E, "exp(x + y)*sin(x*y) + x**3*y**2")
SQRTSUM = Fn("x^0.5 + y^0.5", "x**0.5 + y**0.5")


def poly_p(c1: float, c2: float) -> Fn:
    """c1 x^3 y^2 + c2 x y: non-negative and coordinate convex for x, y >= 0."""
    return Fn(f"{c1:.3f}*x^3*y^2 + {c2:.3f}*x*y", f"{c1:.3f}*x**3*y**2 + {c2:.3f}*x*y",
              ((c1, _pow(3), _pow(2)), (c2, _pow(1), _pow(1))))


def poly_q(c1: float, c2: float) -> Fn:
    """c1 x^2 y^2 + c2 x y, whose mixed partial 4 c1 x y + c2 is positive."""
    return Fn(f"{c1:.3f}*x^2*y^2 + {c2:.3f}*x*y", f"{c1:.3f}*x**2*y**2 + {c2:.3f}*x*y",
              ((c1, _pow(2), _pow(2)), (c2, _pow(1), _pow(1))))


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` is t1, t4, t5, t6, lemma1, frac1d, frac2d, sweep or certify.
    ``certified`` marks an inequality whose hypotheses hold (f, or for the
    bounds |d^2 f/dxdy|^q, is non-negative and coordinate convex and h(t) >= t),
    so it must pass.  ``fd`` marks outputs that go through the finite-difference
    mixed partial.  ``fault`` names the known program fault that makes the
    operation fail; it is empty for every operation that must succeed.
    """

    id: str
    kind: str
    fn: Fn | None = None
    h: str | None = None
    order: tuple = (1.0, 1.0)
    rect: tuple = UNIT
    p: float | None = None
    extra: dict = field(default_factory=dict)
    certified: bool = False
    fd: bool = False
    fault: str = ""


FD_FAULT = "finite-difference mixed partial (ROADMAP item 2)"


def _fmt_rect(r):
    return "U" if r == UNIT else "R"


def _theorem_op(kind, fn, name, order, rect, h=None, p=None, **kw):
    tag = f"{kind}/{name}/{h or '-'}/a{order[0]}/b{order[1]}/{_fmt_rect(rect)}"
    if p is not None:
        tag += f"/p{p}"
    return Op(tag, kind, fn, h, order, rect, p, **kw)


def theorems_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    coef = lambda: round(rng.uniform(0.5, 2.0), 3)  # noqa: E731
    p_fn, q_fn = poly_p(coef(), coef()), poly_q(coef(), coef())
    ops = []
    for i, order in enumerate(ORDERS):
        hc = H_CYCLE[i % 4]
        ops += [
            _theorem_op("t1", BIQUADRATIC, "biquadratic", order, RECT2, certified=True),
            _theorem_op("t4", PRODUCT, "product", order, UNIT, hc, certified=True),
            _theorem_op("t4", POWERSUM, "powersum", order, UNIT, "power:0.5", certified=True),
            _theorem_op("t5", EXPSUM, "expsum", order, RECT2, hc, certified=True),
            _theorem_op("t6", BIQUADRATIC, "biquadratic", order, UNIT, hc,
                        p=(1.5, 2.0, 3.0)[i % 3], certified=True),
            _theorem_op("lemma1", E, "E", order, UNIT, fd=True,
                        fault=FD_FAULT if order == (1.0, 1.3) else ""),
            _theorem_op("lemma1", BIQUADRATIC, "biquadratic", order, RECT2),
            _theorem_op("t4", p_fn, "P", order, RECT2, hc, certified=True),
        ]
        if order[1] != 1.3:
            ops.append(_theorem_op("t5", q_fn, "Q", order, RECT2, hc, certified=True, fd=True))
    for a in ALPHAS:
        ops.append(_theorem_op("t6", E, "E", (a, 1.3), UNIT, "identity", p=2.0, fd=True))
    ops.append(_theorem_op("t5", SQRTSUM, "sqrtsum", (1.0, 1.0), UNIT, "power:0.5",
                           fd=True, fault=FD_FAULT))

    poly1 = (round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3))
    freq = round(rng.uniform(2.0, 4.0), 3)
    one_d = (
        ("poly", f"{poly1[0]:.3f}*x^3 - {poly1[1]:.3f}*x", (0.5, 2.0),
         ((poly1[0], _pow(3)), (-poly1[1], _pow(1)))),
        ("expcos", f"exp(x)*cos({freq:.3f}*x)", (0.0, 1.0), f"exp(x)*cos({freq:.3f}*x)"),
    )
    for name, src, (lo, hi), ref in one_d:
        for a in ALPHAS:
            for side, at in (("left", hi), ("right", lo)):
                ops.append(Op(f"frac1d/{name}/a{a}/{side}", "frac1d", order=(a, a),
                              extra={"src": src, "side": side, "interval": (lo, hi),
                                     "at": at, "ref": ref}))
    a0, b0, c0, d0 = RECT2
    corners = (("a+c+", (b0, d0)), ("a+d-", (b0, c0)), ("b-c+", (a0, d0)), ("b-d-", (a0, c0)))
    for order in ((0.5, 1.3), (1.7, 2.0)):
        for corner, at in corners:
            ops.append(Op(f"frac2d/P/a{order[0]}/b{order[1]}/{corner}", "frac2d", p_fn,
                          order=order, rect=RECT2, extra={"corner": corner, "at": at}))
    rng.shuffle(ops)
    return ops


def _axis(values, rng):
    vals = list(values)
    rng.shuffle(vals)
    return ",".join(repr(v) for v in vals)


SWEEP_ALPHAS = tuple(0.25 * i for i in range(1, 13))
SWEEP_BETAS = tuple(0.5 * i for i in range(1, 7))
SWEEP_PS = (1.5, 2.0, 3.0)
SWEEP_T6 = {"beta": 1.0, "h": "identity"}
SWEEP_FAULT_ROWS = ((2.0, 2.5), (2.5, 0.5))


def sweep_ops(seed: int) -> list[Op]:
    """The two sweeps; the seed permutes the axis values (and so the rows)."""
    rng = random.Random(seed)
    common = ["--f", EXPR_E, "--rect", "0", "1", "0", "1",
              "--nodes", "128", "--jobs", str(SWEEP_JOBS)]
    lemma = ["sweep", "--theorem", "lemma1", *common,
             "--axis", "alpha=" + _axis(SWEEP_ALPHAS, rng),
             "--axis", "beta=" + _axis(SWEEP_BETAS, rng)]
    t6 = ["sweep", "--theorem", "t6", *common,
          "--beta", repr(SWEEP_T6["beta"]), "--h", SWEEP_T6["h"],
          "--axis", "alpha=" + _axis(SWEEP_ALPHAS, rng),
          "--axis", "p=" + _axis(SWEEP_PS, rng)]
    return [
        Op("sweep/lemma1", "sweep", E, extra={"argv": lemma,
                                               "rows": len(SWEEP_ALPHAS) * len(SWEEP_BETAS)},
           fd=True),
        Op("sweep/t6", "sweep", E, h=SWEEP_T6["h"],
           extra={"argv": t6, "rows": len(SWEEP_ALPHAS) * len(SWEEP_PS)}, fd=True),
    ]


def certify_ops(seed: int) -> list[Op]:
    """Convex corpus (must pass), perturbed functions (must fail), one concave
    check and one grid-21 certificate.  ``extra["f"]`` names a benchmark
    function from :data:`CERTIFY_FUNCTIONS` with its parameters."""
    rng = random.Random(seed)
    s = round(rng.uniform(0.3, 0.9), 3)
    bil = [round(rng.uniform(0.1, 1.0), 3) for _ in range(4)]
    bump = round(rng.uniform(0.4, 0.6), 3)
    dip = round(rng.uniform(0.2, 0.4), 3)
    rows = (
        ("product", (), "identity", 17, "convex", "pass"),
        ("quadratic", (), f"power:{s}", 17, "convex", "pass"),
        ("biquadratic", (), "one", 17, "convex", "pass"),
        ("expsum", (), "gl", 17, "convex", "pass"),
        ("bilinear", tuple(bil), "power:0.5", 17, "convex", "pass"),
        ("bump", (bump,), "identity", 17, "convex", "fail"),
        ("dip", (dip,), "identity", 17, "convex", "fail"),
        ("powersum", (0.5,), "identity", 17, "concave", "pass"),
        ("quadratic", (), "identity", 21, "convex", "pass"),
    )
    return [Op(f"certify/{name}/{h}/g{grid}/{direction}", "certify", h=h,
               extra={"f": name, "params": params, "grid": grid,
                      "direction": direction, "expect": expect})
            for name, params, h, grid, direction, expect in rows]


BUILDERS = {"theorems": theorems_ops, "sweep": sweep_ops, "certify": certify_ops}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def operations_per_op(op: Op) -> int:
    """Operations an Op counts for: one per sweep row, one otherwise."""
    return op.extra["rows"] if op.kind == "sweep" else 1


#: The certify workload's functions for ``f(m, x, y, *params)``, where ``m`` is
#: ``numpy`` (what the program receives) or ``math`` (the benchmark's own
#: scalar re-evaluation of a witness).  Names that are hhfrac builtins are
#: handed to the program as builtins.
CERTIFY_FUNCTIONS = {
    "product": lambda m, x, y: x * y,
    "quadratic": lambda m, x, y: x * x + y * y,
    "biquadratic": lambda m, x, y: (x * y) ** 2,
    "expsum": lambda m, x, y: m.exp(x + y),
    "bilinear": lambda m, x, y, c0, cx, cy, cxy: c0 + cx * x + cy * y + cxy * x * y,
    "powersum": lambda m, x, y, s: x**s + y**s,
    # Concave across x where 2 < e pi^2 sin(pi x) sin(pi y): not coordinate convex.
    "bump": lambda m, x, y, e: x * x + y * y + e * m.sin(m.pi * x) * m.sin(m.pi * y),
    # Concave in x for every e > 0.
    "dip": lambda m, x, y, e: x * y - e * (x - 0.5) ** 2,
}
BUILTINS = ("product", "quadratic", "biquadratic", "expsum", "bilinear", "powersum")


def certify_grid_points(h: str, grid: int) -> int:
    """Points in t and k: the Godunova-Levin weight skips t = 0 and t = 1."""
    return grid - 2 if h == "gl" else grid
