"""Bivariate functions: parsed expressions, builtins, and mixed partials.

The expression language covers constants, the variables ``x`` and ``y``,
``+ - * / ^`` (with ``^`` right-associative and binding tighter than unary
minus), parentheses, and the functions ``exp log sin cos sqrt abs pow``.
An expression is a tree of three node kinds: :class:`Num`, :class:`Var` and
:class:`Op`, an operator named by its symbol or function name.  The parser,
the printer, the evaluator and the derivative all dispatch on that name.

The mixed partial d^2 f / dx dy of a parsed function is its expression
differentiated symbolically (:func:`_diff`; Griewank & Walther, *Evaluating
Derivatives*, SIAM 2008, ch. 1), built on first use and run through
:func:`evaluate`, so a domain violation names the offending subexpression of
the derivative.  Structural zeros are dropped, so ``x^0.5 + y^0.5`` has the
constant mixed partial 0, also on the axes.  ``abs(u)`` differentiates to
``sign(u) u'``; ``sign`` occurs only in derivatives and is not parsed.  The
derivative repeats subexpressions of f and of its first partial (``exp(x +
y)``, ``cos(x * y)``, ...), so it is kept as a DAG in which equal
subexpressions are one node (:func:`_share`): an evaluation computes each
shared node once and drops its value after the last use.
Builtins carry hand-written partials.  A function brings its own partial:
:func:`mixed_partial` never approximates one, and rejects a plain callable
that has none, so no derivative error lies outside the error estimates.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    EvaluationDomainError,
    EvaluationError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)

__all__ = [
    "Num", "Var", "Op", "Expression",
    "parse_expression", "parse_univariate", "format_expression", "evaluate",
    "mixed_partial", "BivariateFunction",
    "BUILTIN_NAMES", "builtin_function", "parse_function_spec",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Op:
    """An operator applied to ``args``.  ``op`` is a binary symbol of
    :data:`_BINARY` (two args), ``"neg"`` (one) or a function name of
    :data:`FUNCTIONS`, or ``"sign"``, which only derivatives hold.  Every
    pass over an expression dispatches on ``op``."""

    op: str
    args: tuple["Expression", ...]


Expression = Union[Num, Var, Op]

#: function name -> arity
FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "pow": 2}

#: binary operator -> binding power, for the parser and the printer
_BINARY = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25  # ^ binds tighter than unary minus: -x^2 == -(x^2)


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExpressionSyntaxError(
                pos, ("number", "identifier", "operator"),
                f"unexpected character {src[pos]!r}",
            )
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.current
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ExpressionSyntaxError(tok.offset, (f"'{op}'",))

    def parse(self) -> Expression:
        expr = self.expression(0)
        tok = self.current
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                tok.offset, ("operator", "end of input"), f"trailing {tok.text!r}"
            )
        return expr

    def expression(self, min_bp: int) -> Expression:
        left = self.prefix()
        while True:
            tok = self.current
            if tok.kind != "op" or tok.text not in _BINARY:
                break
            bp = _BINARY[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            # '^' is right-associative: reenter at bp-1 so equal binding recurses.
            right = self.expression(bp - 1 if tok.text == "^" else bp)
            left = Op(tok.text, (left, right))
        return left

    def prefix(self) -> Expression:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in self.variables:
                return Var(tok.text)
            if tok.text in FUNCTIONS:
                return self.call(tok)
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Op("neg", (self.expression(_UNARY_PRECEDENCE),))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(
            tok.offset, ("number", "identifier", "'('", "'-'")
        )

    def call(self, name_tok: _Token) -> Expression:
        arity = FUNCTIONS[name_tok.text]
        self.expect_op("(")
        args = [self.expression(0)]
        while len(args) < arity:
            self.expect_op(",")
            args.append(self.expression(0))
        tok = self.current
        if tok.kind == "op" and tok.text == ",":
            raise ExpressionSyntaxError(
                tok.offset, ("')'",), f"{name_tok.text} takes {arity} argument(s)"
            )
        self.expect_op(")")
        return Op(name_tok.text, tuple(args))


def parse_expression(src: str, variables: tuple[str, ...] = ("x", "y")) -> Expression:
    """Parse an expression over the given variables into an AST.

    Raises :class:`ExpressionSyntaxError` (with byte offset and the accepted
    token kinds) or :class:`UnknownIdentifierError`.
    """
    if not src or not src.strip():
        raise ExpressionSyntaxError(0, ("number", "identifier", "'('", "'-'"),
                                    "empty expression")
    return _Parser(_tokenize(src), variables).parse()


def parse_univariate(src: str) -> Expression:
    """Parse an expression in the single variable ``t``."""
    return parse_expression(src, variables=("t",))


# ---------------------------------------------------------------------------
# pretty printer (round-trips through parse_expression)
# ---------------------------------------------------------------------------

def _fmt(e: Expression, ctx_bp: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, _Shared):
        return _fmt(e.expr, ctx_bp)
    op, args = e.op, e.args
    if op == "neg":
        s = "-" + _fmt(args[0], _UNARY_PRECEDENCE)
        return f"({s})" if ctx_bp > _UNARY_PRECEDENCE else s
    bp = _BINARY.get(op)
    if bp is None:
        return f"{op}({', '.join(_fmt(a, 0) for a in args)})"
    if op == "^":
        s = f"{_fmt(args[0], bp)}^{_fmt(args[1], bp - 1)}"
    else:
        s = f"{_fmt(args[0], bp - 1)} {op} {_fmt(args[1], bp)}"
    return f"({s})" if ctx_bp >= bp else s


def format_expression(e: Expression) -> str:
    """Render an AST to source that re-parses to a structurally equal AST."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class _Shared:
    """A node with ``uses`` parents in a DAG made by :func:`_share`.  A call
    of :func:`_eval` computes ``expr`` at the first use and keeps the value
    until the last."""

    __slots__ = ("expr", "uses")

    def __init__(self, expr: Expression, uses: int):
        self.expr, self.uses = expr, uses


def _domain_check(ok: np.ndarray | np.bool_, node: Expression, what: str) -> None:
    if not ok.all():  # half the cost of np.all(ok) on small arrays
        raise EvaluationDomainError(f"{what} in '{format_expression(node)}'")


#: The operators evaluated without a domain test.
_PLAIN = {"+": operator.add, "-": operator.sub, "*": operator.mul}
#: Every function but ``pow`` is numpy's function of its name; those with a
#: domain are tested first.
_NUMPY_FUNCTIONS = frozenset(FUNCTIONS).difference(("pow",)).union(("sign",))
_DOMAIN_TESTS = {"log": (operator.gt, "log of a non-positive value"),
                 "sqrt": (operator.ge, "sqrt of a negative value")}


def _eval(e: Expression, env: dict):
    """The value of ``e`` over the arrays of ``env``, by ``op``; ``^`` and
    ``pow`` are one operation.  Operands are evaluated left first: the order
    of domain errors and the use counts of :class:`_Shared` rely on it."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Op):
        op, args = e.op, e.args
        plain = _PLAIN.get(op)
        if plain is not None:
            return plain(_eval(args[0], env), _eval(args[1], env))
        if op == "neg":
            return -_eval(args[0], env)
        if op == "/":
            num, den = _eval(args[0], env), _eval(args[1], env)
            _domain_check(den != 0, e, "division by zero")
            return num / den
        if op == "^" or op == "pow":
            base, expo = _eval(args[0], env), _eval(args[1], env)
            _domain_check(~((base == 0) & (expo < 0)), e, "zero raised to a negative power")
            out = np.power(base, expo)
            _domain_check(~np.isnan(out), e, "negative base with fractional exponent")
            return out
        arg = _eval(args[0], env)
        if op in _NUMPY_FUNCTIONS:
            test = _DOMAIN_TESTS.get(op)
            if test is not None:
                _domain_check(test[0](arg, 0), e, test[1])
            return getattr(np, op)(arg)  # looked up per call, so a patch of np is seen
    elif isinstance(e, _Shared):
        # The call's environment holds [value, uses left] from the first use
        # to the last.
        slot = env.get(e)
        if slot is None:
            value = _eval(e.expr, env)
            env[e] = [value, e.uses - 1]
            return value
        slot[1] -= 1
        if not slot[1]:
            del env[e]
        return slot[0]
    raise EvaluationError(f"cannot evaluate node {e!r}")


def _eval_quiet(expr: Expression, env: dict):
    """:func:`_eval` without numpy's floating-point warnings.  A domain
    violation raises from :func:`_domain_check`, and an overflow leaves a
    value that is not finite, which the samplers report with its point."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _eval(expr, env)


def evaluate(expr: Expression, x, y):
    """Evaluate at (x, y); accepts scalars or numpy arrays (broadcast).

    Domain violations raise :class:`EvaluationDomainError` naming the
    offending subexpression instead of silently returning NaN.
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    out = _eval_quiet(expr, {"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float)})
    return float(out) if scalar else out


def _evaluate_univariate(expr: Expression, t):
    scalar = np.isscalar(t)
    out = _eval_quiet(expr, {"t": np.asarray(t, dtype=float)})
    return float(out) if scalar else out


def _contains_abs(e: Expression) -> bool:
    return isinstance(e, Op) and (e.op == "abs" or any(map(_contains_abs, e.args)))


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)


def _fold(op: str, a: Expression, b: Expression) -> Expression:
    """``Op(op, (a, b))`` for a binary symbol ``op``, with constants folded
    and the identities of 0 and 1 applied (a + 0, 0 * b, a / 1, a^0, ...); a
    constant that does not evaluate (0 / 0) stays for :func:`evaluate` to
    report."""
    # Constants are compared by value: == on a node is a Python-level call.
    if isinstance(b, Num):
        if isinstance(a, Num):
            try:
                return Num(float(_eval_quiet(Op(op, (a, b)), {})))
            except EvaluationDomainError:
                return Op(op, (a, b))
        if b.value == 0.0 and op in ("+", "-") or b.value == 1.0 and op in ("*", "/", "^"):
            return a
        if b.value == 0.0 and op in ("*", "^"):
            return _ZERO if op == "*" else _ONE
    elif isinstance(a, Num):
        if a.value == 0.0 and op in ("*", "/"):
            return _ZERO
        if a.value == 0.0 and op in ("+", "-"):
            return b if op == "+" else Op("neg", (b,))
        if a.value == 1.0 and op == "*":
            return b
    return Op(op, (a, b))


def _diff(expr: Expression, var: str) -> Expression:
    """d expr / d var as a new AST.

    Terms that are zero by structure (the derivative of a subexpression free
    of ``var``) are dropped rather than evaluated, and constants are folded
    (:func:`_fold`), so ``x^0.5`` has the y-derivative ``0``, not
    ``0 * 0.5 * x^(-0.5)``, which cannot be evaluated at x = 0.  A power
    (``^`` or ``pow``) whose exponent depends on ``var`` differentiates
    through ``log`` of its base.
    """
    def d(e: Expression) -> Expression:
        if isinstance(e, Num):
            return _ZERO
        if isinstance(e, Var):
            return _ONE if e.name == var else _ZERO
        op, u, v = e.op, e.args[0], e.args[-1]  # v is u for one operand
        if op == "neg":
            return _fold("-", _ZERO, d(u))
        if op == "+" or op == "-":
            return _fold(op, d(u), d(v))
        if op == "*":
            return _fold("+", _fold("*", d(u), v), _fold("*", u, d(v)))
        if op == "/":
            return _fold("-", _fold("/", d(u), v),
                         _fold("/", _fold("*", u, d(v)), _fold("*", v, v)))
        if op == "^" or op == "pow":
            du, dv = d(u), d(v)
            if dv == _ZERO:
                return _fold("*", _fold("*", v, _fold("^", u, _fold("-", v, _ONE))), du)
            return _fold("*", e, _fold("+", _fold("*", dv, Op("log", (u,))),
                                       _fold("/", _fold("*", v, du), u)))
        if op == "sign":
            return _ZERO
        if op == "log":
            return _fold("/", d(u), u)
        if op == "sqrt":
            return _fold("/", d(u), _fold("*", Num(2.0), e))
        outer = {
            "exp": e,
            "sin": Op("cos", (u,)),
            "cos": Op("neg", (Op("sin", (u,)),)),
            "abs": Op("sign", (u,)),
        }[op]
        return _fold("*", outer, d(u))

    return d(expr)


def _share(expr: Expression) -> Expression:
    """``expr`` as a DAG: structurally equal operator subexpressions become
    one node, wrapped in :class:`_Shared` where it has several parents.

    An operator is keyed on ``(op, *its operands' keys)``, where an
    operator's key is the identity of the first node seen with its
    structure, so each object is keyed once (a structural hash would rehash
    every subtree at each level).  Only nodes whose operands changed are
    rebuilt, as ``Op(op, new operands)``.  Leaves stay apart: sharing them
    saves no work.
    """
    first, rep_of, parents, order = {}, {}, {}, []

    def key(e):
        if isinstance(e, Num):
            return (e.value, math.copysign(1.0, e.value))  # -0.0 is not 0.0
        if isinstance(e, Var):
            return e.name
        rep = rep_of.get(id(e))
        if rep is None:
            keys = [key(o) for o in e.args]
            rep = first.setdefault((e.op, *keys), e)
            rep = rep_of[id(e)] = id(rep)
            if rep == id(e):
                order.append(e)
                for k in keys:
                    if type(k) is int:  # an operator operand
                        parents[k] = parents.get(k, 0) + 1
        return rep

    root = key(expr)
    built = {}
    for e in order:
        old = e.args
        new = tuple([o if isinstance(o, (Num, Var)) else built[rep_of[id(o)]] for o in old])
        node = Op(e.op, new) if any(map(operator.is_not, new, old)) else e
        uses = parents.get(id(e), 0)
        built[id(e)] = _Shared(node, uses) if uses > 1 else node
    return built[root] if type(root) is int else expr


def _lazy_mixed_partial(ast: Expression) -> Callable:
    """``evaluate`` of d^2 ast / dx dy as a DAG (:func:`_share`), built on the
    first call and kept by the returned closure."""
    d2 = []

    def partial(x, y):
        if not d2:
            d2.append(_share(_diff(_diff(ast, "x"), "y")))
        return evaluate(d2[0], x, y)

    return partial


# ---------------------------------------------------------------------------
# the bivariate function wrapper
# ---------------------------------------------------------------------------

#: Keys kept by :meth:`BivariateFunction.cached`: one theorem call on one
#: rectangle uses at most 8, so two rectangles fit.
_SAMPLE_CACHE_KEYS = 16


@dataclass(frozen=True)
class BivariateFunction:
    """An evaluable f(x, y) with an optional mixed partial d^2 f / dx dy.

    ``evaluator`` (and ``mixed_partial`` when present) should accept numpy
    arrays and broadcast; one that takes only scalars is called per point,
    slowly.  The trapezoid bounds and the lemma1 identity
    (:func:`hhfrac.theorem5_bound`, :func:`hhfrac.theorem6_bound`,
    :func:`hhfrac.lemma1_residual`) need ``mixed_partial``; the chains, the
    fractional integrals and the convexity certificate use only
    ``evaluator``.  ``provenance`` records how the function was built
    (``builtin:...`` or ``parsed:...``).  ``kinked`` flags functions whose
    mixed partial is unreliable near a kink (``abs`` in the source).
    The last :data:`_SAMPLE_CACHE_KEYS` sample grids built through
    :meth:`cached` live as long as the function, and so does the last
    alpha-side half-product that :mod:`hhfrac.certify` keeps with each grid:
    reusing one function across orders reuses both.
    """

    evaluator: Callable
    mixed_partial: Optional[Callable] = None
    provenance: str = ""
    kinked: bool = False
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, x, y):
        return self.evaluator(x, y)

    def cached(self, key, build: Callable):
        """The value stored under ``key``, from ``build()`` on first use; a
        ``build`` that raises stores nothing.  Past :data:`_SAMPLE_CACHE_KEYS`
        keys the oldest are dropped."""
        # get, a list copy and pop with a default: a key that another thread
        # drops meanwhile raises nowhere
        value = self._samples.get(key)
        if value is None:
            value = self._samples[key] = build()
            for old in list(self._samples)[:-_SAMPLE_CACHE_KEYS]:
                self._samples.pop(old, None)
        return value


def mixed_partial(f, x, y):
    """d^2 f / dx dy at (x, y), from the function's own partial.

    Parsed and builtin functions carry one.  Anything else raises
    :class:`DomainError`: build f with :func:`parse_function_spec` from an
    expression string or a ``builtin:`` name, or wrap a plain callable as
    ``BivariateFunction(f, partial)`` with its exact partial.
    """
    partial = getattr(f, "mixed_partial", None)
    if partial is None:
        raise DomainError(
            "d^2f/dxdy is needed but the function carries no mixed partial: "
            "build it with parse_function_spec from an expression string or a "
            "builtin: name, or pass BivariateFunction(f, partial) with the exact partial")
    return partial(x, y)


# ---------------------------------------------------------------------------
# builtin registry
# ---------------------------------------------------------------------------

def _const_like(value: float) -> Callable:
    return lambda x, y: x * 0.0 + y * 0.0 + value


def _powersum(s: float) -> BivariateFunction:
    if not 0.0 < s <= 1.0:
        raise DomainError(f"powersum parameter s must lie in (0, 1], got {s}")

    def ev(x, y):
        if s != 1.0 and (np.any(np.asarray(x) < 0) or np.any(np.asarray(y) < 0)):
            raise EvaluationError("powersum with s < 1 requires x, y >= 0")
        return np.power(x, s) + np.power(y, s)

    return BivariateFunction(ev, _const_like(0.0), provenance=f"builtin:powersum:{s!r}")


def _bilinear(c0: float, cx: float, cy: float, cxy: float) -> BivariateFunction:
    return BivariateFunction(
        lambda x, y: c0 + cx * x + cy * y + cxy * x * y,
        _const_like(cxy),
        provenance=f"builtin:bilinear:{c0!r}:{cx!r}:{cy!r}:{cxy!r}",
    )


BUILTIN_NAMES = ("product", "quadratic", "biquadratic", "expsum", "powersum", "bilinear")


def builtin_function(name: str, *params: float) -> BivariateFunction:
    """Construct a builtin by name; see :data:`BUILTIN_NAMES`."""
    if name == "product":
        return BivariateFunction(lambda x, y: x * y, _const_like(1.0),
                                 provenance="builtin:product")
    if name == "quadratic":
        return BivariateFunction(lambda x, y: x * x + y * y, _const_like(0.0),
                                 provenance="builtin:quadratic")
    if name == "biquadratic":
        return BivariateFunction(lambda x, y: (x * y) ** 2, lambda x, y: 4.0 * x * y,
                                 provenance="builtin:biquadratic")
    if name == "expsum":
        return BivariateFunction(lambda x, y: np.exp(x + y), lambda x, y: np.exp(x + y),
                                 provenance="builtin:expsum")
    if name == "powersum":
        if len(params) != 1:
            raise DomainError("powersum takes one parameter s")
        return _powersum(float(params[0]))
    if name == "bilinear":
        if len(params) != 4:
            raise DomainError("bilinear takes four coefficients c0, cx, cy, cxy")
        return _bilinear(*(float(p) for p in params))
    raise DomainError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")


def parse_function_spec(text: str) -> BivariateFunction:
    """Build a function from CLI syntax: ``builtin:name[:param...]`` or an
    expression in x and y."""
    if text.startswith("builtin:"):
        parts = text.split(":")
        name = parts[1] if len(parts) > 1 else ""
        try:
            params = tuple(float(p) for p in parts[2:])
        except ValueError as exc:
            raise DomainError(f"bad builtin parameter in {text!r}: {exc}") from exc
        return builtin_function(name, *params)
    ast = parse_expression(text)
    return BivariateFunction(
        evaluator=lambda x, y: evaluate(ast, x, y),
        mixed_partial=_lazy_mixed_partial(ast),
        provenance=f"parsed:{text}",
        kinked=_contains_abs(ast),
    )


def univariate_from_source(text: str) -> Callable:
    """Parse an expression in ``t`` and return a plain callable."""
    ast = parse_univariate(text)
    return lambda t: _evaluate_univariate(ast, t)
