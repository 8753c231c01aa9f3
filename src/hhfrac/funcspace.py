"""Bivariate functions: parsed expressions, builtins, and mixed partials.

The expression language covers constants, the variables ``x`` and ``y``,
``+ - * / ^`` (with ``^`` right-associative and binding tighter than unary
minus), parentheses, and the functions ``exp log sin cos sqrt abs pow``.

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
    "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call", "Expression",
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
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expression", ...]


Expression = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]

#: function name -> arity
FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "pow": 2}

#: binary operator -> (node type, binding power), for the parser and the printer
_BINARY = {"+": (Add, 10), "-": (Sub, 10), "*": (Mul, 20), "/": (Div, 20), "^": (Pow, 30)}
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
            cls, bp = _BINARY[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            # '^' is right-associative: reenter at bp-1 so equal binding recurses.
            right = self.expression(bp - 1 if cls is Pow else bp)
            left = cls(left, right)
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
            return Neg(self.expression(_UNARY_PRECEDENCE))
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
        return Call(name_tok.text, tuple(args))


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

_SYMBOL = {cls: (op, bp) for op, (cls, bp) in _BINARY.items()}


def _fmt(e: Expression, ctx_bp: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_fmt(a, 0) for a in e.args)})"
    if isinstance(e, Neg):
        s = "-" + _fmt(e.operand, _UNARY_PRECEDENCE)
        return f"({s})" if ctx_bp > _UNARY_PRECEDENCE else s
    if isinstance(e, _Shared):
        return _fmt(e.expr, ctx_bp)
    op, cls_bp = _SYMBOL[type(e)]
    if isinstance(e, Pow):
        s = f"{_fmt(e.left, cls_bp)}{op}{_fmt(e.right, cls_bp - 1)}"
    else:
        s = f"{_fmt(e.left, cls_bp - 1)} {op} {_fmt(e.right, cls_bp)}"
    return f"({s})" if ctx_bp >= cls_bp else s


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
_PLAIN = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
#: Every function of a ``Call`` but ``pow`` is numpy's function of its name;
#: those with a domain are tested first.
_NUMPY_FUNCTIONS = frozenset(FUNCTIONS).difference(("pow",)).union(("sign",))
_DOMAIN_TESTS = {"log": (operator.gt, "log of a non-positive value"),
                 "sqrt": (operator.ge, "sqrt of a negative value")}


def _eval(e: Expression, env: dict):
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return env[e.name]
    plain = _PLAIN.get(type(e))
    if plain is not None:  # left first: domain-error order and _Shared counts rely on it
        return plain(_eval(e.left, env), _eval(e.right, env))
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Div):
        num, den = _eval(e.left, env), _eval(e.right, env)
        _domain_check(den != 0, e, "division by zero")
        return num / den
    if isinstance(e, Pow) or (isinstance(e, Call) and e.func == "pow"):
        base, expo = (e.left, e.right) if isinstance(e, Pow) else e.args
        base, expo = _eval(base, env), _eval(expo, env)
        _domain_check(~((base == 0) & (expo < 0)), e, "zero raised to a negative power")
        out = np.power(base, expo)
        _domain_check(~np.isnan(out), e, "negative base with fractional exponent")
        return out
    if isinstance(e, Call):
        arg = _eval(e.args[0], env)
        if e.func in _NUMPY_FUNCTIONS:
            test = _DOMAIN_TESTS.get(e.func)
            if test is not None:
                _domain_check(test[0](arg, 0), e, test[1])
            return getattr(np, e.func)(arg)  # looked up per call, so a patch of np is seen
    if isinstance(e, _Shared):
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


def _operands(e: Expression) -> tuple:
    if isinstance(e, Call):
        return e.args
    if isinstance(e, Neg):
        return (e.operand,)
    return () if isinstance(e, (Num, Var)) else (e.left, e.right)


def _contains_abs(e: Expression) -> bool:
    return getattr(e, "func", None) == "abs" or any(map(_contains_abs, _operands(e)))


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

_ZERO, _ONE = Num(0.0), Num(1.0)


def _fold(cls, a: Expression, b: Expression) -> Expression:
    """``cls(a, b)`` with constants folded and the identities of 0 and 1
    applied (a + 0, 0 * b, a / 1, a^0, ...); a constant that does not
    evaluate (0 / 0) stays for :func:`evaluate` to report."""
    # Constants are compared by value: == on a node is a Python-level call.
    if isinstance(b, Num):
        if isinstance(a, Num):
            try:
                return Num(float(_eval_quiet(cls(a, b), {})))
            except EvaluationDomainError:
                return cls(a, b)
        if b.value == 0.0 and cls in (Add, Sub) or b.value == 1.0 and cls in (Mul, Div, Pow):
            return a
        if b.value == 0.0 and cls in (Mul, Pow):
            return _ZERO if cls is Mul else _ONE
    elif isinstance(a, Num):
        if a.value == 0.0 and cls in (Mul, Div):
            return _ZERO
        if a.value == 0.0 and cls in (Add, Sub):
            return b if cls is Add else Neg(b)
        if a.value == 1.0 and cls is Mul:
            return b
    return cls(a, b)


def _diff(expr: Expression, var: str) -> Expression:
    """d expr / d var as a new AST.

    Terms that are zero by structure (the derivative of a subexpression free
    of ``var``) are dropped rather than evaluated, and constants are folded
    (:func:`_fold`), so ``x^0.5`` has the y-derivative ``0``, not
    ``0 * 0.5 * x^(-0.5)``, which cannot be evaluated at x = 0.  A power
    whose exponent depends on ``var`` differentiates through ``log`` of its
    base.
    """
    def d(e: Expression) -> Expression:
        if isinstance(e, Num):
            return _ZERO
        if isinstance(e, Var):
            return _ONE if e.name == var else _ZERO
        if isinstance(e, Neg):
            return _fold(Sub, _ZERO, d(e.operand))
        if isinstance(e, (Add, Sub)):
            return _fold(type(e), d(e.left), d(e.right))
        if isinstance(e, Mul):
            return _fold(Add, _fold(Mul, d(e.left), e.right), _fold(Mul, e.left, d(e.right)))
        if isinstance(e, Div):
            u, v = e.left, e.right
            return _fold(Sub, _fold(Div, d(u), v),
                         _fold(Div, _fold(Mul, u, d(v)), _fold(Mul, v, v)))
        if isinstance(e, Pow) or e.func == "pow":
            u, w = (e.left, e.right) if isinstance(e, Pow) else e.args
            du, dw = d(u), d(w)
            if dw == _ZERO:
                return _fold(Mul, _fold(Mul, w, _fold(Pow, u, _fold(Sub, w, _ONE))), du)
            return _fold(Mul, e, _fold(Add, _fold(Mul, dw, Call("log", (u,))),
                                       _fold(Div, _fold(Mul, w, du), u)))
        if e.func == "sign":
            return _ZERO
        u = e.args[0]
        if e.func == "log":
            return _fold(Div, d(u), u)
        if e.func == "sqrt":
            return _fold(Div, d(u), _fold(Mul, Num(2.0), e))
        outer = {
            "exp": e,
            "sin": Call("cos", (u,)),
            "cos": Neg(Call("sin", (u,))),
            "abs": Call("sign", (u,)),
        }[e.func]
        return _fold(Mul, outer, d(u))

    return d(expr)


def _share(expr: Expression) -> Expression:
    """``expr`` as a DAG: structurally equal operator subexpressions become
    one node, wrapped in :class:`_Shared` where it has several parents.

    A node is keyed on its type, its function name and its operands' keys,
    where an operator's key is the identity of the first node seen with its
    structure, so each object is keyed once (a structural hash would rehash
    every subtree at each level).  Only nodes whose operands changed are
    rebuilt.  Leaves stay apart: sharing them saves no work.
    """
    first, rep_of, parents, order = {}, {}, {}, []

    def key(e):
        if isinstance(e, Num):
            return (e.value, math.copysign(1.0, e.value))  # -0.0 is not 0.0
        if isinstance(e, Var):
            return e.name
        rep = rep_of.get(id(e))
        if rep is None:
            ops = _operands(e)
            keys = [key(o) for o in ops]
            rep = first.setdefault((type(e), getattr(e, "func", None), *keys), e)
            rep = rep_of[id(e)] = id(rep)
            if rep == id(e):
                order.append((e, ops))
                for k in keys:
                    if type(k) is int:  # an operator operand
                        parents[k] = parents.get(k, 0) + 1
        return rep

    root = key(expr)
    built = {}
    for e, old in order:
        new = tuple([o if isinstance(o, (Num, Var)) else built[rep_of[id(o)]] for o in old])
        node = e
        if any(map(operator.is_not, new, old)):
            node = Call(e.func, new) if isinstance(e, Call) else type(e)(*new)
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
