"""Bivariate functions: parsed expressions, builtins, and mixed partials.

The expression language covers constants, the variables ``x`` and ``y``,
``+ - * / ^`` (with ``^`` right-associative and binding tighter than unary
minus), parentheses, and the functions ``exp log sin cos sqrt abs pow``.
Parsed functions have no symbolic derivative; the mixed partial
d^2 f / dx dy falls back to the 4-point central cross stencil

    [f(x+h, y+k) - f(x+h, y-k) - f(x-h, y+k) + f(x-h, y-k)] / (4 h k)

with steps scaled per axis by the width of the target rectangle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    EvaluationDomainError,
    EvaluationError,
    ExpressionSyntaxError,
    StepUnderflowError,
    UnknownIdentifierError,
)
from .fracquad import Rectangle
from .quadrature import CACHE_LOCK

__all__ = [
    "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call", "Expression",
    "parse_expression", "parse_univariate", "format_expression", "evaluate",
    "FDSpec", "mixed_partial", "BivariateFunction",
    "BUILTIN_NAMES", "builtin_function", "parse_function_spec",
    "validate_mixed_partial",
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

_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
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
            if tok.kind != "op" or tok.text not in _BIN_PRECEDENCE:
                break
            bp = _BIN_PRECEDENCE[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            # '^' is right-associative: reenter at bp-1 so equal binding recurses.
            right = self.expression(bp - 1 if tok.text == "^" else bp)
            left = {"+": Add, "-": Sub, "*": Mul, "/": Div, "^": Pow}[tok.text](left, right)
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
    op, cls_bp = {
        Add: ("+", 10), Sub: ("-", 10), Mul: ("*", 20), Div: ("/", 20), Pow: ("^", 30),
    }[type(e)]
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

def _domain_check(ok: np.ndarray | bool, node: Expression, what: str) -> None:
    if not np.all(ok):
        raise EvaluationDomainError(f"{what} in '{format_expression(node)}'")


def _eval(e: Expression, env: dict):
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Add):
        return _eval(e.left, env) + _eval(e.right, env)
    if isinstance(e, Sub):
        return _eval(e.left, env) - _eval(e.right, env)
    if isinstance(e, Mul):
        return _eval(e.left, env) * _eval(e.right, env)
    if isinstance(e, Div):
        num, den = _eval(e.left, env), _eval(e.right, env)
        _domain_check(den != 0, e, "division by zero")
        return num / den
    if isinstance(e, Pow) or (isinstance(e, Call) and e.func == "pow"):
        if isinstance(e, Pow):
            base, expo = _eval(e.left, env), _eval(e.right, env)
        else:
            base, expo = _eval(e.args[0], env), _eval(e.args[1], env)
        _domain_check(~((base == 0) & (expo < 0)), e, "zero raised to a negative power")
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.power(base, expo)
        _domain_check(~np.isnan(out), e, "negative base with fractional exponent")
        return out
    if isinstance(e, Call):
        arg = _eval(e.args[0], env)
        if e.func == "log":
            _domain_check(arg > 0, e, "log of a non-positive value")
            return np.log(arg)
        if e.func == "sqrt":
            _domain_check(arg >= 0, e, "sqrt of a negative value")
            return np.sqrt(arg)
        if e.func == "exp":
            with np.errstate(over="ignore"):
                return np.exp(arg)
        if e.func == "sin":
            return np.sin(arg)
        if e.func == "cos":
            return np.cos(arg)
        if e.func == "abs":
            return np.abs(arg)
    raise EvaluationError(f"cannot evaluate node {e!r}")


def evaluate(expr: Expression, x, y):
    """Evaluate at (x, y); accepts scalars or numpy arrays (broadcast).

    Domain violations raise :class:`EvaluationDomainError` naming the
    offending subexpression instead of silently returning NaN.
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    out = _eval(expr, {"x": np.asarray(x, dtype=float), "y": np.asarray(y, dtype=float)})
    return float(out) if scalar else out


def _evaluate_univariate(expr: Expression, t):
    scalar = np.isscalar(t)
    out = _eval(expr, {"t": np.asarray(t, dtype=float)})
    return float(out) if scalar else out


def _contains_abs(e: Expression) -> bool:
    if isinstance(e, Call):
        return e.func == "abs" or any(_contains_abs(a) for a in e.args)
    if isinstance(e, Neg):
        return _contains_abs(e.operand)
    if isinstance(e, (Add, Sub, Mul, Div, Pow)):
        return _contains_abs(e.left) or _contains_abs(e.right)
    return False


# ---------------------------------------------------------------------------
# finite differences and the bivariate function wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FDSpec:
    """Central cross-stencil parameters for the mixed partial."""

    step_relative: float = 1e-5

    def __post_init__(self):
        if not (0.0 < self.step_relative < 1e-2):
            raise DomainError(
                f"step_relative must lie in (0, 1e-2), got {self.step_relative}"
            )


_DEFAULT_FD = FDSpec()


@dataclass(frozen=True)
class BivariateFunction:
    """An evaluable f(x, y) with an optional analytic mixed partial.

    ``evaluator`` (and ``mixed_partial`` when present) must accept numpy
    arrays and broadcast; ``provenance`` records how the function was built
    (``builtin:...`` or ``parsed:...``).  ``kinked`` flags functions whose
    mixed partial is unreliable near a kink (``abs`` in the source).
    Sample grids built through :meth:`cached` live as long as the function.
    """

    evaluator: Callable
    mixed_partial: Optional[Callable] = None
    provenance: str = ""
    kinked: bool = False
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, x, y):
        return self.evaluator(x, y)

    def cached(self, key, build: Callable):
        """The value stored under ``key``, from ``build()`` on first use.

        Built under the package's cache lock, so concurrent callers build
        each entry once; a ``build`` that raises stores nothing.
        """
        with CACHE_LOCK:
            if key not in self._samples:
                self._samples[key] = build()
            return self._samples[key]

    def partial_xy(self, x, y, spec: FDSpec = _DEFAULT_FD,
                   rect: Optional[Rectangle] = None):
        return mixed_partial(self, x, y, spec, rect)


def mixed_partial(f, x, y, spec: FDSpec = _DEFAULT_FD,
                  rect: Optional[Rectangle] = None):
    """d^2 f / dx dy at (x, y): analytic when available, else the 4-point
    central cross difference with steps scaled by the axis widths of ``rect``
    (unit widths when no rectangle is given).

    The stencil samples up to one step outside a point on the boundary of
    ``rect``; the function must be evaluable there.
    """
    analytic = getattr(f, "mixed_partial", None)
    if analytic is not None:
        return analytic(x, y)
    ev = getattr(f, "evaluator", f)
    wx = rect.x.width if rect is not None else 1.0
    wy = rect.y.width if rect is not None else 1.0
    h = spec.step_relative * wx
    k = spec.step_relative * wy
    if h == 0.0 or k == 0.0:
        raise StepUnderflowError(f"finite-difference step underflowed (h={h}, k={k})")
    if np.any(np.asarray(x) + h == np.asarray(x)) or np.any(np.asarray(y) + k == np.asarray(y)):
        raise StepUnderflowError("finite-difference step vanished against the base point")
    return (ev(x + h, y + k) - ev(x + h, y - k)
            - ev(x - h, y + k) + ev(x - h, y - k)) / (4.0 * h * k)


def validate_mixed_partial(f: BivariateFunction, rect: Rectangle,
                           n_points: int = 100, rel_tol: float = 1e-5,
                           spec: FDSpec = _DEFAULT_FD, seed: int = 7) -> float:
    """Check the analytic mixed partial against finite differences.

    Samples ``n_points`` random interior points of ``rect`` and requires
    |fd - analytic| / (1 + |analytic|) <= rel_tol at each.  Returns the worst
    ratio; raises :class:`EvaluationError` on failure or when ``f`` has no
    analytic mixed partial.
    """
    if f.mixed_partial is None:
        raise EvaluationError("function has no analytic mixed partial to validate")
    rng = np.random.default_rng(seed)
    mx = 2.0 * spec.step_relative
    xs = rect.a + (mx + (1 - 2 * mx) * rng.random(n_points)) * rect.x.width
    ys = rect.c + (mx + (1 - 2 * mx) * rng.random(n_points)) * rect.y.width
    exact = np.asarray(f.mixed_partial(xs, ys), dtype=float)
    fd = np.asarray(
        mixed_partial(BivariateFunction(evaluator=f.evaluator), xs, ys, spec, rect),
        dtype=float,
    )
    ratios = np.abs(fd - exact) / (1.0 + np.abs(exact))
    worst = float(ratios.max())
    if worst > rel_tol:
        i = int(np.argmax(ratios))
        raise EvaluationError(
            f"analytic mixed partial disagrees with finite differences at "
            f"(x={xs[i]:.6g}, y={ys[i]:.6g}): ratio {worst:.3e} > {rel_tol:.1e}"
        )
    return worst


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
        provenance=f"parsed:{text}",
        kinked=_contains_abs(ast),
    )


def univariate_from_source(text: str) -> Callable:
    """Parse an expression in ``t`` and return a plain callable."""
    ast = parse_univariate(text)
    return lambda t: _evaluate_univariate(ast, t)
