"""Exception types shared across the package."""

from __future__ import annotations


class HHFracError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HHFracError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OverflowDomainError(DomainError):
    """The result is finite mathematically but not representable in float64."""


class EvaluationError(HHFracError):
    """A user-supplied function produced an unusable value."""


class ExpressionError(HHFracError):
    """Base class for expression parsing/evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression source. Carries the byte offset and the token
    kinds that would have been accepted at that position."""

    def __init__(self, offset: int, expected: tuple[str, ...], detail: str = ""):
        self.offset = offset
        self.expected = tuple(expected)
        msg = f"syntax error at offset {offset}: expected {', '.join(expected)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnknownIdentifierError(ExpressionError):
    """An identifier other than the accepted variables and function names."""

    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier '{name}' at offset {offset}")


class EvaluationDomainError(ExpressionError):
    """Evaluation hit a domain violation (log of a non-positive value,
    division by zero, ...). Names the offending subexpression."""


class QuadratureNonConvergenceError(HHFracError):
    """The two finest refinement levels disagree beyond the accepted factor."""


class DivergentMomentError(HHFracError):
    """An h-moment integral diverges for the requested weight family."""


class UsageError(HHFracError):
    """Inconsistent or incomplete run configuration."""
