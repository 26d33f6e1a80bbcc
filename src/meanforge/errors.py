"""Structured exception types shared by every module.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse one of the existing classes rather than raising bare
``ValueError``/``RuntimeError``.
"""

from __future__ import annotations


class MeanForgeError(Exception):
    """Base class for all structured errors raised by this package."""


class DomainError(MeanForgeError):
    """A value lies outside the domain an operation is defined on."""


class ArityError(MeanForgeError):
    """A sequence length is incompatible with an operation."""


class ParseError(MeanForgeError):
    """Rejected DSL text, with position, the expected tokens and any unresolved ``name``."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = (),
                 name: str | None = None):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.name = name
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)


class HypothesisViolation(MeanForgeError):
    """A mathematical precondition (embedding, ordering, strictness) failed.

    ``witness`` carries whatever data demonstrates the failure, already in a
    JSON-friendly shape.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class ConvergenceError(MeanForgeError):
    """An iterative procedure did not reach its tolerance within its cap."""
