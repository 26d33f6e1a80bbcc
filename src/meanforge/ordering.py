"""Sorting-based comparison of real vectors.

Vectors are compared entry-by-entry after sorting.  ``v`` is *ordered
minorized* by ``w`` (``v > w`` in spirit) when every ascending-sorted entry
of ``v`` dominates the corresponding entry of ``w``; it is *ordered
majorized* (``v < w``) when every descending-sorted entry of ``v`` is
dominated by the corresponding entry of ``w``.  Only the shorter length is
compared; when ``v`` is the longer vector the two sort orders swap roles so
both relations stay well defined for any pair of lengths.  ``v`` is
*embedded* in ``w`` when it is both ordered minorized and ordered majorized
by ``w`` and not longer than ``w``.

All predicates compare floats exactly; tolerances belong to the solver
layer.  ``is_embedded_within`` relaxes every defining inequality by an
explicit ``eps`` so that verdicts on *computed* mean values do not fail
spuriously on ties perturbed by rounding.

Note this is not the classical partial-sum majorization of symmetric-function
theory: the relations here compare sorted entries directly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from ._frozen import Frozen
from .errors import DomainError

__all__ = [
    "OrderingCheck",
    "OrderingVerdict",
    "as_vector",
    "sort_ascending",
    "sort_descending",
    "is_ordered_minorized",
    "is_ordered_majorized",
    "is_embedded",
    "is_embedded_within",
    "map_vector",
]


class OrderingCheck(Frozen):
    """Outcome of a single ordering predicate.

    ``witness_index`` is the 1-based position (in the sorted comparison) of
    the first failing inequality, or ``None`` when the relation holds.
    """

    holds: bool
    witness_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


class OrderingVerdict(Frozen):
    """Combined verdict of minorization, majorization and embeddability.

    ``embedded`` is true exactly when both relations hold and ``v`` is not
    longer than ``w``.  ``witness_index`` is the smallest failing position
    across the two relations (``None`` when only the length gate failed).
    """

    minorized: bool
    majorized: bool
    embedded: bool
    witness_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.embedded


def as_vector(entries: Sequence[float]) -> tuple[float, ...]:
    """Validate and normalize a vector: length >= 1, every entry finite, not text."""
    if type(entries) is not tuple and isinstance(entries, (str, bytes, bytearray)):
        raise DomainError(f"a vector is not text, got {entries!r}")  # float() reads digits
    v = tuple(map(float, entries))
    if not v:
        raise DomainError("vector must have at least one entry")
    if not all(map(math.isfinite, v)):
        bad = next(x for x in v if not math.isfinite(x))
        raise DomainError(f"vector entries must be finite, got {bad!r}")
    return v


def sort_ascending(v: Sequence[float]) -> tuple[float, ...]:
    """The nondecreasing rearrangement of ``v`` (duplicates preserved)."""
    return tuple(sorted(as_vector(v)))


def sort_descending(v: Sequence[float]) -> tuple[float, ...]:
    """The nonincreasing rearrangement of ``v`` (reverse of the ascending one)."""
    return tuple(sorted(as_vector(v), reverse=True))


_HOLDS = OrderingCheck(True)  # immutable, so one instance serves every call


def _check_eps(eps: float) -> None:
    # NaN would make every inequality fail and inf make every one hold
    if not 0.0 <= eps < math.inf:
        raise DomainError(f"eps must be finite and nonnegative, got {eps!r}")


def _dominates(a: list[float], b: list[float], eps: float,
               *, minorize: bool) -> OrderingCheck:
    # a, b ascending; compared on the shorter length from the bottom, or from
    # the top for the descending order (the order flips when a is longer)
    if minorize != (len(a) <= len(b)):
        a, b = a[::-1], b[::-1]
    k = 0
    if minorize:
        for x, y in zip(a, b):
            k += 1
            if not x >= y - eps:
                return OrderingCheck(False, k)
    else:
        for x, y in zip(a, b):
            k += 1
            if not x <= y + eps:
                return OrderingCheck(False, k)
    return _HOLDS


def is_ordered_minorized(v: Sequence[float], w: Sequence[float],
                         eps: float = 0.0) -> OrderingCheck:
    """Whether every sorted entry of ``v`` dominates the matching entry of ``w``.

    For ``len(v) <= len(w)`` the ascending sorts are compared on the first
    ``len(v)`` positions; for a longer ``v`` the descending sorts are compared
    on the first ``len(w)`` positions.  ``eps`` must be finite and >= 0.
    """
    _check_eps(eps)
    return _dominates(sorted(as_vector(v)), sorted(as_vector(w)), eps, minorize=True)


def is_ordered_majorized(v: Sequence[float], w: Sequence[float],
                         eps: float = 0.0) -> OrderingCheck:
    """Whether every sorted entry of ``v`` is dominated by the matching entry of ``w``.

    For ``len(v) <= len(w)`` the descending sorts are compared on the first
    ``len(v)`` positions; for a longer ``v`` the ascending sorts are compared
    on the first ``len(w)`` positions.  ``eps`` must be finite and >= 0.
    """
    _check_eps(eps)
    return _dominates(sorted(as_vector(v)), sorted(as_vector(w)), eps, minorize=False)


def is_embedded(v: Sequence[float], w: Sequence[float]) -> OrderingVerdict:
    """Full verdict: ``v`` embedded in ``w`` (minorized, majorized, and not longer)."""
    return is_embedded_within(v, w, 0.0)


def is_embedded_within(v: Sequence[float], w: Sequence[float], eps: float) -> OrderingVerdict:
    """Embeddability with every inequality relaxed by a finite ``eps >= 0``."""
    _check_eps(eps)
    a, b = sorted(as_vector(v)), sorted(as_vector(w))
    lower = _dominates(a, b, eps, minorize=True)
    upper = _dominates(a, b, eps, minorize=False)
    embedded = lower.holds and upper.holds and len(a) <= len(b)
    # failing positions are 1-based, so filter(None, ...) drops only the Nones
    witness = min(filter(None, (lower.witness_index, upper.witness_index)), default=None)
    return OrderingVerdict(lower.holds, upper.holds, embedded, witness)


def map_vector(f: Callable[[float], float], v: Sequence[float]) -> tuple[float, ...]:
    """Apply ``f`` entrywise.

    Monotonicity of ``f`` is the caller's contract: a monotone ``f``
    preserves (or, when nonincreasing, reverses) the ordering relations and
    preserves embeddability.  That cannot be verified for an arbitrary
    function handle, so it is not checked here.
    """
    out = []
    for x in as_vector(v):
        try:
            y = float(f(x))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"function undefined at entry {x!r}: {exc}") from exc
        if not math.isfinite(y):
            raise DomainError(f"function not finite at entry {x!r} (got {y!r})")
        out.append(y)
    return tuple(out)
