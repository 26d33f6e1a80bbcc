"""Deterministic sample plans for the property checks.

Every randomized verification in the package draws its vectors through
``sample_vectors`` so that a fixed seed reproduces the identical sample
stream (the CLI's determinism contract).  One in ten samples is forced to a
near-constant vector (spread below 1e-7, or below 1e-4 of the interval's
width on intervals narrower than 1e-3) to exercise degenerate paths such as
zero-width solver brackets.  Every entry lies strictly inside the plan's
interval, so the samples are finite vectors the library can evaluate without
re-validating them.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Iterator, Optional

from ._frozen import Frozen
from .errors import DomainError

__all__ = ["SamplePlan", "CheckReport", "sample_vectors"]

NEAR_CONSTANT_STRIDE = 10
NEAR_CONSTANT_SPREAD = 1e-7
NEAR_CONSTANT_HEADROOM = 1e-6  # between a near-constant base and the upper end
# On intervals narrower than this, spread and headroom shrink with the width.
NEAR_CONSTANT_WIDTH = 1e-3


class SamplePlan(Frozen):
    """How to draw vectors: integral seed, arity and count >= 1, open interval (lower, upper)."""

    arity: int
    count: int = 1000
    seed: int = 0
    lower: float = 0.0
    upper: float = 100.0

    def __post_init__(self):
        for name in ("arity", "count", "seed"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise DomainError(f"sample {name} must be an integer, got {value!r}") from None
            if name != "seed" and value < 1:
                raise DomainError(f"sample {name} must be >= 1, got {value}")
        if not (math.isfinite(self.upper - self.lower)
                and math.nextafter(self.lower, self.upper) < self.upper):
            raise DomainError("need lower < upper, a finite width and a float "
                              f"strictly between them, got {self.lower}, {self.upper}")


class CheckReport(Frozen):
    """Result of a sampled verification: PASS, or a counterexample payload."""

    passed: bool
    samples_checked: int
    counterexample: Optional[dict] = None
    max_residual: float = 0.0


def _open_uniform(rng: random.Random, lower: float, upper: float) -> float:
    u = rng.random()
    if u <= 0.0:  # keep strictly inside the open interval
        u = 0.5
    return lower + (upper - lower) * u


def sample_vectors(plan: SamplePlan) -> Iterator[tuple[float, ...]]:
    """Yield ``plan.count`` vectors inside (lower, upper), every tenth one near-constant."""
    rng = random.Random(plan.seed)
    lower, upper = plan.lower, plan.upper
    shrink = min(1.0, (upper - lower) / NEAR_CONSTANT_WIDTH)
    spread = NEAR_CONSTANT_SPREAD * shrink
    cap = upper - NEAR_CONSTANT_HEADROOM * shrink
    first, last = math.nextafter(lower, upper), math.nextafter(upper, lower)
    for index in range(plan.count):
        if index % NEAR_CONSTANT_STRIDE == 0:
            base = min(_open_uniform(rng, lower, upper), cap)
            v = tuple(base + spread * rng.random() for _ in range(plan.arity))
        else:
            v = tuple(_open_uniform(rng, lower, upper) for _ in range(plan.arity))
        if not first <= min(v) <= max(v) <= last:  # rounding reached an end
            v = tuple(min(max(x, first), last) for x in v)
        yield v
