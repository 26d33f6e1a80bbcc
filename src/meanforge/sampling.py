"""Deterministic sample plans for the property checks.

Every randomized verification in the package draws its vectors through
``sample_vectors`` so that a fixed seed reproduces the identical sample
stream (the CLI's determinism contract).  One in ten samples is forced to a
near-constant vector (spread below 1e-6) to exercise degenerate paths such
as zero-width solver brackets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DomainError

__all__ = ["SamplePlan", "CheckReport", "sample_vectors"]

NEAR_CONSTANT_STRIDE = 10
NEAR_CONSTANT_SPREAD = 1e-7


@dataclass(frozen=True)
class SamplePlan:
    """How to draw vectors: open interval (lower, upper), arity, count, seed."""

    arity: int
    count: int = 1000
    seed: int = 0
    lower: float = 0.0
    upper: float = 100.0

    def __post_init__(self):
        if self.arity < 1:
            raise DomainError(f"sample arity must be >= 1, got {self.arity}")
        if self.count < 0:
            raise DomainError(f"sample count must be >= 0, got {self.count}")
        if not self.lower < self.upper:
            raise DomainError(f"need lower < upper, got {self.lower}, {self.upper}")


@dataclass(frozen=True)
class CheckReport:
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
    """Yield ``plan.count`` vectors, every tenth one near-constant."""
    rng = random.Random(plan.seed)
    for index in range(plan.count):
        if index % NEAR_CONSTANT_STRIDE == 0:
            base = _open_uniform(rng, plan.lower, plan.upper)
            if base > plan.upper - 1e-6:
                base = plan.upper - 1e-6
            yield tuple(base + NEAR_CONSTANT_SPREAD * rng.random()
                        for _ in range(plan.arity))
        else:
            yield tuple(_open_uniform(rng, plan.lower, plan.upper)
                        for _ in range(plan.arity))
