"""Invariant means by iterating mean-type mappings, and their complements.

Iterating ``v <- (M_1(v), ..., M_n(v))`` for strict continuous means drives
all coordinates to a common limit; the limit as a function of the starting
vector is the unique mean ``K`` invariant under the mapping, i.e.
``K(M_1(v), ..., M_n(v)) = K(v)``.  The iteration spread (max - min) never
grows because each new coordinate lies inside the previous range; that is
asserted every step.  ``invariant_mean`` is the ``InvariantMean`` node ``K``.
:func:`gauss_iterate` validates once, then evaluates the family through the
unchecked mean kernels on its own iterates.

Given such a family and a smaller family embedded in it, the complementary
mean is the unique mean ``T`` with ``K(S_1(v),..,S_m(v),T(v),..,T(v)) = K(v)``;
it is the implicit mean (a ``ProblemSpec``) of the balance equation with
``K`` as the outer function.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import ArityError, ConvergenceError, HypothesisViolation
from .ordering import as_vector
from .means import (
    DEFAULT_TOL,
    InvariantMean,
    MeanExpr,
    MeanOuter,
    ProblemSpec,
    _eval_mean,
    check_positive,
    check_strict_family,
    check_tol,
)
from .implicit import verify_embedding
from .sampling import CheckReport, SamplePlan, sample_vectors

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_CAP",
    "IterationTrace",
    "gauss_iterate",
    "invariant_mean",
    "invariant_value",
    "verify_invariance",
    "complementary_mean",
]

DEFAULT_CAP = 10_000

_CONTAINMENT_SLACK = 8 * sys.float_info.epsilon


@dataclass(frozen=True)
class IterationTrace:
    """Outcome of one mean-type iteration run."""

    iterations: int
    final_spread: float
    limit: float
    converged: bool


def gauss_iterate(family: Sequence[MeanExpr], start: Sequence[float],
                  tol: float = DEFAULT_TOL) -> IterationTrace:
    """Iterate v <- (M_1(v), ..., M_n(v)) until the coordinates collapse.

    Stops when max - min of the iterate drops below ``tol`` relative to the
    iterate's magnitude; the limit is reported as the midpoint of the final
    range.  The start must be positive, the domain of every mean the library
    builds; a positive constant start converges in zero iterations.  Every
    step asserts the new iterate stays inside the previous [min, max] (up to
    a few ulp of max, at every scale), which is what makes the spread
    nonincreasing.  ``tol`` must lie in (0, 1); after ``DEFAULT_CAP`` steps
    the trace is unconverged.
    """
    check_tol(tol)
    family = tuple(family)
    u = as_vector(start)
    if len(family) != len(u):
        raise ArityError(f"need one mean per coordinate: {len(family)} means "
                         f"for a vector of length {len(u)}")
    check_strict_family(family)
    lo, hi = min(u), max(u)
    check_positive(lo, "Gauss iteration")
    iterations = 0
    while True:
        spread = hi - lo
        if spread <= tol * max(abs(lo), abs(hi)):
            return IterationTrace(iterations, spread, 0.5 * (lo + hi), True)
        if iterations >= DEFAULT_CAP:
            return IterationTrace(iterations, spread, 0.5 * (lo + hi), False)
        nxt = tuple(_eval_mean(m, u) for m in family)
        nlo, nhi = min(nxt), max(nxt)
        slack = _CONTAINMENT_SLACK * hi  # relative: the entries are positive
        if nlo < lo - slack or nhi > hi + slack:
            raise HypothesisViolation(
                "iterate escaped the previous range: some member of the "
                "family is not a mean on this data",
                witness={"iterate": list(u), "next": list(nxt)})
        u, lo, hi = nxt, nlo, nhi
        iterations += 1


# invariant_mean(family, tol=DEFAULT_TOL): the node validates its own family.
invariant_mean = InvariantMean


def invariant_value(mean: InvariantMean, v: tuple[float, ...]) -> float:
    """Value of the invariant mean ``mean`` at the validated vector ``v``."""
    trace = gauss_iterate(mean.family, v, tol=mean.tol)
    if not trace.converged:
        raise ConvergenceError(
            f"{mean}: iteration spread {trace.final_spread!r} after "
            f"{trace.iterations} steps")
    return trace.limit


def verify_invariance(candidate: MeanExpr, family: Sequence[MeanExpr],
                      plan: SamplePlan, tol: float = 1e-8) -> CheckReport:
    """Sampled check of K(M_1(v), ..., M_n(v)) = K(v) up to relative ``tol``."""
    family = tuple(family)
    if plan.arity != len(family):
        raise ArityError(f"plan arity {plan.arity} != family size {len(family)}")
    worst = 0.0
    checked = 0
    for v in sample_vectors(plan):
        checked += 1
        direct = _eval_mean(candidate, v)
        mapped = tuple(_eval_mean(m, v) for m in family)
        through = _eval_mean(candidate, mapped)
        residual = abs(through - direct) / max(1.0, abs(direct))
        worst = max(worst, residual)
        if residual > tol:
            return CheckReport(False, checked, counterexample={
                "vector": list(v), "value": direct, "mapped": list(mapped),
                "value_after_mapping": through, "residual": residual},
                max_residual=worst)
    return CheckReport(True, checked, max_residual=worst)


def complementary_mean(small: Sequence[MeanExpr],
                       family: Sequence[MeanExpr]) -> ProblemSpec:
    """The unique mean T with K(S_1(v),..,S_m(v),T(v),..,T(v)) = K(v).

    ``K`` is the invariant mean of ``family``; the defining equation is the
    invariance equation with the family's suffix replaced by copies of the
    unknown, and its solution is the balance-equation mean of ``small``
    against ``family`` under ``K`` as outer function.
    """
    small = tuple(small)
    family = tuple(family)
    report = verify_embedding(small, family)
    if report.mode == "refuted":
        raise HypothesisViolation(
            "the prefix family is not embedded in the iterated family",
            witness=report.counterexample)
    return ProblemSpec(MeanOuter(invariant_mean(family)), small, family)
