"""Invariant means by iterating mean-type mappings, and their complements.

Iterating ``v <- (M_1(v), ..., M_n(v))`` for strict continuous means drives
all coordinates to a common limit; the limit as a function of the starting
vector is the unique mean ``K`` invariant under the mapping, i.e.
``K(M_1(v), ..., M_n(v)) = K(v)``.  The iteration spread (max - min) never
grows because each new coordinate lies inside the previous range; that is
asserted every step.  ``invariant_mean`` is the ``InvariantMean`` node ``K``.
One private loop iterates the family through the unchecked mean kernels and
stops by the balance solver's rule: at relative spread ``tol`` or at float
resolution.  A node's value relies on the node's checks; :func:`gauss_iterate`
checks its tol and start vector, then, at equal lengths, builds the node to
check and classify the family.

Given such a family and a smaller family embedded in it, the complementary
mean is the unique mean ``T`` with ``K(S_1(v),..,S_m(v),T(v),..,T(v)) = K(v)``;
it is the implicit mean (a ``ProblemSpec``) of the balance equation with
``K`` as the outer function.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from ._frozen import Frozen
from .errors import ArityError, ConvergenceError, HypothesisViolation
from .ordering import as_vector
from .means import (
    DEFAULT_TOL,
    InvariantMean,
    MeanExpr,
    MeanOuter,
    ProblemSpec,
    _eval_family,
    _eval_mean,
    _midpoint,
    _narrow,
    _power_plan,
    check_positive,
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

_CONTAINMENT_RTOL = 8 * sys.float_info.epsilon

# Relative bound on |K(M_1(v), ..., M_n(v)) - K(v)| / |K(v)| in verify_invariance.
INVARIANCE_RTOL = 1e-8


class IterationTrace(Frozen):
    """Outcome of one mean-type iteration run."""

    iterations: int
    final_spread: float
    limit: float
    converged: bool


def gauss_iterate(family: Sequence[MeanExpr], start: Sequence[float],
                  tol: float = DEFAULT_TOL) -> IterationTrace:
    """Iterate v <- (M_1(v), ..., M_n(v)) until the coordinates collapse.

    Stops by the solver's rule (``means._narrow``): once max - min of the
    iterate drops below ``tol`` (in (0, 1)) relative to its magnitude, or no
    float lies strictly inside [min, max]; or once a step returns the iterate
    permuted and at most 4 ulp of max wide, a fixed point in floats that rounding
    leaves (a wider one runs to the cap).  Each way the trace is converged,
    its limit the midpoint of the final range (also where ``min + max``
    overflows); after ``DEFAULT_CAP`` steps it is unconverged.  The start must be
    positive; a positive constant one converges in zero iterations.  Every
    step asserts the new iterate stays inside the previous [min, max] (up to
    8 ulp of min below it and of max above it), which makes the spread nonincreasing.
    Errors come in order: the tol, a non-finite start, a length unequal to the family's,
    then the family, which the ``InvariantMean`` node checks and classifies once:
    a power family goes through the shared-log route of ``means._eval_family``.
    """
    check_tol(tol)
    family = tuple(family)
    u = as_vector(start)
    plan = InvariantMean(family, tol)._power if len(family) == len(u) else None
    return IterationTrace(*_gauss(family, plan, u, tol))


def _gauss(family: tuple[MeanExpr, ...], plan: tuple | None, u: tuple[float, ...], tol: float):
    """:func:`gauss_iterate` past its tol and family checks: its trace's fields, as a tuple."""
    if len(family) != len(u):
        raise ArityError(f"need one mean per coordinate: {len(family)} means "
                         f"for a vector of length {len(u)}")
    lo, hi = min(u), max(u)
    check_positive(lo, "Gauss iteration")
    iterations = 0
    while True:
        settled = _narrow(lo, hi, tol) is None
        if settled or iterations >= DEFAULT_CAP:
            return iterations, hi - lo, _midpoint(lo, hi), settled
        nxt = _eval_family(family, plan, u, lo, hi)
        nlo, nhi = min(nxt), max(nxt)
        if nlo < lo - _CONTAINMENT_RTOL * lo or nhi > hi + _CONTAINMENT_RTOL * hi:  # lo > 0
            raise HypothesisViolation(
                "iterate escaped the previous range: some member of the "
                "family is not a mean on this data",
                witness={"iterate": list(u), "next": list(nxt)})
        if (nlo == lo and nhi == hi and hi - lo <= 4.0 * math.ulp(hi)
                and sorted(nxt) == sorted(u)):  # no later step narrows it
            return iterations + 1, hi - lo, _midpoint(lo, hi), True
        u, lo, hi = nxt, nlo, nhi
        iterations += 1


# invariant_mean(family, tol=DEFAULT_TOL): the node validates its own family.
invariant_mean = InvariantMean


def invariant_value(mean: InvariantMean, v: tuple[float, ...]) -> float:
    """``mean``'s value at the validated vector ``v``; the node checked its family and tol."""
    iterations, spread, limit, converged = _gauss(mean.family, mean._power, v, mean.tol)
    if not converged:
        raise ConvergenceError(
            f"{mean}: iteration spread {spread!r} after {iterations} steps")
    return limit


def verify_invariance(candidate: MeanExpr, family: Sequence[MeanExpr],
                      plan: SamplePlan) -> CheckReport:
    """Sampled check of K(M_1(v), ..., M_n(v)) = K(v) up to relative ``INVARIANCE_RTOL``."""
    family = tuple(family)
    if plan.arity != len(family):
        raise ArityError(f"plan arity {plan.arity} != family size {len(family)}")
    worst, checked = 0.0, 0
    power = _power_plan(family)  # once per call, not per sample
    for v in sample_vectors(plan):
        checked += 1
        direct = _eval_mean(candidate, v)
        mapped = _eval_family(family, power, v, min(v), max(v))
        through = _eval_mean(candidate, mapped)
        residual = abs(through - direct) / abs(direct) if direct else float("inf")
        worst = max(worst, residual)
        if residual > INVARIANCE_RTOL:
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
