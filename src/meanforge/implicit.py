"""Implicitly defined means via the scalar balance equation.

The central operation solves, for a strictly-increasing symmetric outer
function ``mu`` of n variables, a prefix ``v`` of m < n values and a target
vector ``w`` of n values with ``v`` embedded in ``w``::

    mu(v_1, ..., v_m, x, ..., x) = mu(w_1, ..., w_n)

The left side is continuous and strictly increasing in ``x`` and brackets the
target between ``x = min(w)`` and ``x = max(w)``, so bisection on that
bracket finds the unique root; no derivative is assumed to exist.  For a
power-mean or power-sum outer, and for ``sum`` (P[1]'s equation), the root has
a closed form, the power mean with the prefix's terms subtracted, which is
used instead.  Lifting
the pointwise solve over vectors of mean values yields the means evaluated
here: an implicit mean (``ProblemSpec``) balances a small family of means
against a larger one, and ``GeneralizedBetaMean`` balances a single inner
mean against the plain vector (which reproduces the Beta-type mean for an
arithmetic inner mean and geometric outer).

Embeddability of all-power-mean families is decidable exactly: the family of
power means is embedded in another one precisely when the corresponding
exponent vectors are embedded.  Other families only get sampled verdicts,
reported as such.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Optional, Sequence, Union

from ._frozen import Frozen
from .errors import ArityError, ConvergenceError, HypothesisViolation
from .ordering import (_embeds, _first_failure, as_vector, is_embedded, is_embedded_within,
                       is_ordered_majorized)
from .means import (
    DEFAULT_TOL,
    GeneralizedBetaMean,
    MeanExpr,
    MeanOuter,
    OuterFn,
    PowerMean,
    ProblemSpec,
    Sum,
    _eval_family,
    _eval_mean,
    _eval_outer,
    _midpoint,
    _narrow,
    _power_mean,
    _power_plan,
    _unit_power,
    check_tol,
    declared_arity,
    eval_outer,
)
from .sampling import CheckReport, SamplePlan, sample_vectors

__all__ = [
    "DEFAULT_TOL",
    "MAX_BISECTION_STEPS",
    "SolveResult",
    "EmbedReport",
    "solve_scalar",
    "implicit_mean",
    "balance_value",
    "power_mean_embedded",
    "verify_embedding",
    "compare_implicit_means",
]

MAX_BISECTION_STEPS = 200

EMBED_RTOL = 1e-9  # the relative eps of every ordering check on computed means

# Relative bound on the starred implicit mean's excess in compare_implicit_means.
COMPARISON_RTOL = 1e-9


class SolveResult(Frozen):
    """Root of the scalar balance equation.

    ``bracket`` is [min(w), max(w)]; the root always lies inside it, even
    when the iteration cap was hit.  ``residual`` is
    ``|mu(v_1,..,v_m,root,..,root) - mu(w)|`` re-evaluated after the solve.
    ``status`` is ``"converged"`` or ``"max-iterations"``; a violated
    embedding raises :class:`HypothesisViolation` instead.
    """

    root: float
    bracket: tuple[float, float]
    residual: float
    iterations: int
    status: str


class EmbedReport(Frozen):
    """Verdict on embeddability of one mean family in another.

    ``certified`` verdicts are exact (all-power-mean exponent rule, or one
    family being a sub-multiset of the other); ``sampled`` means no violation
    was found at ``samples_checked`` points and is not a proof; ``refuted``
    carries a re-checkable counterexample.
    """

    mode: str  # "certified" | "sampled" | "refuted"
    samples_checked: int = 0
    counterexample: Optional[dict] = None
    certificate: Optional[dict] = None


def solve_scalar(outer: OuterFn, prefix: Sequence[float], target: Sequence[float],
                 tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve ``outer(prefix, x, ..., x) = outer(target)`` for ``x``.

    Requires ``prefix`` embedded in ``target``, checked on the validated inputs by
    the kernel ``ordering._embeds`` relaxed by ``EMBED_RTOL`` of each entry; a violation
    raises :class:`HypothesisViolation` with the :func:`is_embedded_within`
    verdict, as the bracket guarantee is void without it.  A ``mean[P[s]]``
    outer's root, a ``Sum("pow", p)`` outer's at s = p and ``sum``'s at s = 1
    (:func:`_power_order`) is then found in closed form (:func:`_power_root`),
    clamped to the bracket, with ``iterations`` 0 and status ``"converged"``;
    ``sum``'s with no sign check.  Other outers (``prod``, ``qa[log]``,
    ``qa[exp]``, ``mean[...]`` over other means) bisect the bracket until
    ``means._narrow``, the rule Gauss iteration stops by, settles it: at relative
    width ``tol`` (in (0, 1)), so the root is accurate to ``tol`` *relative* even
    across orders of magnitude, or at float resolution.  After
    ``MAX_BISECTION_STEPS`` steps the status is ``"max-iterations"``.  Steps take
    the outer kernel's value at ``prefix + (x,) * fill``, for ``qa[log]`` and
    ``qa[exp]`` from g over the prefix computed once (:func:`_sum_step`); goal and
    residual, :func:`eval_outer`.
    """
    check_tol(tol)
    v = as_vector(prefix)
    w = as_vector(target)
    m, n = len(v), len(w)
    if not m < n:
        raise ArityError(f"prefix must be shorter than the target, got {m} >= {n}")
    pinned = declared_arity(outer)
    if pinned is not None and pinned != n:
        raise ArityError(f"{outer} takes {pinned} values but the target has {n}")
    if not _embeds(sorted(v), sorted(w), EMBED_RTOL):
        verdict = is_embedded_within(v, w, EMBED_RTOL)
        raise HypothesisViolation(
            "prefix is not embedded in the target vector (no solution is "
            "guaranteed and the bracket argument fails)",
            witness={"prefix": list(v), "target": list(w),
                     "minorized": verdict.minorized,
                     "majorized": verdict.majorized,
                     "witness_index": verdict.witness_index})

    lo, hi = min(w), max(w)
    bracket = (lo, hi)
    fill = n - m

    def f(x: float) -> float:
        return _eval_outer(outer, v + (x,) * fill)

    def residual(x: float) -> float:
        return abs(eval_outer(outer, v + (x,) * fill) - goal)

    goal = eval_outer(outer, w)
    order = _power_order(outer)
    if order is not None:
        root = _power_root(order, v, w, lo, hi)
        return SolveResult(root, bracket, residual(root), 0, "converged")
    f_lo = f(lo)  # through the kernel, which raises for a prefix it refuses
    if isinstance(outer, Sum):
        f = _sum_step(outer, v, fill)
    # Boundary roots, and the root of a constant target: rounding can place
    # the target at (or just past) an end of the bracket though the root is interior.
    if f_lo - goal >= 0.0:
        return SolveResult(lo, bracket, residual(lo), 0, "converged")
    if f(hi) - goal <= 0.0:
        return SolveResult(hi, bracket, residual(hi), 0, "converged")

    iterations = 0
    while (mid := _narrow(lo, hi, tol)) is not None and iterations < MAX_BISECTION_STEPS:
        iterations += 1
        if f(mid) - goal < 0.0:
            lo = mid
        else:
            hi = mid
    root = _midpoint(lo, hi)
    status = "converged" if mid is None else "max-iterations"
    return SolveResult(root, bracket, residual(root), iterations, status)


def _power_order(outer: OuterFn) -> Optional[float]:
    """The order s of the P[s] balance equation ``outer`` shares (``mean[P[s]]``, ``powsum[s]``,
    and ``sum`` at s = 1)."""
    if isinstance(outer, MeanOuter) and isinstance(outer.mean, PowerMean):
        return outer.mean.order
    if isinstance(outer, Sum):
        return {"id": 1.0, "pow": outer.exponent}.get(outer.generator)
    return None


def _sum_step(outer: Sum, v: tuple[float, ...], fill: int) -> Callable[[float], float]:
    """The ``qa[log]`` or ``qa[exp]`` kernel at ``v + (x,) * fill``, with g(v) computed once.

    A step sums ``g(v) + [g(x)] * fill``: the floats ``fsum`` sums in the kernel,
    in the same order, so the value is the kernel's bit for bit.  The caller has
    run the kernel at ``lo``, so the prefix is one it takes and g(v) is finite.
    Logs do not overflow, and exp's terms are positive: a step that overflows is
    ``inf``, which exceeds every float, hence the finite goal.
    """
    g, fsum = outer._g, math.fsum
    terms = [g(x) for x in v]

    def step(x: float) -> float:
        try:
            return fsum(terms + [g(x)] * fill)
        except OverflowError:  # fsum and exp raise it
            return math.inf

    return step


def _power_root(s: float, v: tuple[float, ...], w: tuple[float, ...],
                lo: float, hi: float) -> float:
    """The root of ``P[s](v, x, ..., x) = P[s](w)`` in closed form, clamped to ``[lo, hi]``.

    It is ``powsum[s]``'s root too, as sum(u^s) is increasing in P[s](u), and ``sum``'s
    at s = 1.  ``x^s = (sum(w^s) - sum(v^s)) / (len(w) - len(v))``: at s = 1 from
    exactly rounded sums (``means._unit_power``, which checks no sign, as ``sum`` takes
    entries <= 0), and otherwise the power-mean kernel ``means._power_mean`` with the
    prefix's terms subtracted (logs at a geometric order).  A prefix inside the
    embedding's relative slack, or rounding, can make x^s <= 0 or x overflow; the root
    is then the end of the bracket that the sign of s points at.
    """
    try:
        x = _unit_power(s, w, v, lo, hi) if s == 1.0 else _power_mean(s, w, v)
    except ValueError:  # x^s <= 0
        return lo if s > 0.0 else hi
    except OverflowError:
        return hi
    return min(max(x, lo), hi)


def implicit_mean(small: Sequence[MeanExpr], big: Sequence[MeanExpr],
                  outer: OuterFn) -> ProblemSpec:
    """The mean whose value at v solves outer(S_1(v),..,S_m(v),x,..,x) = outer(M_1(v),..,M_n(v)).

    The caller is responsible for the family-level embedding of ``small`` in
    ``big`` (certify with :func:`verify_embedding`); every evaluation still
    checks the pointwise embedding and raises on hard violations.  The result
    is a symmetric mean squeezed between min and max of the ``big`` values.
    """
    return ProblemSpec(outer, tuple(small), tuple(big))


def _balance(mean: Union[ProblemSpec, GeneralizedBetaMean], v: tuple[float, ...],
             tol: float = DEFAULT_TOL) -> SolveResult:
    """The :class:`SolveResult` of ``mean``'s balance equation at the validated vector ``v``."""
    if isinstance(mean, GeneralizedBetaMean):  # inner(v) in [min v, max v]: embedded
        if len(v) < 2:
            raise ArityError("the balanced mean needs at least 2 entries")
        prefix, target = (_eval_mean(mean.base, v),), v
    else:
        # S first, so its errors win; the plan is built once, with the node
        values = _eval_family(mean.small + mean.big, mean._power, v, min(v), max(v))
        prefix, target = values[:len(mean.small)], values[len(mean.small):]
    return solve_scalar(mean.outer, prefix, target, tol)


def balance_value(mean: Union[ProblemSpec, GeneralizedBetaMean],
                  v: tuple[float, ...]) -> float:
    """Value of an implicit or generalized-Beta mean at the validated vector ``v``."""
    result = _balance(mean, v)
    if result.status != "converged":
        raise ConvergenceError(f"{mean}: no convergence within "
                               f"{result.iterations} bisection steps")
    return result.root


def power_mean_embedded(alpha: Sequence[float], beta: Sequence[float]) -> bool:
    """Exact embeddability of power-mean families via their exponent vectors.

    The family (P[a_1],..,P[a_m]) is embedded in (P[b_1],..,P[b_n]) as
    functions precisely when the vector of exponents ``alpha`` is embedded in
    ``beta``: at every nonconstant positive vector the order-s power mean is
    continuous and strictly increasing in s, so the sorted mean values
    compare exactly like the sorted exponents.
    """
    return is_embedded(alpha, beta).embedded


def _sample_arity(means: Sequence[MeanExpr]) -> int:
    """The arity pinned by the parts of ``means`` evaluated at the sample vector, or 3.

    A part pins when it is an ``InvariantMean`` or a ``DerivedMean`` built
    with ``arity``.  Such parts are the members themselves, a ``beta{...}``'s
    base and ``mean[...]`` outer, and a ``T{...}``'s S and M members (not its
    outer, which takes len(M) values), recursively.  Disagreeing pins raise
    :class:`ArityError`.
    """
    pins, todo = set(), list(means)
    while todo:
        m = todo.pop()
        if isinstance(m, GeneralizedBetaMean):
            todo.append(m.base)
            pins.add(declared_arity(m.outer))
        elif isinstance(m, ProblemSpec):
            todo.extend(m.small + m.big)
        else:
            pins.add(getattr(m, "arity", None))
    pins.discard(None)
    if len(pins) > 1:
        raise ArityError(f"the means pin different arities: {sorted(pins)}")
    return pins.pop() if pins else 3


def verify_embedding(small: Sequence[MeanExpr], big: Sequence[MeanExpr],
                     plan: Optional[SamplePlan] = None) -> EmbedReport:
    """Certify, sample, or refute embeddability of ``small`` in ``big``.

    Certification happens when ``small`` is a sub-multiset of ``big``
    (selecting values from a vector always embeds) or when both families are
    power means (exponent rule).  A refutation always carries a witness
    vector at which the exact embedding check on the computed mean values
    fails.  The default plan samples 256 vectors from (0, 100) with as many
    entries as the members pin, directly or through the parts they evaluate
    at the same vector (see :func:`_sample_arity`), or 3 when nothing does;
    pins that disagree raise :class:`ArityError`.
    """
    small, big = tuple(small), tuple(big)
    if plan is None:
        plan = SamplePlan(arity=_sample_arity(small + big), count=256)

    counts_small, counts_big = Counter(small), Counter(big)
    if all(counts_big[key] >= cnt for key, cnt in counts_small.items()):
        return EmbedReport(mode="certified", certificate={"rule": "sub-multiset"})

    exponent_verdict = None
    power = _power_plan(small + big)
    if power is not None:
        alpha, beta = power[0][:len(small)], power[0][len(small):]
        exponent_verdict = {"rule": "power-mean-exponents", "alpha": alpha,
                            "beta": beta, "embedded": power_mean_embedded(alpha, beta)}
        if exponent_verdict["embedded"]:
            return EmbedReport(mode="certified", certificate=exponent_verdict)
        # Exponents not embedded: every sufficiently nonconstant vector is a
        # witness; fall through to sampling to produce one.

    checked = 0
    for v in sample_vectors(plan):
        checked += 1
        values = _eval_family(small + big, power, v, min(v), max(v))
        small_values, big_values = values[:len(small)], values[len(small):]
        if not _embeds(sorted(small_values), sorted(big_values), EMBED_RTOL):
            exact = is_embedded(small_values, big_values)
            return EmbedReport(
                mode="refuted",
                samples_checked=checked,
                counterexample={
                    "vector": list(v),
                    "small_values": list(small_values),
                    "big_values": list(big_values),
                    "minorized": exact.minorized,
                    "majorized": exact.majorized,
                    "witness_index": exact.witness_index,
                },
                certificate=exponent_verdict)
    # With all power means the exponent rule said "not embedded" but no sampled
    # witness appeared (conceivable only for extremely close exponents).
    return EmbedReport(mode="sampled", samples_checked=checked,
                       certificate=exponent_verdict)


def _ordered_majorized_family(low: Sequence[MeanExpr], high: Sequence[MeanExpr],
                              plan: SamplePlan) -> Optional[dict]:
    """None when (low_1,..) < (high_1,..) pointwise on samples, else a witness."""
    low, high = tuple(low), tuple(high)
    power = _power_plan(low + high)
    if power is not None:
        lo_exp, hi_exp = power[0][:len(low)], power[0][len(low):]
        check = is_ordered_majorized(lo_exp, hi_exp)
        if check.holds:
            return None
        return {"rule": "power-mean-exponents", "low": lo_exp,
                "high": hi_exp, "witness_index": check.witness_index}
    for v in sample_vectors(plan):
        values = _eval_family(low + high, power, v, min(v), max(v))
        low_values, high_values = values[:len(low)], values[len(low):]
        k = _first_failure(sorted(low_values), sorted(high_values), EMBED_RTOL, False)
        if k:
            return {"rule": "sampled", "vector": list(v),
                    "low_values": list(low_values),
                    "high_values": list(high_values), "witness_index": k}
    return None


def compare_implicit_means(small: Sequence[MeanExpr], big: Sequence[MeanExpr],
                           small_star: Sequence[MeanExpr],
                           big_star: Sequence[MeanExpr],
                           outer: OuterFn, plan: SamplePlan) -> CheckReport:
    """Sampled check of the comparability law between two implicit means.

    With ``big_star`` ordered majorized by ``big`` and ``small`` ordered
    majorized by ``small_star`` (same lengths), the starred implicit mean
    never exceeds the unstarred one; a sample fails when ``a* - a`` exceeds
    ``COMPARISON_RTOL * |a|``, and ``max_residual`` is the worst ``a* - a``.
    Preconditions are certified through exponents for all-power families and
    sampled otherwise; a violated precondition raises
    :class:`HypothesisViolation` with a witness.
    """
    small, big = tuple(small), tuple(big)
    small_star, big_star = tuple(small_star), tuple(big_star)
    if len(small) != len(small_star):
        raise ArityError("the two prefix families must have equal length")
    if len(big) != len(big_star):
        raise ArityError("the two target families must have equal length")
    for name, low, high in (("big* < big", big_star, big),
                            ("small < small*", small, small_star)):
        witness = _ordered_majorized_family(low, high, plan)
        if witness is not None:
            raise HypothesisViolation(f"ordering precondition {name} fails",
                                      witness=witness)
    for name, s, b in (("small in big", small, big),
                       ("small* in big*", small_star, big_star)):
        report = verify_embedding(s, b, plan)
        if report.mode == "refuted":
            raise HypothesisViolation(f"embedding precondition {name} fails",
                                      witness=report.counterexample)

    plain = implicit_mean(small, big, outer)
    starred = implicit_mean(small_star, big_star, outer)
    worst = -math.inf
    checked = 0
    for v in sample_vectors(plan):
        checked += 1
        a = _eval_mean(plain, v)
        a_star = _eval_mean(starred, v)
        gap = a_star - a
        worst = max(worst, gap)
        if gap > COMPARISON_RTOL * abs(a):
            return CheckReport(False, checked, counterexample={
                "vector": list(v), "value": a, "starred_value": a_star,
                "gap": gap}, max_residual=worst)
    return CheckReport(True, checked, max_residual=worst)
