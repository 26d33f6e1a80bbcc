"""Evaluable mean expressions and outer aggregate functions.

A *mean* maps a vector to a value between its minimum and maximum and is
invariant under permutations of its arguments.  The concrete families here
are power means (geometric at order 0), the Beta-type mean
``(k*v1*...*vk / (v1+...+vk))**(1/(k-1))``, and derived means built from them:
implicit (``ProblemSpec``), generalized-Beta and invariant means.  These are
immutable records that compare by value (:mod:`meanforge._frozen`) and that
:func:`eval_mean` solves or iterates; ``DerivedMean`` wraps an opaque user callable.

An *outer* function aggregates a vector symmetrically and strictly
increasingly in each coordinate.  There are three: :class:`Sum`, the
quasi-arithmetic aggregate ``sum(g(x_i))`` with g from the closed catalog
{id, log, exp, pow[p]} (plain sums and power sums are two of its
generators); :class:`Product`, its exponential, kept apart so that its
value stays ``math.prod`` of the entries rather than ``exp(sum(log x_i))``; and
:class:`MeanOuter`, a strict mean.  Strict per-coordinate growth is what
makes the scalar balance equation in :mod:`meanforge.implicit` uniquely
solvable, so variants that would be decreasing (power exponents <= 0) are
rejected at construction.

Permutation invariance is bit-exact: aggregation uses ``math.fsum`` (exactly
rounded, hence order-independent) and any remaining order-sensitive path
sorts its input first.

The public evaluators (:func:`power_mean`, :func:`beta_mean`, :func:`eval_mean`,
:func:`eval_outer`) validate a vector once and hand the tuple to private
kernels, which derived means, the balance solver and the sampled verifiers
call on the values they compute or draw.  Kernels still reject non-positive
entries and a ``DerivedMean`` result that is not a finite float.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Optional, Sequence, get_args

from ._frozen import Frozen, replace
from .errors import ArityError, DomainError, HypothesisViolation
from .ordering import as_vector
from .sampling import CheckReport, SamplePlan, sample_vectors

__all__ = [
    "PowerMean",
    "BetaMean",
    "GeneralizedBetaMean",
    "ProblemSpec",
    "InvariantMean",
    "DerivedMean",
    "MeanExpr",
    "is_mean_expr",
    "is_strict",
    "check_strict_family",
    "Sum",
    "Product",
    "MeanOuter",
    "OuterFn",
    "power_mean",
    "beta_mean",
    "eval_mean",
    "eval_outer",
    "declared_arity",
    "assert_strict",
    "check_mean_property",
    "check_positive",
    "check_tol",
    "format_number",
]

# Below this |order| the power mean equals the geometric mean in double
# precision (they differ by about |s| * log(max/min)**2 / 8 < 1e-274
# relative), while order * log(x/anchor) could underflow to a subnormal.
GEOMETRIC_ORDER = 1e-280
_MIN_NORMAL = sys.float_info.min

SYMMETRY_RTOL = 1e-12
# Relative tolerance of the balance solver and of Gauss iteration.
DEFAULT_TOL = 1e-12


def check_tol(tol: float) -> None:
    """Reject a relative tolerance unless it is finite with 0 < tol < 1."""
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie strictly between 0 and 1, got {tol!r}")


def check_positive(lowest: float, what: object) -> None:
    """Reject a smallest entry ``lowest`` <= 0; ``what`` is formatted only when raising."""
    if lowest <= 0.0:
        raise DomainError(f"{what} needs positive entries, got {lowest!r}")


def format_number(x: float) -> str:
    """Canonical decimal text for a float: no exponent, round-trips exactly."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    text = repr(float(x))
    if "e" not in text:
        return text
    from decimal import Decimal  # deferred: only exponent notation needs it
    return format(Decimal(text), "f")


# ---------------------------------------------------------------------------
# mean expressions
# ---------------------------------------------------------------------------

class PowerMean(Frozen):
    """The power mean of a finite order; order 0 is the geometric mean."""

    order: float

    def __post_init__(self):
        if not math.isfinite(self.order):
            raise DomainError("power-mean order must be finite")

    def __str__(self) -> str:
        return f"P[{format_number(self.order)}]"


class BetaMean(Frozen):
    """The Beta-type mean (k*v1*...*vk / sum(v))**(1/(k-1)); needs k >= 2."""

    def __str__(self) -> str:
        return "B"


class GeneralizedBetaMean(Frozen):
    """The mean defined by balancing one inner-mean slot against the plain vector.

    Its value at ``v`` is the unique ``x`` with
    ``outer(base(v), x, ..., x) = outer(v)``; evaluation delegates to the
    scalar solver.  With ``base = P[1]`` and ``outer = mean[P[0]]`` this is
    exactly the Beta-type mean.
    """

    base: "MeanExpr"
    outer: "OuterFn"

    def __str__(self) -> str:
        return f"beta{{S={self.base}; mu={self.outer}}}"


class ProblemSpec(Frozen):
    """A balance problem: outer(S_1(v),..,S_m(v),x,..,x) = outer(M_1(v),..,M_n(v)).

    ``small`` holds the m prefix means (the S_j), ``big`` the n target means
    (the M_i); m < n is required so at least one unknown slot remains.  It is
    also the implicit mean whose value at ``v`` is the root ``x``.
    """

    outer: OuterFn
    small: tuple[MeanExpr, ...]
    big: tuple[MeanExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "small", tuple(self.small))
        object.__setattr__(self, "big", tuple(self.big))
        m, n = len(self.small), len(self.big)
        if not 1 <= m < n:
            raise ArityError(
                f"need 1 <= len(S) < len(M), got len(S)={m}, len(M)={n}")
        pinned = declared_arity(self.outer)
        if pinned is not None and pinned != n:
            raise ArityError(
                f"outer function takes {pinned} values but len(M)={n}")

    def __str__(self) -> str:
        small = ",".join(str(m) for m in self.small)
        big = ",".join(str(m) for m in self.big)
        return f"T{{mu={self.outer}; S=[{small}]; M=[{big}]}}"


class InvariantMean(Frozen, compare=("family", "tol")):
    """The mean invariant under the mapping v -> (M_1(v), ..., M_n(v)).

    Its value at ``v`` is the limit of Gauss iteration from ``v`` (relative
    spread ``tol``, 0 < tol < 1); it takes ``arity = len(family)`` entries
    and, its family passing :func:`check_strict_family`, is strict.
    ``name``, a session registration, replaces the label; eq and hash skip it.
    """

    family: tuple[MeanExpr, ...]
    tol: float = DEFAULT_TOL
    name: Optional[str] = None

    strict = True  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "family", tuple(self.family))
        check_tol(self.tol)
        check_strict_family(self.family)

    @property
    def arity(self) -> int:
        return len(self.family)

    def __str__(self) -> str:
        if self.name is not None:
            return self.name
        return "invariant{M=[" + ",".join(str(m) for m in self.family) + "]}"


class DerivedMean(Frozen, compare=None):
    """An opaque mean backed by a user callable.

    ``fn`` receives an already ascending-sorted tuple, which keeps evaluation
    bit-exactly permutation invariant.  ``strict`` is a caller assertion that
    the mean is strictly increasing in each variable; it gates use as an
    outer function and in mean-type iterations and is never verified.
    Identity equality on purpose (``compare=None``): two separately built
    evaluators are distinct objects even if they agree pointwise.
    """

    name: str
    fn: Callable[[tuple[float, ...]], float]
    arity: Optional[int] = None
    strict: bool = False

    def __str__(self) -> str:
        return self.name


# `|`, not typing.Union: its cache would keep old classes and modules alive past a reload
MeanExpr = PowerMean | BetaMean | GeneralizedBetaMean | ProblemSpec | InvariantMean | DerivedMean

_MEAN_TYPES = get_args(MeanExpr)


def is_mean_expr(obj) -> bool:
    return isinstance(obj, _MEAN_TYPES)


def is_strict(mean: MeanExpr) -> bool:
    """Whether ``mean`` is known to be strictly increasing in each variable.

    True for power means, invariant means and means asserted strict: the
    admission set of :class:`MeanOuter`.  Gauss iteration also admits ``B``.
    """
    return isinstance(mean, PowerMean) or getattr(mean, "strict", False)


def check_strict_family(family: tuple[MeanExpr, ...]) -> None:
    """Reject a Gauss-iteration family that is empty or has a member neither strict nor B."""
    if not family:
        raise ArityError("a mean-type family needs at least one mean")
    for m in family:
        if not (isinstance(m, BetaMean) or is_strict(m)):
            raise HypothesisViolation(
                f"{m} is not known to be strict; wrap it with assert_strict() "
                "to record the caller's strictness assertion")


# ---------------------------------------------------------------------------
# outer aggregate functions
# ---------------------------------------------------------------------------

_GENERATORS = ("id", "log", "exp", "pow")


class Sum(Frozen):
    """The quasi-arithmetic aggregate ``sum(g(x_i))``, g from {id, log, exp, pow[p]}.

    ``Sum()`` is the plain sum and ``Sum("pow", p)`` the power sum, p > 0
    (p <= 0 would not be strictly increasing); log and pow need positive
    entries.  Text: ``sum``, ``qa[log]``, ``qa[exp]``, ``powsum[p]``.
    """

    generator: str = "id"
    exponent: Optional[float] = None

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise DomainError(f"unknown generator {self.generator!r}; "
                              f"expected one of {', '.join(_GENERATORS)}")
        if self.generator != "pow":
            if self.exponent is not None:
                raise DomainError(f"generator {self.generator!r} takes no exponent")
        elif self.exponent is None or not math.isfinite(self.exponent):
            raise DomainError(f"power-sum exponent must be finite, got {self.exponent!r}")
        elif self.exponent <= 0.0:
            raise DomainError(
                f"power-sum exponent must be positive, got {self.exponent!r}: "
                "a power with exponent <= 0 is not strictly increasing")

    def __str__(self) -> str:
        if self.generator == "id":
            return "sum"
        if self.generator == "pow":
            return f"powsum[{format_number(self.exponent)}]"
        return f"qa[{self.generator}]"


class Product(Frozen):
    """Product of the entries; strictly increasing only on positive values."""

    def __str__(self) -> str:
        return "prod"


class MeanOuter(Frozen):
    """A strict mean used as the outer aggregate.

    Admitted: what :func:`is_strict` accepts, i.e. finite-order power means,
    invariant means and means asserted strict.  Everything else is rejected
    here because strict per-coordinate growth cannot be established for it.
    """

    mean: MeanExpr

    def __post_init__(self):
        if not is_strict(self.mean):
            raise DomainError(
                f"{self.mean} is not admissible as an outer function: only "
                "power means and derived means asserted strict are accepted")

    def __str__(self) -> str:
        return f"mean[{self.mean}]"


OuterFn = Sum | Product | MeanOuter


def declared_arity(outer: OuterFn) -> Optional[int]:
    """The arity an outer function is pinned to, or None when variadic."""
    if isinstance(outer, MeanOuter):
        return getattr(outer.mean, "arity", None)
    return None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def power_mean(order: float, entries: Sequence[float]) -> float:
    """((x1**s + ... + xn**s)/n)**(1/s); the geometric mean at s = 0.

    Evaluated as ``anchor*exp(log1p(mean(expm1(s*t)))/s)`` with
    ``t = log(x/anchor)``, anchored at max(v) for positive orders and min(v)
    otherwise, so ``s*t <= 0``: nothing overflows, and the 1/s exponent does
    not amplify rounding as s approaches 0.  At a constant vector every t is
    0, so the value is the entry itself, exactly.
    """
    if not math.isfinite(order):
        raise DomainError("power-mean order must be finite")
    return _power_mean(order, as_vector(entries))


def _power_mean(order: float, v: tuple[float, ...]) -> float:
    """:func:`power_mean` at a finite ``order`` and a validated vector ``v``."""
    lo, hi = min(v), max(v)
    check_positive(lo, "power mean")
    anchor = hi if order > 0.0 else lo
    if lo / hi < _MIN_NORMAL:  # some x/anchor would leave the normal floats
        return _wide_power_mean(order, v, anchor)
    if abs(order) < GEOMETRIC_ORDER:
        return anchor * math.exp(math.fsum([math.log(x / anchor) for x in v]) / len(v))
    mean_expm1 = math.fsum([math.expm1(order * math.log(x / anchor))
                            for x in v]) / len(v)
    return anchor * math.exp(math.log1p(mean_expm1) / order)


def _power_orders(family: tuple[MeanExpr, ...]) -> Optional[list[float]]:
    """The orders of a family of power means, in family order; None for any other family."""
    orders = []
    for m in family:
        if not isinstance(m, PowerMean):
            return None
        orders.append(m.order)
    return orders


def _power_family(orders: list[float], v: tuple[float, ...],
                  lo: float, hi: float) -> tuple[float, ...]:
    """``tuple(_power_mean(s, v) for s in orders)`` bit for bit, ``lo, hi = min(v), max(v)``.

    Checks run once, and ``log(x/anchor)`` once per anchor (hi for orders > 0,
    else lo) that two or more members share; a lone member takes one pass.
    The formula is a copy of :func:`_power_mean`'s: a shared one slows that 2-6 %.
    """
    check_positive(lo, "power mean")
    if lo / hi < _MIN_NORMAL:
        return tuple([_wide_power_mean(s, v, hi if s > 0.0 else lo) for s in orders])
    up = len([s for s in orders if s > 0.0])
    t_hi = [math.log(x / hi) for x in v] if up > 1 else None
    t_lo = [math.log(x / lo) for x in v] if len(orders) - up > 1 else None
    n, values = len(v), []
    for s in orders:
        anchor, t = (hi, t_hi) if s > 0.0 else (lo, t_lo)
        if abs(s) < GEOMETRIC_ORDER:
            m = math.fsum(t or [math.log(x / anchor) for x in v]) / n
        elif t is None:
            m = math.log1p(math.fsum([math.expm1(s * math.log(x / anchor)) for x in v]) / n) / s
        else:
            m = math.log1p(math.fsum([math.expm1(s * u) for u in t]) / n) / s
        values.append(anchor * math.exp(m))
    return tuple(values)


def _wide_power_mean(order: float, v: tuple[float, ...], anchor: float) -> float:
    """:func:`power_mean` with ``log(x/anchor)`` formed as ``log(x) - log(anchor)``.

    Used only where min(v)/max(v) is below the normal floats; elsewhere the
    ratio is more accurate, since the error of ``log(x)`` grows with |log x|.
    """
    shift = math.log(anchor)
    t = [math.log(x) - shift for x in v]
    if abs(order) < GEOMETRIC_ORDER:
        m = math.fsum(t) / len(v)
    else:
        m = math.log1p(math.fsum([math.expm1(order * u) for u in t]) / len(v)) / order
    return _anchored_exp(anchor, m)


def _anchored_exp(anchor: float, m: float) -> float:
    """``anchor*exp(m)``, also where ``exp(m)`` alone leaves the normal floats.

    That happens for |m| > 708 although the product need not (|m| < 1455),
    so beyond |m| = 700 the factor is applied in three parts.
    """
    if abs(m) <= 700.0:
        return anchor * math.exp(m)
    third = m / 3.0  # m - 2*third is exact (Sterbenz), so the parts sum to m
    return anchor * math.exp(third) * math.exp(third) * math.exp(m - 2.0 * third)


def beta_mean(entries: Sequence[float]) -> float:
    """(k * v1*...*vk / (v1+...+vk))**(1/(k-1)) on positive entries, k >= 2."""
    return _beta_mean(as_vector(entries))


def _beta_mean(v: tuple[float, ...]) -> float:
    """:func:`beta_mean` at a validated vector ``v``."""
    sv = sorted(v)
    lo, hi = sv[0], sv[-1]
    check_positive(lo, "Beta-type mean")
    k = len(sv)
    if k < 2:
        raise ArityError("Beta-type mean needs at least 2 entries "
                         "(the exponent 1/(k-1) is undefined for k=1)")
    try:
        total = math.fsum(sv)
    except OverflowError:
        total = math.inf
    prod = math.prod(sv)  # ascending: no partial product is below min(1, lo)**k
    if min(1.0, lo) ** k >= _MIN_NORMAL and prod < math.inf:
        ratio = k * prod / total
        if _MIN_NORMAL <= ratio < math.inf:
            return min(max(ratio ** (1.0 / (k - 1)), lo), hi)  # rounding may leave [lo, hi]
    # A product, the sum or their ratio left the normal floats (a subnormal has
    # lost digits).  B is homogeneous, B(v) = hi*B(v/hi): through logarithms.
    if lo / hi < _MIN_NORMAL:  # some x/hi would leave the normal floats
        shift = math.log(hi)
        t = [math.log(x) - shift for x in sv]
    else:
        t = [math.log(x / hi) for x in sv]
    share = math.fsum([x / hi for x in sv])
    return _anchored_exp(hi, (math.log(k) + math.fsum(t) - math.log(share)) / (k - 1))


def eval_mean(mean: MeanExpr, entries: Sequence[float]) -> float:
    """Evaluate a mean expression at a vector."""
    return _eval_mean(mean, as_vector(entries))


def _eval_mean(mean: MeanExpr, v: tuple[float, ...]) -> float:
    """:func:`eval_mean` at a validated vector ``v``: the kernel derived means call."""
    if isinstance(mean, PowerMean):
        return _power_mean(mean.order, v)
    if isinstance(mean, BetaMean):
        return _beta_mean(v)
    if isinstance(mean, (ProblemSpec, GeneralizedBetaMean)):
        return implicit.balance_value(mean, v)
    if isinstance(mean, InvariantMean):
        return invariance.invariant_value(mean, v)
    if isinstance(mean, DerivedMean):
        if mean.arity is not None and len(v) != mean.arity:
            raise ArityError(f"{mean.name} takes {mean.arity} entries, got {len(v)}")
        sv = tuple(sorted(v))
        check_positive(sv[0], mean.name)
        value = mean.fn(sv)
        if not (isinstance(value, float) and math.isfinite(value)):
            raise DomainError(f"{mean.name} returned {value!r}, not a finite float")
        return value
    raise TypeError(f"not a mean expression: {mean!r}")


def _eval_family(family: tuple[MeanExpr, ...], v: tuple[float, ...]) -> tuple[float, ...]:
    """Exactly ``tuple(_eval_mean(m, v) for m in family)``, bit for bit, same errors.

    Two or more power means share ``min(v)``, ``max(v)``, the checks and the
    anchor logs (:func:`_power_family`); one member or other families go one by one.
    """
    orders = _power_orders(family) if len(family) > 1 else None
    if orders is None:
        return tuple([_eval_mean(m, v) for m in family])
    return _power_family(orders, v, min(v), max(v))


def eval_outer(outer: OuterFn, entries: Sequence[float]) -> float:
    """Evaluate an outer aggregate at a vector (bit-exactly symmetric)."""
    v = as_vector(entries)
    n = declared_arity(outer)
    if n is not None and len(v) != n:
        raise ArityError(f"{outer} takes {n} entries, got {len(v)}")
    return _eval_outer(outer, v)


def _eval_outer(outer: OuterFn, v: tuple[float, ...]) -> float:
    """:func:`eval_outer` at a validated tuple ``v`` of the outer's arity, in any order."""
    try:
        if isinstance(outer, Sum):
            g = outer.generator
            if g == "id":
                value = math.fsum(v)
            elif g == "exp":
                value = math.fsum(map(math.exp, v))
            else:
                check_positive(min(v), outer)
                if g == "log":
                    value = math.fsum(map(math.log, v))
                else:
                    p = outer.exponent
                    value = math.fsum([x ** p for x in v])
        elif isinstance(outer, Product):
            check_positive(min(v), outer)
            value = math.prod(sorted(v))  # the one outer that rounds by order
        elif isinstance(outer, MeanOuter):
            value = _eval_mean(outer.mean, v)
        else:
            raise TypeError(f"not an outer function: {outer!r}")
    except OverflowError:  # fsum, ** and exp raise it; prod returns inf
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{outer} overflows at {list(v)!r}")
    return value


def assert_strict(mean: MeanExpr) -> MeanExpr:
    """Record the caller's assertion that an opaque mean is strict.

    Power, Beta and invariant means and means already asserted strict pass
    through unchanged; a :class:`DerivedMean` comes back with ``strict=True``,
    admissible in mean-type iterations and as an outer mean.  The assertion
    itself is not checked.  Any other node raises :class:`DomainError`.
    """
    if isinstance(mean, BetaMean) or is_strict(mean):
        return mean
    if isinstance(mean, DerivedMean):
        return replace(mean, strict=True)
    raise DomainError(f"{mean} cannot be asserted strict; to assert it, wrap "
                      "its evaluation in a DerivedMean and pass that")


def check_mean_property(mean: MeanExpr, plan: SamplePlan) -> CheckReport:
    """Sampled check that ``mean`` stays within [min, max] and is symmetric.

    Bounds are tested with 1e-12 relative slack (the evaluation itself can
    exceed an extreme entry by a few ulp on near-constant input); symmetry
    with 1e-12 relative tolerance, which built-in means beat bit-exactly.
    """
    perm_rng = random.Random(plan.seed ^ 0x5DEECE66D)
    worst = 0.0
    for index, v in enumerate(sample_vectors(plan)):
        value = _eval_mean(mean, v)
        lo, hi = min(v), max(v)
        slack = SYMMETRY_RTOL * hi
        if not (lo - slack <= value <= hi + slack):
            return CheckReport(False, index + 1, counterexample={
                "vector": list(v), "value": value, "min": lo, "max": hi,
                "violated": "mean property"})
        shuffled = list(v)
        perm_rng.shuffle(shuffled)
        other = _eval_mean(mean, tuple(shuffled))
        gap = abs(other - value)
        worst = max(worst, gap)
        if gap > SYMMETRY_RTOL * value:
            return CheckReport(False, index + 1, counterexample={
                "vector": list(v), "permuted": shuffled, "value": value,
                "permuted_value": other, "violated": "symmetry"})
    return CheckReport(True, plan.count, max_residual=worst)


# Last, as both import from here: _eval_mean calls into them with no import per call.
from . import implicit, invariance  # noqa: E402
