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
entries and a ``DerivedMean`` that fails or returns no finite float.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Optional, Sequence

from ._frozen import Frozen
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


def _midpoint(lo: float, hi: float) -> float:
    """``0.5 * (lo + hi)``, or ``0.5 * lo + 0.5 * hi`` where ``lo + hi`` overflows."""
    mid = 0.5 * (lo + hi)
    return mid if mid - mid == 0.0 else 0.5 * lo + 0.5 * hi


def _narrow(lo: float, hi: float, tol: float) -> Optional[float]:
    """The next midpoint of ``[lo, hi]``, or None once the bracket is settled.

    The one stopping rule of bisection and Gauss iteration: settled when
    ``hi - lo <= tol * max(|lo|, |hi|)`` or when no float lies strictly inside.
    """
    if hi - lo <= tol * (hi if hi >= -lo else -lo):
        return None
    mid = _midpoint(lo, hi)
    return mid if lo < mid < hi else None


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
        object.__setattr__(self, "_power", _power_plan(self.small + self.big))  # not a field

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
        object.__setattr__(self, "_power", _power_plan(self.family))  # not a field

    @property
    def arity(self) -> int:
        return len(self.family)

    def __str__(self) -> str:
        if self.name is not None:
            return self.name
        tol = "" if self.tol == DEFAULT_TOL else f"; tol={format_number(self.tol)}"
        return "invariant{M=[" + ",".join(str(m) for m in self.family) + f"]{tol}}}"


class DerivedMean(Frozen, compare=None):
    """An opaque mean backed by a user callable.

    ``fn`` receives an already ascending-sorted tuple, which keeps evaluation
    bit-exactly permutation invariant.  ``strict=True`` is the one way to
    assert that the mean is strictly increasing in each variable, which
    admits it as an outer function and in mean-type iterations; the
    assertion is never verified.
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


def is_strict(mean: MeanExpr) -> bool:
    """Whether ``mean`` is known to be strictly increasing in each variable.

    True for power means, ``B`` (d/dv_i log(k*prod(v)/sum(v)) = 1/v_i - 1/sum(v)
    > 0 for k >= 2), invariant means and a ``DerivedMean`` built with
    ``strict=True``.  The one test of what :class:`MeanOuter` and Gauss
    iteration admit.
    """
    return isinstance(mean, (PowerMean, BetaMean)) or getattr(mean, "strict", False)


def _not_strict(mean: MeanExpr) -> str:
    """Why ``mean`` is refused where :func:`is_strict` is required."""
    return (f"{mean} is not known to be strict; strict means are power means P[s], B, "
            "invariant means (invariant{M=[...]} or a registered name) and, from the library, "
            "a DerivedMean built with strict=True")


def check_strict_family(family: tuple[MeanExpr, ...]) -> None:
    """Reject a Gauss family that is empty or has a member not strict or of another arity."""
    if not family:
        raise ArityError("a mean-type family needs at least one mean")
    for m in family:
        if not is_strict(m):
            raise HypothesisViolation(_not_strict(m))
        if getattr(m, "arity", None) not in (None, len(family)):
            raise ArityError(f"{m} takes {m.arity} entries, but the family has {len(family)} means")


# ---------------------------------------------------------------------------
# outer aggregate functions
# ---------------------------------------------------------------------------

_GENERATORS = ("id", "log", "exp", "pow")


class Sum(Frozen):
    """The quasi-arithmetic aggregate ``sum(g(x_i))``, g from {id, log, exp, pow[p]}.

    ``Sum()`` is the plain sum and ``Sum("pow", p)`` the power sum, p > 0
    (p <= 0 would not be strictly increasing); log and pow need positive
    entries.  Text: ``sum``, ``qa[log]``, ``qa[exp]``, ``powsum[p]``.
    The generator function is worked out once, as ``_g``: None for id,
    ``math.log``, ``math.exp`` or ``x -> x ** p``.
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
        g = {"log": math.log, "exp": math.exp}.get(self.generator)
        if self.generator == "pow":
            g = float(self.exponent).__rpow__  # x -> x ** p, bit for bit
        object.__setattr__(self, "_g", g)  # not fields
        object.__setattr__(self, "_positive", self.generator in ("log", "pow"))

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

    Admitted: what :func:`is_strict` accepts.  Everything else raises
    :class:`DomainError`, as strict per-coordinate growth is not known for it.
    """

    mean: MeanExpr

    def __post_init__(self):
        if not is_strict(self.mean):
            raise DomainError(f"not an outer function: {_not_strict(self.mean)}")

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
    0, so the value is the entry itself, exactly.  Orders 1 and -1 are summed
    exactly instead (:func:`_unit_power`), and clamped to [min, max] alike.
    """
    if not math.isfinite(order):
        raise DomainError("power-mean order must be finite")
    return _power_value(order, as_vector(entries))


def _power_value(order: float, v: tuple[float, ...]) -> float:
    """:func:`power_mean` at a validated ``v``: :func:`_unit_power` or the kernel."""
    if order == 1.0 or order == -1.0:
        lo, hi = min(v), max(v)
        check_positive(lo, "power mean")
        return _unit_power(order, v, (), lo, hi)
    return _power_mean(order, v)


def _power_mean(order: float, plus: tuple[float, ...], minus: tuple[float, ...] = ()) -> float:
    """``((sum(plus**s) - sum(minus**s)) / n)**(1/s)`` with ``n = len(plus) - len(minus)``.

    :func:`power_mean`'s terms ``z = s*t`` over all entries (``t`` at a geometric order
    s), ``t = log(y/anchor)``, or ``log(y) - log(anchor)`` where min/max leaves the
    normal floats; with no ``minus``, its value clamped to [min, max].  With a ``minus``
    (``implicit._power_root``), a ``z`` in (-708, -0.7) is the exact pair
    ``-1, exp(z)``, so -1s of shared dominant entries cancel in ``fsum``, and
    below a mean of -1/2, ``1 + mean`` is summed too.  Raises ``ValueError`` where
    no power is left (``1 + mean <= 0``), ``OverflowError`` where ``exp`` overflows.
    """
    ys = plus + minus  # plus itself when minus is ()
    lo, hi = min(ys), max(ys)
    check_positive(lo, "power mean")
    anchor = hi if order > 0.0 else lo
    geometric = abs(order) < GEOMETRIC_ORDER
    s, log = (1.0 if geometric else order), math.log
    wide = lo / hi < _MIN_NORMAL  # some y/anchor would leave the normal floats
    if wide:
        c = log(anchor)
        z = [s * (log(y) - c) for y in ys]
    else:
        z = [s * log(y / anchor) for y in ys]
    k, n = len(plus), len(plus) - len(minus)
    if not minus:
        m = math.fsum(z) / n if geometric else math.log1p(math.fsum(map(math.expm1, z)) / n) / order
    elif geometric:
        m = math.fsum(z[:k] + [-x for x in z[k:]]) / n
    else:
        terms = []
        for i, x in enumerate(z):
            sign = 1.0 if i < k else -1.0
            if -708.0 < x < -0.7:  # exp(x) is normal
                terms += (-sign, sign * math.exp(x))
            else:
                terms.append(sign * math.expm1(x))
        mean = math.fsum(terms) / n
        m = (math.log1p(mean) if mean >= -0.5 else log(math.fsum(terms + [n]) / n)) / order
    x = _anchored_exp(anchor, m) if wide else anchor * math.exp(m)
    return x if minus else lo if x < lo else hi if x > hi else x  # min(max(x, lo), hi), faster


def _unit_power(order: float, plus: tuple[float, ...], minus: tuple[float, ...],
                lo: float, hi: float) -> float:
    """:func:`_power_mean` at order 1 or -1, clamped to [lo, hi].  P[1] of ``plus`` less
    ``minus``'s terms is ``q = fsum(plus - minus)/n`` plus ``fsum(plus - minus - n*q)/n``:
    correctly rounded but at near-ties, with no sign check (terms scaled by ``2**-k`` where
    a partial sum overflows).  P[-1] of ``plus`` is ``n/fsum(1/plus)``, within 1.5 ulp, where
    lo and hi lie in [2**-960, 2**960] (no 1/y leaves the normal floats, no sum overflows);
    the kernel takes the rest, and every ``minus``."""
    n = len(plus) - len(minus)
    if order > 0.0:
        terms, k = (plus + tuple([-y for y in minus]) if minus else plus), 0
        try:
            q = math.fsum(terms) / n
        except OverflowError:  # scaled, the terms and n copies of -q sum below 2**1023
            terms, k = _scaled(terms)
            q = math.fsum(terms) / n
        x = (q + math.fsum(terms + (-q,) * n) / n) * 2.0 ** k
    elif minus or lo < 2.0 ** -960 or hi > 2.0 ** 960:
        x = _power_mean(order, plus, minus)
    else:
        x = n / math.fsum([1.0 / y for y in plus])
    return lo if x < lo else hi if x > hi else x


def _scaled(terms: tuple[float, ...]) -> tuple[tuple[float, ...], int]:
    """``terms`` times ``2**-k`` and ``k = (4*len(terms)).bit_length()``, for a sum that
    overflows: exact but in the subnormals, and no partial sum, even with as many more
    terms of at most the largest one, passes the largest float."""
    k = (4 * len(terms)).bit_length()
    return tuple([math.ldexp(y, -k) for y in terms]), k


def _power_plan(family: tuple[MeanExpr, ...]) -> Optional[tuple[list, bool, bool]]:
    """A power family's orders, and whether two or more of its kernel orders (not 1 or -1)
    share each anchor, max(v) for orders > 0 and min(v) otherwise.  None for another family."""
    if not all(isinstance(m, PowerMean) for m in family):
        return None
    orders = [m.order for m in family]
    kernel = [s for s in orders if s != 1.0 and s != -1.0]
    up = sum(s > 0.0 for s in kernel)
    return orders, up > 1, len(kernel) - up > 1


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
    """:func:`beta_mean` at a validated vector ``v``: ``hi*(k*prod(v/hi) / fsum(v/hi))**(1/(k-1))``.

    With ``y = m*2**e`` (``frexp``), the product is kept as a mantissa, renormalized
    at each sorted entry's ratio ``m/m_hi`` in (1/2, 2), and an exact exponent sum
    ``q*(k-1) + r``; ``ldexp`` applies ``2**q`` and ``hi``'s exponent last, so no
    intermediate leaves the normal floats.
    """
    sv = sorted(v)
    lo, hi = sv[0], sv[-1]
    check_positive(lo, "Beta-type mean")
    k = len(sv)
    if k < 2:
        raise ArityError("Beta-type mean needs at least 2 entries "
                         "(the exponent 1/(k-1) is undefined for k=1)")
    frexp = math.frexp
    m_hi, e_hi = frexp(hi)
    p, e = 1.0, -k * e_hi
    for y in sv:
        m_y, e_y = frexp(y)
        p, shift = frexp(p * (m_y / m_hi))
        e += e_y + shift
    q, r = divmod(e, k - 1)
    root = (k * p / math.fsum([y / hi for y in sv])) ** (1.0 / (k - 1)) * 2.0 ** (r / (k - 1))
    try:
        value = math.ldexp(m_hi * root, e_hi + q)
    except OverflowError:  # rounded past hi = the largest float; B <= hi
        return hi
    return min(max(value, lo), hi)  # rounding may leave [lo, hi]


def eval_mean(mean: MeanExpr, entries: Sequence[float]) -> float:
    """Evaluate a mean expression at a vector."""
    return _eval_mean(mean, as_vector(entries))


def _eval_mean(mean: MeanExpr, v: tuple[float, ...]) -> float:
    """:func:`eval_mean` at a validated vector ``v``: the kernel derived means call."""
    if isinstance(mean, PowerMean):
        return _power_value(mean.order, v)
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
        try:
            value = mean.fn(sv)
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(f"{mean.name} undefined at {sv!r}: {exc}") from exc
        if not (isinstance(value, float) and math.isfinite(value)):
            raise DomainError(f"{mean.name} returned {value!r}, not a finite float")
        return value
    raise TypeError(f"not a mean expression: {mean!r}")


def _eval_family(family: tuple[MeanExpr, ...], plan: Optional[tuple[list, bool, bool]],
                 v: tuple[float, ...], lo: float, hi: float) -> tuple[float, ...]:
    """Exactly ``tuple(_eval_mean(m, v) for m in family)``, bit for bit, same errors.

    ``plan = _power_plan(family)``, built once by whoever owns the family, and
    ``lo, hi = min(v), max(v)``.  Without a plan the members go one by one.  A power
    family runs its checks once, and ``log(x/anchor)`` once per anchor that two or more
    kernel orders share; a lone one takes one pass, and orders 1 and -1 take
    :func:`_unit_power`.  Where min/max leaves the normal floats, each member takes
    :func:`_power_value`.  The ratio route is a copy of :func:`_power_mean`'s: calling
    it slows this 2-6 %.
    """
    if plan is None:
        return tuple([_eval_mean(m, v) for m in family])
    orders, share_hi, share_lo = plan
    check_positive(lo, "power mean")
    if lo / hi < _MIN_NORMAL:
        return tuple([_power_value(s, v) for s in orders])
    t_hi = [math.log(x / hi) for x in v] if share_hi else None
    t_lo = [math.log(x / lo) for x in v] if share_lo else None
    n, values = len(v), []
    for s in orders:
        if s == 1.0 or s == -1.0:
            values.append(_unit_power(s, v, (), lo, hi))
            continue
        anchor, t = (hi, t_hi) if s > 0.0 else (lo, t_lo)
        if abs(s) < GEOMETRIC_ORDER:
            m = math.fsum(t or [math.log(x / anchor) for x in v]) / n
        elif t is None:
            m = math.log1p(math.fsum([math.expm1(s * math.log(x / anchor)) for x in v]) / n) / s
        else:
            m = math.log1p(math.fsum([math.expm1(s * u) for u in t]) / n) / s
        x = anchor * math.exp(m)
        values.append(lo if x < lo else hi if x > hi else x)  # _power_mean's clamp
    return tuple(values)


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
            if outer._positive:
                check_positive(min(v), outer)
            value = math.fsum(v if outer._g is None else map(outer._g, v))
        elif isinstance(outer, Product):
            check_positive(min(v), outer)
            value = math.prod(sorted(v))  # the one outer that rounds by order
        elif isinstance(outer, MeanOuter):
            value = _eval_mean(outer.mean, v)
        else:
            raise TypeError(f"not an outer function: {outer!r}")
    except OverflowError:  # fsum, ** and exp raise it; prod returns inf
        value = math.inf
        if isinstance(outer, Sum) and outer._g is None:  # the total may be finite: sum scaled terms
            terms, k = _scaled(v)
            value = math.fsum(terms) * 2.0 ** k
    if not math.isfinite(value):
        raise DomainError(f"{outer} overflows at {list(v)!r}")
    return value


def check_mean_property(mean: MeanExpr, plan: SamplePlan) -> CheckReport:
    """Sampled check that ``mean`` stays within [min, max] and is symmetric.

    Bounds are tested with 1e-12 slack relative to each bound (the evaluation
    itself can pass an extreme entry by a few ulp on near-constant input);
    symmetry with 1e-12 relative tolerance, which built-in means beat bit-exactly.
    """
    perm_rng = random.Random(plan.seed ^ 0x5DEECE66D)
    worst = 0.0
    for index, v in enumerate(sample_vectors(plan)):
        value = _eval_mean(mean, v)
        lo, hi = min(v), max(v)
        if not (lo - SYMMETRY_RTOL * abs(lo) <= value <= hi + SYMMETRY_RTOL * abs(hi)):
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
