"""Reference answers for the benchmark, written with the standard library only.

Nothing here imports the program: every oracle recomputes its answer from the
generated inputs, so a wrong answer from the program cannot hide behind the
same wrong answer here.  Each ``check_*`` function returns ``None`` when the
answer is accepted and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

# Tolerances, from the repository's acceptance tests and solver contract.
CLOSED_FORM_RTOL = 1e-9
RESIDUAL_RTOL = 1e-10
INVARIANT_RTOL = 1e-10
COMPLEMENTARY_RTOL = 1e-8
# Independent evaluation of the bracket ends differs from the program's by a
# few ulp; this slack is far below the solver's own 1e-12 relative tolerance.
BRACKET_SLACK = 1e-13


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def power_mean(order: float, v: Sequence[float]) -> float:
    """Plain power mean; geometric mean at order 0."""
    if order == 0.0:
        return math.exp(math.fsum(math.log(x) for x in v) / len(v))
    return (math.fsum(x ** order for x in v) / len(v)) ** (1.0 / order)


def beta_mean(v: Sequence[float]) -> float:
    """(k * prod(v) / sum(v)) ** (1/(k-1)), through logarithms."""
    k = len(v)
    log_value = (math.log(k) + math.fsum(math.log(x) for x in v)
                 - math.log(math.fsum(v))) / (k - 1)
    return math.exp(log_value)


# Quasi-arithmetic outers as (g, g^-1); ``spec`` is the outer's DSL text.
def generator(spec: str):
    if spec == "sum":
        return (lambda x: x), (lambda y: y)
    if spec in ("prod", "qa[log]"):
        return math.log, math.exp
    if spec == "qa[exp]":
        return math.exp, math.log
    for head in ("powsum[", "qa[pow["):
        if spec.startswith(head):
            p = float(spec[len(head):].rstrip("]"))
            return (lambda x: x ** p), (lambda y: y ** (1.0 / p))
    raise ValueError(f"not a quasi-arithmetic outer: {spec}")


def outer_value(spec: str, v: Sequence[float]) -> float:
    """Value of an outer aggregate: sum(g(x)), prod(x), or a power mean."""
    if spec == "prod":
        return math.exp(math.fsum(math.log(x) for x in v))
    if spec.startswith("mean[P["):
        return power_mean(float(spec[len("mean[P["):-2]), v)
    g, _ = generator(spec)
    return math.fsum(g(x) for x in v)


def balance_root(spec: str, small: Sequence[float], big: Sequence[float]) -> float:
    """Closed-form root of outer(small, x..x) = outer(big) for g-sum outers."""
    g, g_inv = generator(spec)
    fill = len(big) - len(small)
    return g_inv(math.fsum([g(y) for y in big] + [-g(s) for s in small]) / fill)


def check_balance(spec: str, small: Sequence[float], big: Sequence[float],
                  root: float) -> Optional[str]:
    """Closed form at 1e-9 for g-sum outers; residual and bracket for mean[P[s]]."""
    lo, hi = min(big), max(big)
    slack = BRACKET_SLACK * hi
    if not lo - slack <= root <= hi + slack:
        return f"root {root!r} outside bracket [{lo!r}, {hi!r}]"
    if spec.startswith("mean["):
        goal = outer_value(spec, big)
        fill = len(big) - len(small)
        residual = rel_err(outer_value(spec, list(small) + [root] * fill), goal)
        if not residual <= RESIDUAL_RTOL:
            return f"relative residual {residual:.3e} > {RESIDUAL_RTOL}"
        return None
    want = balance_root(spec, small, big)
    err = rel_err(root, want)
    if not err <= CLOSED_FORM_RTOL:
        return f"root {root!r} vs closed form {want!r} (rel {err:.3e})"
    return None


def gauss_limit(orders: Sequence[float], v: Sequence[float]) -> float:
    """Limit of v <- (P[s_1](v), ..., P[s_n](v)), iterated to a 1e-14 spread."""
    u = list(v)
    for _ in range(200):
        lo, hi = min(u), max(u)
        if hi - lo <= 1e-14 * hi:
            break
        u = [power_mean(s, u) for s in orders]
    return 0.5 * (min(u) + max(u))


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean by the classical loop."""
    for _ in range(100):
        if abs(a - b) <= 1e-15 * max(a, b):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def check_close(got: float, want: float, rtol: float, what: str) -> Optional[str]:
    err = rel_err(got, want)
    if not err <= rtol:  # also rejects NaN
        return f"{what}: {got!r} vs {want!r} (rel {err:.3e} > {rtol})"
    return None


# Ordering relations on sorted entries, as defined in the repository README.
def ordered_minorized(v: Sequence[float], w: Sequence[float]) -> bool:
    if len(v) <= len(w):
        a, b = sorted(v), sorted(w)
    else:
        a, b = sorted(v, reverse=True), sorted(w, reverse=True)
    return all(x >= y for x, y in zip(a, b))


def ordered_majorized(v: Sequence[float], w: Sequence[float]) -> bool:
    if len(v) <= len(w):
        a, b = sorted(v, reverse=True), sorted(w, reverse=True)
    else:
        a, b = sorted(v), sorted(w)
    return all(x <= y for x, y in zip(a, b))


def embedded(v: Sequence[float], w: Sequence[float]) -> bool:
    return (len(v) <= len(w) and ordered_minorized(v, w)
            and ordered_majorized(v, w))
