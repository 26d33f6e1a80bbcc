"""Record ``accuracy.json``: the worst relative error of each layer against mpmath.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_accuracy.py

Each row is the worst ``|value - exact| / exact`` over seeded inputs, with the
exact value from mpmath at ``DPS`` digits:

* ``power_mean P[s]`` at s = 1, -1, 0 and 2.5, over vectors of 1-8 entries
  log-uniform in (1e-3, 1e3), one in ten near-constant and one in ten
  spanning (1e-300, 1e300);
* ``solve_scalar <outer>``, the root of the balance equation for each outer
  kind, over the instances of :func:`root_instances`.

``tests/test_implicit.py::TestAccuracyLedger`` recomputes every row and fails
when one is worse than recorded by more than ``FACTOR``, which absorbs libm
differences between platforms.  Re-record only with this script, and give the
table before and after in CHANGES.md.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import mpmath

from meanforge import MeanOuter, Product, power_mean, solve_scalar
from meanforge.dsl import parse_outer

LEDGER = Path(__file__).with_name("accuracy.json")
DPS = 50
FACTOR = 4.0
POWER_ORDERS = (1.0, -1.0, 0.0, 2.5)
# test_implicit.SOLVER_OUTERS without "invariant"
SOLVE_OUTERS = ("sum", "prod", "powsum[0.5]", "powsum[2]", "qa[log]", "qa[exp]",
                "qa[pow[1.5]]", "mean[P[-1.5]]", "mean[P[-1]]", "mean[P[0]]",
                "mean[P[0.5]]", "mean[P[2]]")
POWER_VECTORS = 1000
ROOTS = 200


def exact_power_mean(order, v):
    """The order-``order`` power mean of ``v`` at the working precision."""
    xs = [mpmath.mpf(x) for x in v]
    if order == 0:
        return mpmath.exp(mpmath.fsum(map(mpmath.log, xs)) / len(xs))
    s = mpmath.mpf(order)
    return (mpmath.fsum(x ** s for x in xs) / len(xs)) ** (1 / s)


def power_vectors(seed, count):
    """``count`` vectors of 1-8 entries; one in ten near-constant, one in ten very wide."""
    rng = random.Random(seed)
    for index in range(count):
        n = rng.randint(1, 8)
        if index % 10 == 0:
            base = 10 ** rng.uniform(-3, 3)
            yield tuple(base * (1 + 1e-9 * rng.random()) for _ in range(n))
        else:
            span = 300 if index % 10 == 1 else 3
            yield tuple(10 ** rng.uniform(-span, span) for _ in range(n))


def balance_root(outer, prefix, target):
    """The root of outer(prefix, x, .., x) = outer(target) at the working precision.

    Every outer here is Phi(sum g(x_i)) with a strictly monotone g, so the
    root is g^-1((sum g(w) - sum g(v)) / fill); a power-mean outer has
    g = x**s (log x at s = 0) and the product g = log.
    """
    fill = len(target) - len(prefix)
    if isinstance(outer, MeanOuter):
        s = mpmath.mpf(outer.mean.order)
        g, g_inv = ((mpmath.log, mpmath.exp) if s == 0
                    else (lambda x: x ** s, lambda y: y ** (1 / s)))
    elif isinstance(outer, Product) or outer.generator == "log":
        g, g_inv = mpmath.log, mpmath.exp
    elif outer.generator == "exp":
        g, g_inv = mpmath.exp, mpmath.log
    elif outer.generator == "pow":
        p = mpmath.mpf(outer.exponent)
        g, g_inv = (lambda x: x ** p), (lambda y: y ** (1 / p))
    else:
        g = g_inv = lambda x: x
    total = (mpmath.fsum(g(mpmath.mpf(x)) for x in target)
             - mpmath.fsum(g(mpmath.mpf(x)) for x in prefix))
    return g_inv(total / fill)


def root_instances(text, seed, count):
    """``count`` (prefix, target) pairs for the outer ``text``, as the balance workload builds them.

    Power means at embedded exponent windows of vectors from (0.5, 100), one
    in ten near-constant, and from (0.5, 8) for qa[exp], whose root is
    otherwise not determined in double precision.
    """
    grid = tuple(k / 4 for k in range(-16, 17))
    high = 8.0 if text == "qa[exp]" else 100.0
    rng = random.Random(seed)
    for index in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(1, n - 1)
        beta = sorted(rng.sample(grid, n))
        alpha = [rng.choice([g for g in grid if beta[k] <= g <= beta[k + n - m]])
                 for k in range(m)]
        if index % 10 == 0:
            base = rng.uniform(0.5, high - 1e-6)
            v = tuple(base + 1e-7 * rng.random() for _ in range(3))
        else:
            v = tuple(rng.uniform(0.5, high) for _ in range(rng.randint(2, 4)))
        yield tuple(power_mean(a, v) for a in alpha), tuple(power_mean(b, v) for b in beta)


def worst_root_error(text, seed, count):
    """The worst relative error of ``solve_scalar``'s root over :func:`root_instances`."""
    outer = parse_outer(text)
    worst = 0.0
    with mpmath.workdps(DPS):
        for prefix, target in root_instances(text, seed, count):
            want = balance_root(outer, prefix, target)
            worst = max(worst, float(abs(solve_scalar(outer, prefix, target).root - want) / want))
    return worst


def measure():
    """The ledger's rows: name -> worst relative error."""
    rows = {}
    with mpmath.workdps(DPS):
        for order in POWER_ORDERS:
            worst = 0.0
            for v in power_vectors(f"accuracy:P[{order}]", POWER_VECTORS):
                want = exact_power_mean(order, v)
                worst = max(worst, float(abs(power_mean(order, v) - want) / want))
            rows[f"power_mean P[{order:g}]"] = worst
    for text in SOLVE_OUTERS:
        rows[f"solve_scalar {text}"] = worst_root_error(text, f"accuracy:{text}", ROOTS)
    return rows


def main():
    rows = measure()
    LEDGER.write_text(json.dumps({"dps": DPS, "factor": FACTOR, "rows": rows}, indent=1) + "\n",
                      encoding="utf-8")
    width = max(map(len, rows))
    for name, worst in rows.items():
        print(f"{name:<{width}}  {worst:.2e}")


if __name__ == "__main__":
    main()
