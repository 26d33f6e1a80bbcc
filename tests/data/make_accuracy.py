"""Record ``accuracy.json``: the worst relative error of each layer against mpmath.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_accuracy.py

Each row is the worst ``|value - exact| / exact`` over seeded inputs, with the
exact value from mpmath at ``DPS`` digits:

* ``power_mean P[s]`` at s = 1, -1, 0 and 2.5, and ``beta_mean``, each per
  input class of :func:`power_vectors`: ``ordinary`` (1-8 entries log-uniform
  in (1e-3, 1e3); 2-8 for ``beta_mean``), ``near-constant`` (one in ten) and
  ``wide`` (one in ten, spanning (1e-300, 1e300));
* ``solve_scalar <outer>``, the root of the balance equation for each outer
  kind, over the instances of :func:`root_instances`.

The wide rows (``"wide"``) judge the solver on :func:`wide_instances`, with the
exact root at ``WIDE_DPS`` digits (at 50 some exact roots cancel to 0).  Per
outer kind but ``qa[exp]`` (whose root over such vectors is not determined in
double precision) they record the worst relative error among converged roots,
and how many solves ended in max-iterations, were refused with a
``MeanForgeError``, or converged to a root off by more than ``OFF``.

``tests/test_implicit.py::TestAccuracyLedger`` recomputes every row and fails
when one is worse than recorded: an error by more than ``FACTOR``, which absorbs
libm differences between platforms, or a count that rises.  Re-record only with
this script, and give the table before and after in CHANGES.md.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import mpmath

from meanforge import MeanForgeError, MeanOuter, Product, beta_mean, power_mean, solve_scalar
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
BETA_VECTORS = 3000
CLASSES = ("ordinary", "near-constant", "wide")
ROOTS = 200
WIDE_OUTERS = tuple(t for t in SOLVE_OUTERS if t != "qa[exp]")
WIDE_ROOTS = 300
WIDE_DPS = 700
OFF = 1e-11


def exact_power_mean(order, v):
    """The order-``order`` power mean of ``v`` at the working precision."""
    xs = [mpmath.mpf(x) for x in v]
    if order == 0:
        return mpmath.exp(mpmath.fsum(map(mpmath.log, xs)) / len(xs))
    s = mpmath.mpf(order)
    return (mpmath.fsum(x ** s for x in xs) / len(xs)) ** (1 / s)


def exact_beta_mean(v):
    """The Beta-type mean of ``v`` at the working precision."""
    xs = [mpmath.mpf(x) for x in v]
    k = len(xs)
    return (k * mpmath.fprod(xs) / mpmath.fsum(xs)) ** (mpmath.mpf(1) / (k - 1))


def power_vectors(seed, count, shortest=1):
    """``count`` (class, vector) pairs of ``shortest``-8 entries; one in ten near-constant, one in ten wide."""
    rng = random.Random(seed)
    for index in range(count):
        n = rng.randint(shortest, 8)
        if index % 10 == 0:
            base = 10 ** rng.uniform(-3, 3)
            yield "near-constant", tuple(base * (1 + 1e-9 * rng.random()) for _ in range(n))
        elif index % 10 == 1:
            yield "wide", tuple(10 ** rng.uniform(-300, 300) for _ in range(n))
        else:
            yield "ordinary", tuple(10 ** rng.uniform(-3, 3) for _ in range(n))


def worst_by_class(evaluate, exact, vectors):
    """The worst relative error of ``evaluate`` against ``exact`` in each input class."""
    worst = dict.fromkeys(CLASSES, 0.0)
    for kind, v in vectors:
        want = exact(v)
        worst[kind] = max(worst[kind], float(abs(evaluate(v) - want) / want))
    return worst


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
    high = 8.0 if text == "qa[exp]" else 100.0
    rng = random.Random(seed)
    for index in range(count):
        alpha, beta = _exponents(rng)
        if index % 10 == 0:
            base = rng.uniform(0.5, high - 1e-6)
            v = tuple(base + 1e-7 * rng.random() for _ in range(3))
        else:
            v = tuple(rng.uniform(0.5, high) for _ in range(rng.randint(2, 4)))
        yield tuple(power_mean(a, v) for a in alpha), tuple(power_mean(b, v) for b in beta)


def wide_instances(seed, count):
    """``count`` (prefix, target) pairs as in :func:`root_instances`, v log-uniform in 1e±150."""
    rng = random.Random(seed)
    for _ in range(count):
        alpha, beta = _exponents(rng)
        v = tuple(10 ** rng.uniform(-150, 150) for _ in range(rng.randint(2, 4)))
        yield tuple(power_mean(a, v) for a in alpha), tuple(power_mean(b, v) for b in beta)


def _exponents(rng):
    """Exponents (alpha, beta) of power families S and M with S embedded in M, m < n <= 6."""
    grid = tuple(k / 4 for k in range(-16, 17))
    n = rng.randint(2, 6)
    m = rng.randint(1, n - 1)
    beta = sorted(rng.sample(grid, n))
    alpha = [rng.choice([g for g in grid if beta[k] <= g <= beta[k + n - m]])
             for k in range(m)]
    return alpha, beta


def worst_root_error(text, seed, count):
    """The worst relative error of ``solve_scalar``'s root over :func:`root_instances`."""
    outer = parse_outer(text)
    worst = 0.0
    with mpmath.workdps(DPS):
        for prefix, target in root_instances(text, seed, count):
            want = balance_root(outer, prefix, target)
            worst = max(worst, float(abs(solve_scalar(outer, prefix, target).root - want) / want))
    return worst


def wide_row(text, seed, count):
    """The wide row of the outer ``text`` over :func:`wide_instances` (see the module docstring)."""
    outer = parse_outer(text)
    row = {"worst": 0.0, "max_iterations": 0, "refused": 0, "off": 0}
    with mpmath.workdps(WIDE_DPS):
        for prefix, target in wide_instances(seed, count):
            try:
                result = solve_scalar(outer, prefix, target)
            except MeanForgeError:
                row["refused"] += 1
                continue
            if result.status != "converged":
                row["max_iterations"] += 1
                continue
            want = balance_root(outer, prefix, target)
            error = float(abs(result.root - want) / want)
            row["worst"] = max(row["worst"], error)
            row["off"] += error > OFF
    return row


def measure():
    """The ledger's rows: name -> worst relative error, or class -> worst relative error."""
    rows = {}
    with mpmath.workdps(DPS):
        for order in POWER_ORDERS:
            rows[f"power_mean P[{order:g}]"] = worst_by_class(
                lambda v: power_mean(order, v), lambda v: exact_power_mean(order, v),
                power_vectors(f"accuracy:P[{order}]", POWER_VECTORS))
        rows["beta_mean"] = worst_by_class(
            beta_mean, exact_beta_mean, power_vectors("accuracy:B", BETA_VECTORS, 2))
    for text in SOLVE_OUTERS:
        rows[f"solve_scalar {text}"] = worst_root_error(text, f"accuracy:{text}", ROOTS)
    return rows


def measure_wide():
    """The ledger's wide rows: name -> {worst, max_iterations, refused, off}."""
    return {f"solve_scalar {text}": wide_row(text, f"wide:{text}", WIDE_ROOTS)
            for text in WIDE_OUTERS}


def main():
    rows, wide = measure(), measure_wide()
    LEDGER.write_text(json.dumps({"dps": DPS, "factor": FACTOR, "rows": rows,
                                  "wide_dps": WIDE_DPS, "wide": wide}, indent=1) + "\n",
                      encoding="utf-8")
    width = max(map(len, rows))
    print(f"{'':<{width}}  " + "  ".join(f"{kind:>13}" for kind in CLASSES))
    for name, worst in rows.items():
        cells = [worst[kind] for kind in CLASSES] if isinstance(worst, dict) else [worst]
        print(f"{name:<{width}}  " + "  ".join(f"{cell:13.2e}" for cell in cells))
    print(f"\nwide ({WIDE_ROOTS} per outer)  worst  max-iterations  refused  off > {OFF:g}")
    for name, row in wide.items():
        print(f"{name:<{width}}  {row['worst']:.2e}  {row['max_iterations']:3d}  "
              f"{row['refused']:3d}  {row['off']:3d}")


if __name__ == "__main__":
    main()
