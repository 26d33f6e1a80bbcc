"""Seeded property suites behind ``meanforge check``.

Each property runs on deterministically seeded samples and returns one
JSON-friendly record ``{kind, input, output, residual?, witness?}``; a fixed
seed therefore reproduces byte-identical output.  The suites cover the
ordering laws (duality, reflexivity/transitivity, the permutation
characterization, monotone transport), the mean/outer invariants, the scalar
solver contract with its closed-form oracles, and the invariant-mean
identities.

A property is added as one function ``prop(rng, samples, seed)`` under
``@_check(kind, stream)``: the kind's prefix names its suite, ``rng`` is
seeded by ``seed`` and the stream name, and the function returns its PASS
residual (or None) or raises ``_Fail(residual, witness)``.

The pair/instance constructors double as test fixtures: they build vector
pairs with a *known* ordering relation (pointwise domination after sorting
implies ordered majorization; selecting a sub-multiset implies embedding;
window draws between sorted entries imply embedding), so the predicates
under test are exercised against ground truth established independently of
their own code path.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional, Sequence

from .ordering import (
    is_embedded,
    is_ordered_majorized,
    is_ordered_minorized,
    map_vector,
    sort_ascending,
    sort_descending,
)
from .means import (
    BetaMean,
    DerivedMean,
    GeneralizedBetaMean,
    MeanOuter,
    OuterFn,
    PowerMean,
    Product,
    Sum,
    beta_mean,
    check_mean_property,
    eval_mean,
    eval_outer,
    power_mean,
)
from .implicit import (
    DEFAULT_TOL,
    compare_implicit_means,
    implicit_mean,
    power_mean_embedded,
    solve_scalar,
)
from .invariance import (
    complementary_mean,
    gauss_iterate,
    invariant_mean,
    verify_invariance,
)
from .sampling import SamplePlan, sample_vectors

__all__ = [
    "SUITE_NAMES",
    "run_suite",
    "majorized_pair",
    "embedded_pair",
    "embedded_exponents",
    "comparability_quadruple",
    "solver_instances",
    "closed_form_sum_mean",
    "closed_form_prod_mean",
    "EXAMPLE_SMALL",
    "EXAMPLE_BIG",
]

SUITE_NAMES = ("vectors", "means", "pexider", "invariance")

# The worked four-versus-two power-mean family used by the oracle checks.
EXAMPLE_SMALL = (PowerMean(0), PowerMean(2))
EXAMPLE_BIG = (PowerMean(-2), PowerMean(-1), PowerMean(1), PowerMean(3))


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


class _Fail(Exception):
    """Raised by a property: its record reads FAIL with this residual and witness."""

    def __init__(self, residual: Optional[float] = None, witness: Optional[dict] = None):
        self.residual, self.witness = residual, witness


def _agree(worst: float, got: float, want: float, tol: float, witness: dict) -> float:
    """``max(worst, gap)`` for the relative gap of ``got`` to ``want``; past ``tol``, FAIL."""
    gap = abs(got - want) / abs(want)
    if gap > tol:
        raise _Fail(residual=gap, witness=witness)
    return max(worst, gap)


# suite name -> its (kind, stream, property) triples in registration order
_SUITES: dict[str, list] = {name: [] for name in SUITE_NAMES}


def _check(kind: str, stream: str = ""):
    """File a property under the suite named by ``kind``'s prefix, in source order."""
    def register(prop):
        _SUITES[kind.split(".")[0]].append((kind, stream, prop))
        return prop
    return register


# ---------------------------------------------------------------------------
# constructors for pairs with known ordering relations
# ---------------------------------------------------------------------------

# Ranges of the constructed vector entries and exponents.
_PAIR_LOW, _PAIR_HIGH, _EXPONENT_SPAN = 0.5, 100.0, 3.0


def _uniform_vector(rng: random.Random, n: int, lo: float, hi: float) -> tuple[float, ...]:
    return tuple(rng.uniform(lo, hi) for _ in range(n))


def majorized_pair(rng: random.Random, m: int, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A pair (v, w) with v ordered majorized by w, for any lengths m, n.

    For m <= n, v is built pointwise below the m largest entries of w; for
    m > n, the n smallest entries of v are built pointwise below the sorted
    w and the remaining entries are free (extra entries only lower each k-th
    smallest value).
    """
    w = list(_uniform_vector(rng, n, _PAIR_LOW, _PAIR_HIGH))
    if m <= n:
        top = sorted(w, reverse=True)[:m]
        v = [x - rng.random() * (x - _PAIR_LOW) for x in top]
    else:
        base = [x - rng.random() * (x - _PAIR_LOW) for x in sorted(w)]
        v = base + [rng.uniform(_PAIR_LOW, _PAIR_HIGH) for _ in range(m - n)]
    rng.shuffle(v)
    rng.shuffle(w)
    return tuple(v), tuple(w)


def embedded_pair(rng: random.Random, m: int, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A pair (v, w), len(v)=m <= len(w)=n, with v a sub-multiset of w (so v embedded)."""
    w = list(_uniform_vector(rng, n, _PAIR_LOW, _PAIR_HIGH))
    asc = sorted(w)
    v = [asc[i] for i in sorted(rng.sample(range(n), m))]
    rng.shuffle(v)
    rng.shuffle(w)
    return tuple(v), tuple(w)


def embedded_exponents(rng: random.Random, m: int, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Exponent vectors (alpha, beta) with alpha embedded in beta.

    Each alpha_k is drawn inside the window [beta_k, beta_{k+n-m}] of the
    ascending beta; any such draw is embedded as a multiset.
    """
    beta = sorted(rng.uniform(-_EXPONENT_SPAN, _EXPONENT_SPAN) for _ in range(n))
    alpha = [beta[k] + rng.random() * (beta[k + n - m] - beta[k])
             for k in range(m)]
    rng.shuffle(alpha)
    return tuple(alpha), tuple(beta)


def comparability_quadruple(rng: random.Random, m: int, n: int):
    """Exponent families (sigma, beta, sigma_star, beta_star) for the comparability law.

    Construction guarantees: beta_star pointwise below beta (so ordered
    majorized), sigma_star a sub-multiset of beta_star (embedded), sigma
    pointwise below sigma_star but still inside its beta windows (embedded in
    beta, and ordered majorized by sigma_star).
    """
    beta = sorted(rng.uniform(-_EXPONENT_SPAN, _EXPONENT_SPAN) for _ in range(n))
    idx = sorted(rng.sample(range(n), m))
    gaps = [beta[i] - beta[k] for k, i in enumerate(idx)]
    drop_family = [rng.random() * g / 2 for g in gaps]
    drop_prefix = [rng.random() * g / 2 for g in gaps]
    beta_star = list(beta)
    for k, i in enumerate(idx):
        beta_star[i] = beta[i] - drop_family[k]
    for j in range(n):
        if j not in idx:
            beta_star[j] -= rng.random() * 0.5
    sigma_star = [beta[i] - drop_family[k] for k, i in enumerate(idx)]
    sigma = [sigma_star[k] - drop_prefix[k] for k in range(m)]
    return tuple(sigma), tuple(beta), tuple(sigma_star), tuple(beta_star)


_SOLVER_OUTERS: tuple[OuterFn, ...] = (Sum(), Product(), Sum("pow", 3))
_SOLVER_ARITIES = (2, 3, 5)


def solver_instances(seed: int, count: int) -> Iterator[tuple]:
    """Admissible solver instances (outer, alpha, beta, v), embedding certified.

    The power-mean prefix family with exponents ``alpha`` is embedded in the
    family with exponents ``beta`` by the exponent rule, so the balance
    equation is solvable at every positive v.  One instance in ten uses a
    near-constant v to hit the degenerate-bracket path.
    """
    rng = _rng(seed, "solver-instances")
    for index in range(count):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        alpha, beta = embedded_exponents(rng, m, n)
        k = rng.choice(_SOLVER_ARITIES)
        if index % 10 == 0:
            base = rng.uniform(0.5, 99.0)
            v = tuple(base + 1e-7 * rng.random() for _ in range(k))
        else:
            v = tuple(rng.uniform(0.5, 100.0) for _ in range(k))
        outer = _SOLVER_OUTERS[index % len(_SOLVER_OUTERS)]
        yield outer, alpha, beta, v


def closed_form_sum_mean(v: Sequence[float]) -> float:
    """Oracle for the worked example under the sum outer: (sum of the four
    target power means minus the two prefix ones) / 2."""
    p = {s: power_mean(s, v) for s in (-2, -1, 0, 1, 2, 3)}
    return (p[-2] + p[-1] + p[1] + p[3] - p[0] - p[2]) / 2.0


def closed_form_prod_mean(v: Sequence[float]) -> float:
    """Oracle for the worked example under the product outer:
    sqrt(product of the four target power means / product of the prefix ones)."""
    p = {s: power_mean(s, v) for s in (-2, -1, 0, 1, 2, 3)}
    return math.sqrt(p[-2] * p[-1] * p[1] * p[3] / (p[0] * p[2]))


# ---------------------------------------------------------------------------
# vectors suite
# ---------------------------------------------------------------------------

@_check("vectors.duality", "duality")
def _vectors_duality(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for _ in range(samples):
        n = rng.randint(2, 6)
        v = _uniform_vector(rng, n, -100.0, 100.0)
        w = _uniform_vector(rng, n, -100.0, 100.0)
        if is_ordered_majorized(v, w).holds != is_ordered_minorized(w, v).holds:
            raise _Fail(witness={"v": list(v), "w": list(w)})


@_check("vectors.reflexivity_transitivity", "reflexive-transitive")
def _vectors_reflexive_transitive(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for _ in range(samples):
        n = rng.randint(2, 6)
        u = _uniform_vector(rng, n, -100.0, 100.0)
        if not (is_ordered_majorized(u, u).holds and is_ordered_minorized(u, u).holds):
            raise _Fail(witness={"v": list(u)})
        # chain u <= v <= w pointwise, shuffled: ordered majorization must chain
        v = tuple(x + rng.uniform(0.0, 10.0) for x in u)
        w = tuple(x + rng.uniform(0.0, 10.0) for x in v)
        v = tuple(sorted(v, key=lambda _: rng.random()))
        w = tuple(sorted(w, key=lambda _: rng.random()))
        if not (is_ordered_majorized(u, v).holds and is_ordered_majorized(v, w).holds
                and is_ordered_majorized(u, w).holds):
            raise _Fail(witness={"u": list(u), "v": list(v), "w": list(w)})


@_check("vectors.permutation_characterization", "permutation")
def _vectors_permutation(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for index in range(samples):
        n = rng.randint(1, 6)
        v = _uniform_vector(rng, n, -100.0, 100.0)
        if index % 2 == 0:
            w = list(v)
            rng.shuffle(w)
            w = tuple(w)
        else:
            w = _uniform_vector(rng, n, -100.0, 100.0)
        expected = sort_ascending(v) == sort_ascending(w)
        if is_embedded(v, w).embedded != expected:
            raise _Fail(witness={"v": list(v), "w": list(w)})


_COMPARISON_OUTERS: tuple[OuterFn, ...] = (
    Sum(), Product(), Sum("pow", 2), Sum("log"),
    MeanOuter(PowerMean(2)))


@_check("vectors.monotone_comparison", "monotone-comparison")
def _vectors_monotone_comparison(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    per_outer = max(1, samples // len(_COMPARISON_OUTERS))
    for outer in _COMPARISON_OUTERS:
        for _ in range(per_outer):
            n = rng.randint(2, 6)
            v, w = majorized_pair(rng, n, n)
            a, b = eval_outer(outer, v), eval_outer(outer, w)
            if a > b + 1e-9 * max(1.0, abs(b)):
                raise _Fail(witness={
                    "outer": str(outer), "v": list(v), "w": list(w),
                    "value_v": a, "value_w": b})


_TRANSPORT_FUNCTIONS = (
    ("square", lambda x: x * x, True),
    ("log", math.log, True),
    ("negate", lambda x: -x, False),
    ("reciprocal", lambda x: 1.0 / x, False),
)


@_check("vectors.monotone_transport", "monotone-transport")
def _vectors_monotone_transport(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    per_fn = max(1, samples // len(_TRANSPORT_FUNCTIONS))
    for name, fn, nondecreasing in _TRANSPORT_FUNCTIONS:
        for _ in range(per_fn):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            v, w = majorized_pair(rng, m, n)
            fv, fw = map_vector(fn, v), map_vector(fn, w)
            ok = (is_ordered_majorized(fv, fw).holds if nondecreasing
                  else is_ordered_majorized(fw, fv).holds)
            if not ok:
                raise _Fail(witness={
                    "function": name, "v": list(v), "w": list(w)})
            lo, hi = sorted((m, n))
            ev, ew = embedded_pair(rng, lo, hi)
            if not is_embedded(map_vector(fn, ev), map_vector(fn, ew)).embedded:
                raise _Fail(witness={
                    "function": name, "v": list(ev), "w": list(ew),
                    "relation": "embedding"})


@_check("vectors.sort_permutation", "sorting")
def _vectors_sorting(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for _ in range(samples):
        n = rng.randint(1, 8)
        v = tuple(rng.choice([rng.uniform(-5, 5), rng.randint(-3, 3)])
                  for _ in range(n))
        asc = sort_ascending(v)
        if sorted(v) != list(asc) or sort_descending(v) != tuple(reversed(asc)):
            raise _Fail(witness={"v": list(v)})


# ---------------------------------------------------------------------------
# means suite
# ---------------------------------------------------------------------------

@_check("means.mean_property")
def _means_mean_property(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for mean, arity in ((PowerMean(3), 2), (PowerMean(-2), 3), (BetaMean(), 3)):
        plan = SamplePlan(arity=arity, count=samples, seed=seed, lower=0.0, upper=10.0)
        report = check_mean_property(mean, plan)
        if not report.passed:
            raise _Fail(witness=report.counterexample)
    # a non-mean must be caught
    pair_sum = DerivedMean(name="pair_sum", fn=lambda sv: sv[0] + sv[1], arity=2)
    caught = check_mean_property(pair_sum, SamplePlan(arity=2, count=samples, seed=seed,
                                                      lower=0.0, upper=10.0))
    if caught.passed:
        raise _Fail(witness={"detail": "sum of two entries passed as a mean"})


@_check("means.power_order_monotonicity", "order-monotonicity")
def _means_order_monotonicity(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for _ in range(samples):
        s, t = sorted((rng.uniform(-6, 6), rng.uniform(-6, 6)))
        v = _uniform_vector(rng, rng.randint(2, 5), 0.01, 100.0)
        a, b = power_mean(s, v), power_mean(t, v)
        if a > b + 1e-12 * max(1.0, abs(b)):
            raise _Fail(witness={
                "s": s, "t": t, "vector": list(v), "lower": a, "upper": b})


@_check("means.geometric_continuity", "geometric-continuity")
def _means_geometric_continuity(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    worst = 0.0
    for _ in range(samples):
        v = _uniform_vector(rng, rng.randint(2, 5), 0.01, 100.0)
        g = power_mean(0.0, v)
        for s in (1e-6, -1e-6):
            worst = _agree(worst, power_mean(s, v), g, 1e-4, {"order": s, "vector": list(v)})
    return worst


@_check("means.beta_harmonic_identity", "beta-harmonic")
def _means_beta_harmonic(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    worst = 0.0
    for _ in range(samples):
        v = _uniform_vector(rng, 2, 0.01, 100.0)
        worst = _agree(worst, beta_mean(v), power_mean(-1.0, v), 1e-12, {"vector": list(v)})
    return worst


@_check("means.outer_strict_monotonicity", "outer-strictness")
def _means_outer_strictness(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    per_outer = max(1, samples // len(_COMPARISON_OUTERS))
    for outer in _COMPARISON_OUTERS:
        for _ in range(per_outer):
            n = rng.randint(2, 5)
            v = list(_uniform_vector(rng, n, 0.5, 100.0))
            base = eval_outer(outer, v)
            i = rng.randrange(n)
            v[i] += max(1e-3, 1e-3 * v[i])
            if not eval_outer(outer, v) > base:
                raise _Fail(witness={
                    "outer": str(outer), "vector": list(v), "coordinate": i})


@_check("means.permutation_symmetry", "symmetry")
def _means_symmetry(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    subjects = [PowerMean(2.5), PowerMean(-1.5), PowerMean(0), BetaMean()]
    for _ in range(samples):
        n = rng.randint(2, 6)
        v = _uniform_vector(rng, n, 0.01, 100.0)
        p = list(v)
        rng.shuffle(p)
        for mean in subjects:
            if eval_mean(mean, v) != eval_mean(mean, p):
                raise _Fail(witness={
                    "mean": str(mean), "v": list(v), "permuted": p})
        for outer in _COMPARISON_OUTERS:
            if eval_outer(outer, v) != eval_outer(outer, p):
                raise _Fail(witness={
                    "outer": str(outer), "v": list(v), "permuted": p})


# ---------------------------------------------------------------------------
# pexider suite (scalar solver and implicit means)
# ---------------------------------------------------------------------------

@_check("pexider.solver_contract")
def _pexider_solver_contract(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    worst = 0.0
    for outer, alpha, beta, v in solver_instances(seed, samples):
        if not power_mean_embedded(alpha, beta):
            raise _Fail(witness={"detail": "instance generator broke certification",
                                 "alpha": list(alpha), "beta": list(beta)})
        prefix = tuple(power_mean(a, v) for a in alpha)
        target = tuple(power_mean(b, v) for b in beta)
        result = solve_scalar(outer, prefix, target)
        goal = eval_outer(outer, target)
        rel = result.residual / max(1.0, abs(goal))
        worst = max(worst, rel)
        lo, hi = result.bracket
        if result.status != "converged" or not lo <= result.root <= hi or rel > 1e-10:
            raise _Fail(residual=rel, witness={
                "outer": str(outer), "alpha": list(alpha), "beta": list(beta),
                "vector": list(v), "root": result.root, "bracket": [lo, hi],
                "status": result.status})
    return worst


@_check("pexider.root_strict_separation")
def _pexider_strict_separation(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for outer, alpha, beta, v in solver_instances(seed + 1, samples):
        prefix = tuple(power_mean(a, v) for a in alpha)
        target = tuple(power_mean(b, v) for b in beta)
        result = solve_scalar(outer, prefix, target)
        lo, hi = result.bracket
        delta = 10.0 * DEFAULT_TOL * max(abs(lo), abs(hi))
        if result.root - delta <= 0.0:
            continue  # probe would leave the positive domain
        fill = len(beta) - len(alpha)
        goal = eval_outer(outer, target)
        below = eval_outer(outer, prefix + (result.root - delta,) * fill)
        above = eval_outer(outer, prefix + (result.root + delta,) * fill)
        if not below < goal < above:
            raise _Fail(witness={
                "outer": str(outer), "vector": list(v), "root": result.root,
                "below": below, "goal": goal, "above": above})


@_check("pexider.implicit_mean_property", "implicit-mean-property")
def _pexider_mean_property(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for outer in (Sum(), Product()):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, outer)
        plan = SamplePlan(arity=rng.choice((2, 3, 5)), count=max(1, samples // 2),
                          seed=seed)
        for v in sample_vectors(plan):
            value = eval_mean(derived, v)
            targets = [eval_mean(b, v) for b in EXAMPLE_BIG]
            if not min(targets) <= value <= max(targets):
                raise _Fail(witness={
                    "outer": str(outer), "vector": list(v), "value": value,
                    "targets": targets})


@_check("pexider.implicit_symmetry", "implicit-symmetry")
def _pexider_symmetry(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Sum())
    for _ in range(max(1, samples // 2)):
        v = _uniform_vector(rng, rng.randint(2, 5), 0.5, 100.0)
        p = list(v)
        rng.shuffle(p)
        if eval_mean(derived, v) != eval_mean(derived, p):
            raise _Fail(witness={"v": list(v), "permuted": p})


@_check("pexider.closed_form_oracles")
def _pexider_oracles(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    worst = 0.0
    cases = ((Sum(), closed_form_sum_mean), (Product(), closed_form_prod_mean))
    for arity in (2, 3, 5):
        plan = SamplePlan(arity=arity, count=max(1, samples // 3), seed=seed)
        for outer, oracle in cases:
            derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, outer)
            for v in sample_vectors(plan):
                got, want = eval_mean(derived, v), oracle(v)
                worst = _agree(worst, got, want, 1e-9, {
                    "outer": str(outer), "vector": list(v), "solver": got, "oracle": want})
    return worst


@_check("pexider.power_mean_sandwich")
def _pexider_sandwich(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for outer in (Sum(), Product()):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, outer)
        plan = SamplePlan(arity=3, count=max(1, samples // 2), seed=seed)
        for v in sample_vectors(plan):
            value = eval_mean(derived, v)
            lo, hi = power_mean(-2, v), power_mean(3, v)
            slack = 1e-12 * max(1.0, abs(hi))
            if not lo - slack <= value <= hi + slack:
                raise _Fail(witness={
                    "outer": str(outer), "vector": list(v), "value": value,
                    "low": lo, "high": hi})


@_check("pexider.beta_identity")
def _pexider_beta_identity(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    outer = MeanOuter(PowerMean(0))
    worst = 0.0
    derived = GeneralizedBetaMean(PowerMean(1), outer)
    for arity in (2, 3, 4, 6):
        plan = SamplePlan(arity=arity, count=max(1, samples // 4), seed=seed)
        for v in sample_vectors(plan):
            got, want = eval_mean(derived, v), beta_mean(v)
            worst = _agree(worst, got, want, 1e-10, {
                "arity": arity, "vector": list(v), "solver": got, "direct": want})
    return worst


@_check("pexider.comparability", "comparability")
def _pexider_comparability(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    pairs = max(1, samples // 10)
    for _ in range(pairs):
        n = rng.randint(2, 4)
        m = rng.randint(1, n - 1)
        sigma, beta, sigma_star, beta_star = comparability_quadruple(rng, m, n)
        small = tuple(PowerMean(s) for s in sigma)
        big = tuple(PowerMean(b) for b in beta)
        small_star = tuple(PowerMean(s) for s in sigma_star)
        big_star = tuple(PowerMean(b) for b in beta_star)
        plan = SamplePlan(arity=rng.choice((2, 3)), count=5,
                          seed=rng.randrange(2 ** 32))
        for outer in (Sum(), Product()):
            report = compare_implicit_means(small, big, small_star, big_star,
                                            outer, plan)
            if not report.passed:
                raise _Fail(witness={
                    "outer": str(outer), "sigma": list(sigma), "beta": list(beta),
                    "sigma_star": list(sigma_star), "beta_star": list(beta_star),
                    "counterexample": report.counterexample})


# ---------------------------------------------------------------------------
# invariance suite
# ---------------------------------------------------------------------------

@_check("invariance.arithmetic_harmonic_geometric")
def _invariance_geometric(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    compound = invariant_mean((PowerMean(1), PowerMean(-1)))
    plan = SamplePlan(arity=2, count=samples, seed=seed)
    worst = 0.0
    for v in sample_vectors(plan):
        got, want = eval_mean(compound, v), power_mean(0.0, v)
        worst = _agree(worst, got, want, 1e-10, {
            "vector": list(v), "limit": got, "geometric": want})
    return worst


@_check("invariance.complementary_residual", "complementary")
def _invariance_complementary(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    families = 4
    per_family = max(1, samples // families)
    for _ in range(families):
        n = rng.randint(2, 3)
        family = tuple(PowerMean(round(rng.uniform(-3, 3), 3)) for _ in range(n))
        m = rng.randint(1, n - 1)
        asc = sorted(p.order for p in family)
        small = tuple(PowerMean(asc[i]) for i in sorted(rng.sample(range(n), m)))
        complement = complementary_mean(small, family)
        invariant = invariant_mean(family)
        extended = small + (complement,) * (n - m)
        plan = SamplePlan(arity=n, count=per_family, seed=rng.randrange(2 ** 32))
        report = verify_invariance(invariant, extended, plan, tol=1e-8)
        if not report.passed:
            raise _Fail(residual=report.max_residual,
                        witness=report.counterexample)


@_check("invariance.limit_within_range", "limit-range")
def _invariance_limit_range(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    for _ in range(samples):
        n = rng.randint(2, 4)
        family = tuple(PowerMean(rng.uniform(-4, 4)) for _ in range(n))
        v = _uniform_vector(rng, n, 0.01, 100.0)
        trace = gauss_iterate(family, v)
        slack = 1e-12 * max(1.0, max(v))
        if not (trace.converged and min(v) - slack <= trace.limit <= max(v) + slack):
            raise _Fail(witness={
                "family": [str(f) for f in family], "vector": list(v),
                "limit": trace.limit, "converged": trace.converged})


@_check("invariance.limit_symmetry", "iteration-symmetry")
def _invariance_symmetry(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    compound = invariant_mean((PowerMean(1), PowerMean(0)))
    for _ in range(samples):
        v = _uniform_vector(rng, 2, 0.01, 100.0)
        p = tuple(reversed(v))
        if eval_mean(compound, v) != eval_mean(compound, p):
            raise _Fail(witness={"v": list(v)})


@_check("invariance.power_pair_convergence", "pair-convergence")
def _invariance_convergence(rng: random.Random, samples: int, seed: int) -> Optional[float]:
    worst = 0
    for _ in range(samples):
        s, t = rng.uniform(-5, 5), rng.uniform(-5, 5)
        v = _uniform_vector(rng, 2, 0.01, 100.0)
        trace = gauss_iterate((PowerMean(s), PowerMean(t)), v)
        worst = max(worst, trace.iterations)
        if not trace.converged or trace.iterations > 200:
            raise _Fail(witness={
                "orders": [s, t], "vector": list(v),
                "iterations": trace.iterations})
    return float(worst)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_suite(suite: str, samples: int = 200, seed: int = 0) -> list[dict]:
    """Run one named suite (or ``all``); records come back in a fixed order."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join(SUITE_NAMES)} or all")
    records = []
    for name in names:
        for kind, stream, prop in _SUITES[name]:
            record = {"kind": kind, "input": {"samples": samples, "seed": seed}}
            try:
                residual = prop(_rng(seed, stream), samples, seed)
                witness, record["output"] = None, "PASS"
            except _Fail as fail:
                residual, witness, record["output"] = fail.residual, fail.witness, "FAIL"
            if residual is not None:
                record["residual"] = residual
            if witness is not None:
                record["witness"] = witness
            records.append(record)
    return records
