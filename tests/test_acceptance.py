"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Sample counts and tolerances here are contractual; do not loosen
them to make a failing build green.
"""

import math
import random
import subprocess
import sys
import time

from meanforge import (
    BetaMean,
    GeneralizedBetaMean,
    MeanForgeError,
    MeanOuter,
    PowerMean,
    ProblemSpec,
    Product,
    SamplePlan,
    Sum,
    beta_mean,
    compare_implicit_means,
    eval_mean,
    eval_outer,
    format_expr,
    gauss_iterate,
    implicit_mean,
    invariant_mean,
    is_embedded,
    is_ordered_majorized,
    is_ordered_minorized,
    map_vector,
    parse,
    power_mean,
    power_mean_embedded,
    solve_scalar,
    verify_invariance,
)
from meanforge.checks import (
    EXAMPLE_BIG,
    EXAMPLE_SMALL,
    closed_form_prod_mean,
    closed_form_sum_mean,
    comparability_quadruple,
    majorized_pair,
    solver_instances,
)


def _passed(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d}: PASS  {detail}")


def test_criterion_01_worked_ordering_examples():
    def trio():
        a = (is_ordered_minorized((3, 15), (5, 0, 10)),
             is_ordered_majorized((3, 15), (5, 0, 10)))
        b = is_embedded((3, 8), (5, 0, 10))
        c = (is_ordered_minorized((5, 6, 7), (2, 4, 6, 8)),
             is_ordered_majorized((5, 6, 7), (2, 4, 6, 8)))
        return a, b, c

    trio()  # warm up
    start = time.perf_counter()
    (min_a, maj_a), emb_b, (min_c, maj_c) = trio()
    elapsed = time.perf_counter() - start

    assert min_a.holds and not maj_a.holds
    assert emb_b.embedded
    assert min_c.holds and not maj_c.holds and maj_c.witness_index == 3
    assert elapsed < 1e-3
    _passed(1, f"exact booleans, witness k=3, runtime {elapsed * 1e6:.1f} us")


def test_criterion_02_ordering_laws_bulk():
    count = 10_000
    start = time.perf_counter()
    for n in range(2, 7):
        rng = random.Random(1000 + n)
        for _ in range(count):
            v = tuple(rng.uniform(-100, 100) for _ in range(n))
            w = tuple(rng.uniform(-100, 100) for _ in range(n))
            # duality
            assert is_ordered_majorized(v, w).holds == is_ordered_minorized(w, v).holds
            # reflexivity
            assert is_ordered_majorized(v, v).holds and is_ordered_minorized(v, v).holds
            # transitivity on a constructed chain u < v' < w'
            u = v
            v2 = tuple(x + rng.uniform(0, 10) for x in u)
            w2 = tuple(x + rng.uniform(0, 10) for x in v2)
            assert is_ordered_majorized(u, v2).holds
            assert is_ordered_majorized(v2, w2).holds
            assert is_ordered_majorized(u, w2).holds
            # permutation characterization
            p = list(v)
            rng.shuffle(p)
            assert is_embedded(v, tuple(p)).embedded
            assert is_embedded(v, w).embedded == (sorted(v) == sorted(w))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"{count} pairs/triples per n in 2..6, zero failures, {elapsed:.2f} s")


def test_criterion_03_monotone_transport_bulk():
    functions = (("square", lambda x: x * x, True),
                 ("log", math.log, True),
                 ("negate", lambda x: -x, False),
                 ("reciprocal", lambda x: 1.0 / x, False))
    rng = random.Random(2024)
    count = 10_000
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        v, w = majorized_pair(rng, m, n)
        assert is_ordered_majorized(v, w).holds
        for _, fn, nondecreasing in functions:
            fv, fw = map_vector(fn, v), map_vector(fn, w)
            if nondecreasing:
                assert is_ordered_majorized(fv, fw).holds
            else:
                assert is_ordered_majorized(fw, fv).holds
    _passed(3, f"{count} ordered pairs through 4 monotone maps, zero failures")


def test_criterion_04_solver_contract_bulk():
    count = 10_000
    start = time.perf_counter()
    worst = 0.0
    for outer, alpha, beta, v in solver_instances(seed=2025, count=count):
        assert power_mean_embedded(alpha, beta)  # certified instance
        prefix = tuple(power_mean(a, v) for a in alpha)
        target = tuple(power_mean(b, v) for b in beta)
        result = solve_scalar(outer, prefix, target)
        assert result.status == "converged"
        lo, hi = result.bracket
        assert lo <= result.root <= hi
        rel = result.residual / max(1.0, abs(eval_outer(outer, target)))
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(4, f"{count} instances, worst relative residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_05_closed_form_oracles():
    worst = 0.0
    for outer, oracle in ((Sum(), closed_form_sum_mean),
                          (Product(), closed_form_prod_mean)):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, outer)
        for k in (2, 3, 5):
            rng = random.Random(9000 + k)
            for index in range(1000):
                if index % 10 == 0:
                    base = rng.uniform(0.5, 99.0)
                    v = tuple(base + 1e-7 * rng.random() for _ in range(k))
                else:
                    v = tuple(rng.uniform(1e-6, 100.0) for _ in range(k))
                value = eval_mean(derived, v)
                want = oracle(v)
                rel = abs(value - want) / abs(want)
                worst = max(worst, rel)
                assert rel <= 1e-9
                low, high = power_mean(-2, v), power_mean(3, v)
                slack = 1e-12 * max(1.0, high)  # float ties on near-constant input
                assert low - slack <= value <= high + slack
    _passed(5, f"both outers, k in 2/3/5, 1000 samples each, worst rel {worst:.2e}")


def test_criterion_06_beta_identity():
    outer = MeanOuter(PowerMean(0))
    worst = 0.0
    derived = GeneralizedBetaMean(PowerMean(1), outer)
    for k in (2, 3, 4, 6):
        rng = random.Random(6000 + k)
        for index in range(1000):
            if index % 10 == 0:
                base = rng.uniform(0.5, 99.0)
                v = tuple(base + 1e-7 * rng.random() for _ in range(k))
            else:
                v = tuple(rng.uniform(1e-6, 100.0) for _ in range(k))
            value = eval_mean(derived, v)
            want = beta_mean(v)
            rel = abs(value - want) / abs(want)
            worst = max(worst, rel)
            assert rel <= 1e-10
    _passed(6, f"k in 2/3/4/6, 1000 samples each, worst rel {worst:.2e}")


def test_criterion_07_comparability():
    rng = random.Random(7000)
    pairs = 1000
    for index in range(pairs):
        n = rng.randint(2, 4)
        m = rng.randint(1, n - 1)
        sigma, beta, sigma_star, beta_star = comparability_quadruple(rng, m, n)
        # certify the hypotheses through the exponent vectors
        assert is_ordered_majorized(beta_star, beta).holds
        assert is_ordered_majorized(sigma, sigma_star).holds
        assert power_mean_embedded(sigma, beta)
        assert power_mean_embedded(sigma_star, beta_star)
        small = tuple(PowerMean(s) for s in sigma)
        big = tuple(PowerMean(b) for b in beta)
        small_star = tuple(PowerMean(s) for s in sigma_star)
        big_star = tuple(PowerMean(b) for b in beta_star)
        plan = SamplePlan(arity=2 + index % 2, count=2, seed=rng.randrange(2 ** 32))
        for outer in (Sum(), Product()):
            report = compare_implicit_means(small, big, small_star, big_star, outer, plan)
            assert report.passed
    _passed(7, f"{pairs} certified pairs, sum and prod outers, zero violations")


def test_criterion_08_invariance():
    # (a) the invariant mean of (arithmetic, harmonic) is the geometric mean
    compound = invariant_mean((PowerMean(1), PowerMean(-1)))
    rng = random.Random(8000)
    worst = 0.0
    for _ in range(1000):
        v = (rng.uniform(1e-3, 100.0), rng.uniform(1e-3, 100.0))
        got = eval_mean(compound, v)
        want = power_mean(0, v)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-10

    # (b) complementary means satisfy the defining equation to 1e-8 relative
    from meanforge import complementary_mean
    families = ((PowerMean(1), PowerMean(-1)),
                (PowerMean(2), PowerMean(0)),
                (PowerMean(0.5), PowerMean(-0.5)),
                (PowerMean(1), PowerMean(-1), PowerMean(2)))
    per_family = 250
    for offset, family in enumerate(families):
        n = len(family)
        small = (family[0],)
        complement = complementary_mean(small, family)
        invariant = invariant_mean(family)
        extended = small + (complement,) * (n - 1)
        plan = SamplePlan(arity=n, count=per_family, seed=800 + offset)
        report = verify_invariance(invariant, extended, plan)
        assert report.passed, report.counterexample

    # (c) every power-mean pair with orders in [-5, 5] converges within 200 steps
    worst_iterations = 0
    grid = [x / 2.0 for x in range(-10, 11)]
    for s in grid:
        for t in grid:
            trace = gauss_iterate((PowerMean(s), PowerMean(t)), (0.037, 61.2))
            assert trace.converged and trace.iterations <= 200
            worst_iterations = max(worst_iterations, trace.iterations)
    rng = random.Random(8400)
    for _ in range(500):
        s, t = rng.uniform(-5, 5), rng.uniform(-5, 5)
        v = (rng.uniform(1e-3, 100.0), rng.uniform(1e-3, 100.0))
        trace = gauss_iterate((PowerMean(s), PowerMean(t)), v)
        assert trace.converged and trace.iterations <= 200
        worst_iterations = max(worst_iterations, trace.iterations)
    _passed(8, f"geometric identity worst rel {worst:.2e}; complementary "
               f"residual <= 1e-8; worst iteration count {worst_iterations}")


def _random_outer(rng, depth=0):
    r = rng.random()
    if r < 0.25:
        return Sum()
    if r < 0.5:
        return Product()
    if r < 0.7:
        return Sum("pow", round(rng.uniform(0.1, 10.0), 2))
    if r < 0.85:
        kind = rng.choice(("log", "exp", "id", "pow"))
        if kind == "pow":
            return Sum("pow", round(rng.uniform(0.1, 5.0), 2))
        return Sum(kind)
    return MeanOuter(PowerMean(round(rng.uniform(-9, 9), 2)))


def _random_mean(rng, depth=0):
    r = rng.random()
    if depth >= 2 or r < 0.55:
        return PowerMean(round(rng.uniform(-9, 9), rng.choice((0, 1, 3))))
    if r < 0.75:
        return BetaMean()
    return GeneralizedBetaMean(_random_mean(rng, depth + 1),
                               _random_outer(rng, depth + 1))


def _random_expression(rng):
    r = rng.random()
    if r < 0.4:
        return _random_mean(rng)
    if r < 0.6:
        return _random_outer(rng)
    n = rng.randint(2, 6)
    m = rng.randint(1, n - 1)
    return ProblemSpec(outer=_random_outer(rng),
                       small=tuple(_random_mean(rng, 1) for _ in range(m)),
                       big=tuple(_random_mean(rng, 1) for _ in range(n)))


def test_criterion_09_dsl_round_trip_and_totality():
    rng = random.Random(90)
    for _ in range(10_000):
        expr = _random_expression(rng)
        assert parse(format_expr(expr)) == expr

    crashes = 0
    for _ in range(100_000):
        text = rng.randbytes(rng.randint(0, 30)).decode("utf-8", errors="replace")
        try:
            parse(text)
        except MeanForgeError:
            pass
        except Exception:  # noqa: BLE001 -- totality is exactly what we test
            crashes += 1
    # near-grammar mutations reach deeper parser states than raw bytes
    seed_text = "T{mu=qa[pow[2.5]]; S=[P[0],beta{S=B; mu=sum}]; M=[P[-2],P[-1],P[1],P[3]]}"
    alphabet = seed_text + "\x00\xe9 \n\t~"
    for _ in range(20_000):
        chars = list(seed_text)
        for _ in range(rng.randint(1, 6)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        try:
            parse("".join(chars))
        except MeanForgeError:
            pass
        except Exception:  # noqa: BLE001
            crashes += 1
    assert crashes == 0
    _passed(9, "10000 spec round-trips exact; 120000 fuzz inputs, no crash")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "meanforge.cli", "check", "--suite", "all",
           "--seed", "7"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    elapsed = time.perf_counter() - start
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.splitlines()) == 25  # one record per property
    assert elapsed < 120.0
    _passed(10, f"byte-identical json-lines over two runs, {elapsed:.2f} s total")
