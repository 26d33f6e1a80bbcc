import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from meanforge import (
    ArityError,
    BetaMean,
    DerivedMean,
    DomainError,
    GeneralizedBetaMean,
    HypothesisViolation,
    InvariantMean,
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
    implicit_mean,
    power_mean,
    power_mean_embedded,
    solve_scalar,
    verify_embedding,
)
from meanforge.checks import (
    EXAMPLE_BIG,
    EXAMPLE_SMALL,
    closed_form_prod_mean,
    closed_form_sum_mean,
    comparability_quadruple,
    solver_instances,
)
from meanforge.dsl import parse_outer
from meanforge.implicit import DEFAULT_TOL, MAX_BISECTION_STEPS

# frozen from the closed forms evaluated independently of the solver
M1_AT_1_4 = 1.8738824415736874
M2_AT_1_4 = 1.7330699451428968


class TestSolveScalar:
    def test_sum_cancellation(self):
        # sum outer with prefix (w1): x must equal w2
        result = solve_scalar(Sum(), (7.0,), (7.0, 3.0))
        assert result.status == "converged"
        assert result.root == pytest.approx(3.0, rel=1e-12)

    def test_constant_target(self):
        result = solve_scalar(Sum(), (5.0, 5.0), (5.0, 5.0, 5.0))
        assert result.status == "converged"
        assert result.root == 5.0
        assert result.iterations == 0

    @pytest.mark.parametrize("shift", [1e-12, -1e-12])
    def test_constant_target_with_relaxed_prefix(self, shift):
        # the prefix is within embedding_eps of the constant target, above it
        # (the f(lo) >= goal exit) or below it (the f(hi) <= goal exit)
        prefix = (2.0 * (1.0 + shift),)
        result = solve_scalar(Sum(), prefix, (2.0, 2.0, 2.0))
        assert (result.root, result.bracket, result.residual, result.iterations,
                result.status) == (2.0, (2.0, 2.0), 2.000177801164682e-12, 0, "converged")

    def test_float_resolution_ends_the_bisection(self):
        # tol=1e-300 is below the float spacing at the root: the bracket's
        # midpoint meets an end before its width meets the tolerance
        result = solve_scalar(Sum(), (1.0,), (0.5, 2.0), tol=1e-300)
        assert (result.root, result.residual, result.iterations, result.status) == \
            (1.4999999999999996, 4.440892098500626e-16, 52, "converged")

    def test_pinned_outer_arity(self):
        outer = MeanOuter(InvariantMean((PowerMean(1), PowerMean(0))))
        with pytest.raises(ArityError, match="takes 2 values but the target has 3"):
            solve_scalar(outer, (2.0,), (1.0, 2.0, 3.0))
        with pytest.raises(ArityError, match=r"takes 2 values but len\(M\)=3"):
            ProblemSpec(outer, (PowerMean(0),), (PowerMean(-1), PowerMean(1), PowerMean(2)))
        with pytest.raises(ArityError, match="takes 2 entries, got 3"):
            eval_outer(outer, (1.0, 2.0, 3.0))

    def test_worked_example_sum(self):
        v = (1.0, 4.0)
        prefix = tuple(power_mean(s, v) for s in (0, 2))
        target = tuple(power_mean(s, v) for s in (-2, -1, 1, 3))
        result = solve_scalar(Sum(), prefix, target)
        assert result.root == pytest.approx(M1_AT_1_4, rel=1e-9)
        lo, hi = result.bracket
        assert lo <= result.root <= hi

    def test_worked_example_product(self):
        v = (1.0, 4.0)
        prefix = tuple(power_mean(s, v) for s in (0, 2))
        target = tuple(power_mean(s, v) for s in (-2, -1, 1, 3))
        result = solve_scalar(Product(), prefix, target)
        assert result.root == pytest.approx(M2_AT_1_4, rel=1e-9)

    def test_violated_embedding_raises(self):
        # prefix above max(target): no solution is guaranteed
        with pytest.raises(HypothesisViolation) as err:
            solve_scalar(Sum(), (10.0,), (1.0, 2.0))
        assert err.value.witness["majorized"] is False

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, math.inf, math.nan])
    def test_tolerance_must_lie_in_unit_interval(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            solve_scalar(Sum(), (1.0,), (0.5, 2.0), tol=tol)

    def test_prefix_must_be_shorter(self):
        with pytest.raises(ArityError):
            solve_scalar(Sum(), (1.0, 2.0), (1.0, 2.0))

    def test_residual_and_bracket_contract(self):
        worst = 0.0
        for outer, alpha, beta, v in solver_instances(seed=99, count=500):
            assert power_mean_embedded(alpha, beta)
            prefix = tuple(power_mean(a, v) for a in alpha)
            target = tuple(power_mean(b, v) for b in beta)
            result = solve_scalar(outer, prefix, target)
            assert result.status == "converged"
            lo, hi = result.bracket
            assert lo <= result.root <= hi
            goal = eval_outer(outer, target)
            worst = max(worst, result.residual / max(1.0, abs(goal)))
        assert worst <= 1e-10

    def test_strict_monotonicity_around_root(self):
        rng = random.Random(4)
        for outer in (Sum(), Product(), Sum("pow", 3)):
            for _ in range(50):
                v = tuple(rng.uniform(0.5, 100.0) for _ in range(3))
                prefix = (power_mean(0, v),)
                target = tuple(power_mean(s, v) for s in (-1, 1, 2))
                result = solve_scalar(outer, prefix, target)
                lo, hi = result.bracket
                delta = 10.0 * 1e-12 * max(abs(lo), abs(hi))
                goal = eval_outer(outer, target)
                below = eval_outer(outer, prefix + (result.root - delta,) * 2)
                above = eval_outer(outer, prefix + (result.root + delta,) * 2)
                assert below < goal < above

    def test_small_values_keep_relative_accuracy(self):
        # bracket spanning five orders of magnitude must still localize a
        # root sitting near its tiny end to relative precision
        v = (1e-3, 1e-3, 90.0)
        arithmetic = power_mean(1, v)
        result = solve_scalar(MeanOuter(PowerMean(0)), (arithmetic,), v)
        # geometric outer closed form: root = sqrt(prod(v) / arithmetic)
        exact = math.sqrt(v[0] * v[1] * v[2] / arithmetic)
        assert exact < 2e-3  # genuinely near the bottom of [1e-3, 90]
        assert result.root == pytest.approx(exact, rel=1e-10)


def _reference_solve(outer, prefix, target, tol=DEFAULT_TOL):
    """solve_scalar's bisection written with public eval_outer calls only."""
    v, w = tuple(prefix), tuple(target)
    fill = len(w) - len(v)

    def f(x):
        return eval_outer(outer, v + (x,) * fill)

    goal = eval_outer(outer, w)
    lo, hi = min(w), max(w)
    if lo == hi or f(lo) - goal >= 0.0:
        return lo, abs(f(lo) - goal), 0, "converged"
    if f(hi) - goal <= 0.0:
        return hi, abs(f(hi) - goal), 0, "converged"
    iterations, status = 0, "max-iterations"
    while True:
        if hi - lo <= tol * max(abs(lo), abs(hi)):
            status = "converged"
            break
        if iterations >= MAX_BISECTION_STEPS:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            status = "converged"
            break
        iterations += 1
        if f(mid) - goal < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return root, abs(f(root) - goal), iterations, status


# One outer of every kind; "invariant" is mean[<invariant>] over n members.
SOLVER_OUTERS = ("sum", "prod", "powsum[0.5]", "powsum[2]", "qa[log]", "qa[exp]",
                 "qa[pow[1.5]]", "mean[P[-1.5]]", "mean[P[0]]", "mean[P[2]]", "invariant")
INVARIANT_MEMBERS = (PowerMean(1), PowerMean(-1), PowerMean(0), BetaMean(),
                     PowerMean(2), PowerMean(-2))


@st.composite
def solver_cases(draw):
    """(outer, prefix, target): m < n <= 6, ties within the target and with its ends."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, n - 1))
    text = draw(st.sampled_from(SOLVER_OUTERS))
    outer = (MeanOuter(InvariantMean(INVARIANT_MEMBERS[:n])) if text == "invariant"
             else parse_outer(text))
    high = 8.0 if text == "qa[exp]" else 1e3
    if draw(st.booleans()):
        entry = st.one_of(st.floats(1e-3, high), st.sampled_from((1.0, 2.0, high)))
    else:  # near-constant: the boundary steps decide at the outer's rounding level
        base = draw(st.floats(1e-3, high))
        entry = st.floats(base, base * (1.0 + draw(st.sampled_from((1e-14, 1e-11)))))
    target = draw(st.lists(entry, min_size=n, max_size=n))
    # entry k of a sorted embedded prefix may be anything in [w_k, w_{k+n-m}]
    w = sorted(target)
    prefix = [draw(st.one_of(st.sampled_from((w[k], w[k + n - m])),
                             st.floats(w[k], w[k + n - m])))
              for k in range(m)]
    return outer, tuple(draw(st.permutations(prefix))), tuple(target)


class TestSolverBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(solver_cases())
    def test_solve_scalar_equals_public_reference_loop(self, case):
        outer, prefix, target = case
        result = solve_scalar(outer, prefix, target)
        want = _reference_solve(outer, prefix, target)
        # bit for bit: a bisection step evaluates the vector the public path does
        assert (result.root, result.residual, result.iterations, result.status) == want

    def test_near_constant_targets(self):
        # ties at rounding level decide the boundary steps; there an outer
        # that rounds by order (prod) tells a mis-sorted step vector apart
        rng = random.Random(44)
        outers = [parse_outer(t) for t in SOLVER_OUTERS if t != "invariant"]
        for _ in range(3000):
            n = rng.randint(2, 6)
            m = rng.randint(1, n - 1)
            base = rng.uniform(1e-3, 8.0)
            target = tuple(base * (1.0 + rng.random() * 1e-14) for _ in range(n))
            w = sorted(target)
            prefix = [rng.choice((w[k], w[k + n - m], rng.uniform(w[k], w[k + n - m])))
                      for k in range(m)]
            rng.shuffle(prefix)
            outer = rng.choice(outers)
            result = solve_scalar(outer, prefix, target)
            want = _reference_solve(outer, tuple(prefix), target)
            assert (result.root, result.residual, result.iterations, result.status) == want


def _mp_balance_root(mpmath, outer, prefix, target):
    """The root of outer(prefix, x, .., x) = outer(target), at mpmath precision.

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


class TestRootOracles:
    """solve_scalar roots against the root of the same equation at 50 digits.

    Instances are built as the balance workload builds them: power means at
    embedded exponent windows of vectors from (0.5, 100), one in ten
    near-constant, and from (0.5, 8) for qa[exp], whose root is otherwise not
    determined in double precision.  Budget: the solver stops at relative
    bracket width DEFAULT_TOL and returns the midpoint, so DEFAULT_TOL
    relative leaves room for the rounding of the outer near the root.
    """

    @pytest.mark.parametrize("text", [t for t in SOLVER_OUTERS if t != "invariant"])
    def test_against_mpmath(self, text):
        mpmath = pytest.importorskip("mpmath")
        outer = parse_outer(text)
        grid = tuple(k / 4 for k in range(-16, 17))
        high = 8.0 if text == "qa[exp]" else 100.0
        rng = random.Random(43)
        worst = 0.0
        with mpmath.workdps(50):
            for index in range(200):
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
                prefix = tuple(power_mean(a, v) for a in alpha)
                target = tuple(power_mean(b, v) for b in beta)
                root = solve_scalar(outer, prefix, target).root
                want = _mp_balance_root(mpmath, outer, prefix, target)
                worst = max(worst, float(abs(root - want) / want))
        assert worst <= DEFAULT_TOL


class TestImplicitMean:
    def test_matches_closed_forms(self):
        rng = random.Random(21)
        for outer, oracle in ((Sum(), closed_form_sum_mean),
                              (Product(), closed_form_prod_mean)):
            derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, outer)
            for k in (2, 3, 5):
                for _ in range(30):
                    v = tuple(rng.uniform(0.01, 100.0) for _ in range(k))
                    assert eval_mean(derived, v) == pytest.approx(oracle(v), rel=1e-9)

    def test_constant_vector(self):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Sum())
        assert eval_mean(derived, (3.0, 3.0, 3.0)) == 3.0

    def test_symmetric(self):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Product())
        assert eval_mean(derived, (1.0, 4.0, 9.0)) == eval_mean(derived, (9.0, 1.0, 4.0))

    def test_bounded_by_targets(self):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Sum())
        rng = random.Random(3)
        for _ in range(100):
            v = tuple(rng.uniform(0.01, 100.0) for _ in range(3))
            value = eval_mean(derived, v)
            targets = [eval_mean(b, v) for b in EXAMPLE_BIG]
            assert min(targets) <= value <= max(targets)

    def test_label_is_problem_text(self):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Sum())
        assert str(derived) == "T{mu=sum; S=[P[0],P[2]]; M=[P[-2],P[-1],P[1],P[3]]}"

    def test_size_validation(self):
        with pytest.raises(ArityError):
            implicit_mean(EXAMPLE_BIG, EXAMPLE_SMALL, Sum())

    def test_is_the_problem_node(self):
        derived = implicit_mean(list(EXAMPLE_SMALL), list(EXAMPLE_BIG), Sum())
        spec = ProblemSpec(Sum(), EXAMPLE_SMALL, EXAMPLE_BIG)
        assert derived == spec and hash(derived) == hash(spec)
        assert derived != implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Product())

    def test_equal_means_certify_as_sub_multiset(self):
        derived = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Sum())
        twin = implicit_mean(EXAMPLE_SMALL, EXAMPLE_BIG, Sum())
        report = verify_embedding((twin,), (PowerMean(1), derived))
        assert report.mode == "certified"
        assert report.certificate == {"rule": "sub-multiset"}


class TestGeneralizedBeta:
    def test_reproduces_beta_mean(self):
        derived = GeneralizedBetaMean(PowerMean(1), MeanOuter(PowerMean(0)))
        rng = random.Random(8)
        for k in (2, 3, 4, 6):
            for _ in range(40):
                v = tuple(rng.uniform(0.01, 100.0) for _ in range(k))
                assert eval_mean(derived, v) == pytest.approx(beta_mean(v), rel=1e-10)

    def test_harmonic_case(self):
        derived = GeneralizedBetaMean(PowerMean(1), MeanOuter(PowerMean(0)))
        assert eval_mean(derived, (2.0, 8.0)) == pytest.approx(3.2, rel=1e-12)

    def test_constant(self):
        derived = GeneralizedBetaMean(PowerMean(1), MeanOuter(PowerMean(0)))
        assert eval_mean(derived, (5.0, 5.0, 5.0)) == 5.0

    def test_arity_validation(self):
        derived = GeneralizedBetaMean(PowerMean(1), MeanOuter(PowerMean(0)))
        with pytest.raises(ArityError):
            eval_mean(derived, (5.0,))


class TestExponentRule:
    def test_worked_exponents(self):
        assert power_mean_embedded((0, 2), (-2, -1, 1, 3))

    def test_equal_vectors(self):
        assert power_mean_embedded((-2, -1, 1, 3), (-2, -1, 1, 3))

    def test_exponent_above_range(self):
        assert not power_mean_embedded((5,), (-2, -1, 1, 3))


class TestVerifyEmbedding:
    def test_power_families_certified(self):
        report = verify_embedding(EXAMPLE_SMALL, EXAMPLE_BIG)
        assert report.mode == "certified"
        assert report.certificate["rule"] == "power-mean-exponents"
        assert report.certificate["embedded"] is True

    def test_subsequence_certified(self):
        report = verify_embedding(EXAMPLE_BIG[1:3], EXAMPLE_BIG)
        assert report.mode == "certified"
        assert report.certificate["rule"] == "sub-multiset"

    def test_identical_families_certified(self):
        report = verify_embedding(EXAMPLE_BIG, EXAMPLE_BIG)
        assert report.mode == "certified"

    def test_refuted_with_replayable_witness(self):
        report = verify_embedding((PowerMean(5),), EXAMPLE_BIG,
                                  plan=SamplePlan(arity=3, count=64, seed=0))
        assert report.mode == "refuted"
        witness = report.counterexample
        from meanforge import is_embedded
        small_values = [eval_mean(PowerMean(5), witness["vector"])]
        big_values = [eval_mean(b, witness["vector"]) for b in EXAMPLE_BIG]
        assert small_values == pytest.approx(witness["small_values"])
        assert not is_embedded(small_values, big_values).embedded

    def test_mixed_family_sampled_through_ties(self):
        # B at two entries equals the order -1 power mean up to rounding, so
        # the relaxed pointwise check must absorb the ties instead of refuting
        from meanforge import BetaMean
        report = verify_embedding((BetaMean(),), (PowerMean(-1), PowerMean(1)),
                                  plan=SamplePlan(arity=2, count=64, seed=1))
        assert report.mode == "sampled"
        assert report.samples_checked == 64

    def test_longer_prefix_refuted(self):
        # the last two repeat big's one member, so only the lengths rule them out
        for small, big in ((EXAMPLE_BIG, EXAMPLE_SMALL),
                           ((PowerMean(1), PowerMean(1)), (PowerMean(1),)),
                           ((BetaMean(), BetaMean()), (BetaMean(),))):
            report = verify_embedding(small, big, plan=SamplePlan(arity=2, count=32, seed=2))
            assert report.mode == "refuted"

    def test_default_plan_samples_at_the_pinned_arity(self):
        agm = InvariantMean((PowerMean(1), PowerMean(0)))
        report = verify_embedding((PowerMean(0),), (agm, PowerMean(-1)))
        assert (report.mode, report.samples_checked) == ("sampled", 256)
        report = verify_embedding((PowerMean(3),), (agm, PowerMean(1)))
        assert report.mode == "refuted" and len(report.counterexample["vector"]) == 2
        report = verify_embedding((GeneralizedBetaMean(agm, Sum()),),
                                  (PowerMean(-1), PowerMean(1)))
        assert report.mode == "refuted" and len(report.counterexample["vector"]) == 2
        pinned = DerivedMean("mean4", lambda sv: sum(sv) / 4.0, arity=4)
        report = verify_embedding((pinned,), (PowerMean(-1), PowerMean(2)))
        assert report.mode == "sampled"

    def test_disagreeing_pins_raise(self):
        agm = InvariantMean((PowerMean(1), PowerMean(0)))
        tri = InvariantMean((PowerMean(1), PowerMean(0), PowerMean(-1)))
        with pytest.raises(ArityError, match="pin different arities"):
            verify_embedding((agm,), (tri, PowerMean(1)))


class TestComparability:
    def test_reflexive_case(self):
        plan = SamplePlan(arity=2, count=30, seed=5)
        report = compare_implicit_means(EXAMPLE_SMALL, EXAMPLE_BIG,
                                        EXAMPLE_SMALL, EXAMPLE_BIG, Sum(), plan)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_dropped_top_exponent(self):
        # lowering the top target exponent can only lower the implicit mean
        big = EXAMPLE_BIG
        big_star = (PowerMean(-2), PowerMean(-1), PowerMean(1), PowerMean(2))
        small = (PowerMean(0),)
        plan = SamplePlan(arity=3, count=50, seed=6)
        for outer in (Sum(), Product()):
            report = compare_implicit_means(small, big, small, big_star, outer, plan)
            assert report.passed

    def test_constructed_quadruples(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 4)
            m = rng.randint(1, n - 1)
            sigma, beta, sigma_star, beta_star = comparability_quadruple(rng, m, n)
            plan = SamplePlan(arity=2, count=10, seed=rng.randrange(2 ** 31))
            report = compare_implicit_means(
                tuple(PowerMean(s) for s in sigma),
                tuple(PowerMean(b) for b in beta),
                tuple(PowerMean(s) for s in sigma_star),
                tuple(PowerMean(b) for b in beta_star),
                Sum(), plan)
            assert report.passed

    def test_violated_precondition_raises(self):
        small = (PowerMean(0),)
        big = EXAMPLE_BIG
        big_bigger = (PowerMean(-2), PowerMean(-1), PowerMean(1), PowerMean(4))
        plan = SamplePlan(arity=2, count=10, seed=7)
        with pytest.raises(HypothesisViolation):
            # claimed big* < big but the star family dominates
            compare_implicit_means(small, big, small, big_bigger, Sum(), plan)

    def test_family_lengths_must_agree(self):
        plan = SamplePlan(arity=2, count=10, seed=7)
        small, big = (PowerMean(0),), (PowerMean(-1), PowerMean(1))
        with pytest.raises(ArityError, match="prefix families must have equal length"):
            compare_implicit_means(small, big, small + small, big, Sum(), plan)
        with pytest.raises(ArityError, match="target families must have equal length"):
            compare_implicit_means(small, big, small, big + big[:1], Sum(), plan)

    def test_refuted_embedding_precondition_raises(self):
        # each family equals its starred one, so both orderings hold, but
        # P[3] is not embedded in (P[-1], P[1]): it exceeds both somewhere
        small, big = (PowerMean(3),), (PowerMean(-1), PowerMean(1))
        plan = SamplePlan(arity=2, count=10, seed=7)
        with pytest.raises(HypothesisViolation,
                           match="embedding precondition small in big fails") as err:
            compare_implicit_means(small, big, small, big, Sum(), plan)
        witness = err.value.witness
        v = tuple(witness["vector"])
        assert witness["small_values"] == [power_mean(3, v)]
        assert witness["big_values"] == [power_mean(-1, v), power_mean(1, v)]
        assert witness["majorized"] is False

    def test_non_power_prefixes_are_sampled(self):
        # B is not a power mean, so small < small* is checked on samples
        big = (PowerMean(-2), PowerMean(2))
        big_star = (PowerMean(-3), PowerMean(1))
        plan = SamplePlan(arity=2, count=20, seed=1)
        report = compare_implicit_means((BetaMean(),), big, (BetaMean(),), big_star,
                                        Sum(), plan)
        assert report.passed and report.samples_checked == 20
        # at two entries B is the harmonic mean, below the arithmetic one
        with pytest.raises(HypothesisViolation, match="small < small") as err:
            compare_implicit_means((PowerMean(1),), big, (BetaMean(),), big_star,
                                   Sum(), plan)
        witness = err.value.witness
        assert witness["rule"] == "sampled" and len(witness["vector"]) == 2
        assert witness["low_values"][0] > witness["high_values"][0]
