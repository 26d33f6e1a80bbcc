import itertools
import json
import math
import random
from fractions import Fraction

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
from meanforge.dsl import parse_mean, parse_outer
from meanforge.implicit import COMPARISON_RTOL, DEFAULT_TOL, MAX_BISECTION_STEPS
from meanforge import means
from meanforge.means import GEOMETRIC_ORDER, _power_mean

# frozen from the closed forms evaluated independently of the solver
M1_AT_1_4 = 1.8738824415736874
M2_AT_1_4 = 1.7330699451428968


def _eval_family(family, v):
    """``means._eval_family`` at ``v``, with the family's plan built as its owner builds it."""
    return means._eval_family(family, means._power_plan(family), v, min(v), max(v))


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
        # the prefix is within the relative slack of the constant target, above it
        # (the f(lo) >= goal exit) or below it (the f(hi) <= goal exit)
        prefix = (2.0 * (1.0 + shift),)
        result = solve_scalar(Sum(), prefix, (2.0, 2.0, 2.0))
        assert (result.root, result.bracket, result.residual, result.iterations,
                result.status) == (2.0, (2.0, 2.0), 2.000177801164682e-12, 0, "converged")

    def test_float_resolution_ends_the_bisection(self):
        # tol=1e-300 is below the float spacing at the root: the bracket's
        # midpoint meets an end before its width meets the tolerance
        # (prod bisects; 1 * x = 0.75 * 2 has the root 1.5)
        result = solve_scalar(Product(), (1.0,), (0.75, 2.0), tol=1e-300)
        assert (result.root, result.residual, result.iterations, result.status) == \
            (1.5, 0.0, 52, "converged")

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
        assert err.value.witness == {"prefix": [10.0], "target": [1.0, 2.0], "minorized": True,
                                     "majorized": False, "witness_index": 1}

    def test_prefix_below_a_wide_target_is_refused(self):
        # 0.5 is within 1e-9*max(w) = 10 of min(w) = 1 but far outside 1e-9 of 1:
        # the relaxation is relative to the compared entry, so no root is returned
        with pytest.raises(HypothesisViolation) as err:
            solve_scalar(MeanOuter(PowerMean(0)), (0.5,), (1.0, 1e10))
        assert err.value.witness == {"prefix": [0.5], "target": [1.0, 1e10], "minorized": False,
                                     "majorized": True, "witness_index": 1}

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



class TestBetaAsOuter:
    """``B`` is strictly increasing on positive vectors, so it is an admissible μ."""

    def test_problem_matches_harmonic_closed_form(self):
        # at k = 2, B is the harmonic mean: 1/G + 1/x = 1/H + 1/A
        problem = parse_mean("T{mu=mean[B]; S=[P[0]]; M=[P[-1],P[1]]}")
        rng = random.Random(17)
        for _ in range(600):
            v = tuple(rng.uniform(0.1, 100.0) for _ in range(rng.randint(2, 5)))
            exact = 1.0 / (1.0 / power_mean(-1, v) + 1.0 / power_mean(1, v)
                           - 1.0 / power_mean(0, v))
            assert eval_mean(problem, v) == pytest.approx(exact, rel=1e-11)

    def test_strictly_increasing_per_coordinate(self):
        outer = MeanOuter(BetaMean())
        rng = random.Random(5)
        for k in range(2, 7):
            for _ in range(40):
                v = [rng.uniform(0.5, 100.0) for _ in range(k)]
                base = eval_outer(outer, v)
                for i in range(k):
                    grown = list(v)
                    grown[i] += 1e-3 * grown[i]
                    assert eval_outer(outer, grown) > base

    def test_solver_converges(self):
        outer = MeanOuter(BetaMean())
        rng = random.Random(8)
        for _ in range(1000):
            v = tuple(rng.uniform(0.1, 100.0) for _ in range(rng.randint(2, 5)))
            target = tuple(power_mean(s, v) for s in (-1, 1, 2))
            result = solve_scalar(outer, (power_mean(0, v),), target)
            assert result.status == "converged"
            assert result.residual <= 1e-10 * eval_outer(outer, target)


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
                 "qa[pow[1.5]]", "mean[P[-1.5]]", "mean[P[-1]]", "mean[P[0]]", "mean[P[0.5]]",
                 "mean[P[2]]", "invariant")
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
    low = -high if text == "sum" else 1e-3  # sum, the one outer that takes negatives
    if draw(st.booleans()):
        entry = st.one_of(st.floats(low, high), st.sampled_from((1.0, 2.0, high)))
    else:  # near-constant: the boundary steps decide at the outer's rounding level
        base = draw(st.floats(low, high))
        entry = st.floats(base, base + abs(base) * draw(st.sampled_from((1e-14, 1e-11))))
    target = draw(st.lists(entry, min_size=n, max_size=n))
    # entry k of a sorted embedded prefix may be anything in [w_k, w_{k+n-m}]
    w = sorted(target)
    prefix = [draw(st.one_of(st.sampled_from((w[k], w[k + n - m])),
                             st.floats(w[k], w[k + n - m])))
              for k in range(m)]
    return outer, tuple(draw(st.permutations(prefix))), tuple(target)


def _assert_matches_reference(outer, prefix, target):
    """solve_scalar against :func:`_reference_solve`: bit for bit where it bisects.

    A ``mean[P[s]]`` outer's closed-form root is converged after 0 steps, lies
    in the bracket, and leaves a residual at most the loop's plus 4 ulp of the
    goal and the kernel's own rounding there.  The kernel's value is
    ``a*exp(m)`` with ``|m| <= log(max/min)``, so it moves in relative steps of
    about ``ulp(m)``; the loop bisects those float values and can find a zero
    residual beside the exact root, whose own residual is such a step.

    A ``sum`` outer's root is ``(sum(w) - sum(v)) / fill`` from exactly rounded sums,
    so within 1 ulp of that rational number (clamped to the bracket), after 0 steps.

    A ``Sum("pow", p)`` outer's root is the ``mean[P[p]]`` outer's, bit for bit,
    also converged after 0 steps in the bracket.  Its residual has its own bound.
    With ``G = sum(w^p)`` the goal, ``eps = 2^-52``, ``L = log(max/min)`` (a normal
    ratio, as here) and ``p <= 2``, it is at most ``(11 + 5*p*L)*eps*G``, the sum of:

    * ``3*eps*G`` for evaluating it: each ``y**p`` is within 1 ulp (``eps*y^p``)
      and each correctly rounded ``fsum`` within half an ulp, on both sides, and
      each side's terms total about ``G`` (``sum(v^p) <= G``, ``v`` embedded in ``w``);
    * ``4*(1 + p*L)*eps*G`` for the kernel's anchored terms: ``z = p*log(y/a)`` and
      its ``expm1`` leave ``(y/a)^p`` off by at most ``2*(1 + |z|)*eps`` relative,
      ``|z| <= p*L``, over the terms of ``w`` and ``v``, which total at most ``2G``;
    * ``(4 + p*L)*eps*G`` for its closing ``x = a*exp(m)``, ``|p*m| <= p*L``, whose
      rounding moves ``fill*x^p <= G`` by that relative.
    """
    result = solve_scalar(outer, prefix, target)
    lo, hi = result.bracket
    if isinstance(outer, Sum) and outer.generator == "id":
        exact = (sum(map(Fraction, target)) - sum(map(Fraction, prefix))) / (len(target) - len(prefix))
        exact = min(max(exact, Fraction(lo)), Fraction(hi))
        assert (result.iterations, result.status) == (0, "converged")
        assert abs(Fraction(result.root) - exact) <= Fraction(math.ulp(result.root))
        return
    if isinstance(outer, Sum) and outer.generator == "pow":
        p = outer.exponent
        assert result.root == solve_scalar(MeanOuter(PowerMean(p)), prefix, target).root
        assert (result.iterations, result.status) == (0, "converged")
        assert lo <= result.root <= hi
        goal = eval_outer(outer, target)
        assert result.residual <= (11.0 + 5.0 * p * math.log(hi / lo)) * 2.0 ** -52 * goal
        return
    want = _reference_solve(outer, tuple(prefix), target)
    if not (isinstance(outer, MeanOuter) and isinstance(outer.mean, PowerMean)):
        # bit for bit: a bisection step evaluates the vector the public path does
        assert (result.root, result.residual, result.iterations, result.status) == want
        return
    assert (result.status, result.iterations) == ("converged", 0)
    assert lo <= result.root <= hi
    goal = eval_outer(outer, target)
    assert result.residual <= want[1] + 4.0 * math.ulp(goal) + 2.0 * goal * math.ulp(math.log(hi / lo))


class TestSolverBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(solver_cases())
    def test_solve_scalar_equals_public_reference_loop(self, case):
        _assert_matches_reference(*case)

    @pytest.mark.parametrize("text, prefix, target", [
        # non-positive prefix entries below a positive target, which the precondition refuses
        ("qa[log]", (0.0,), (1e-10, 1.0)),
        ("qa[log]", (-1e-10,), (1e-10, 1.0)),
        ("powsum[2]", (0.0,), (1e-10, 1.0)),
        ("powsum[2]", (-1e-10,), (1e-10, 1.0)),
        ("qa[exp]", (1.0,), (800.0, 1.0)),  # the goal overflows
        ("sum", (-1e308,), (1.5e308, 1.6e308, -1e308)),  # a mixed-sign goal overflows
        ("sum", (0.0,), (1e-10, 1.0)),  # the closed form keeps the precondition
        # the same prefixes under mean[P[s]], whose closed form checks them as the kernel does
        ("mean[P[0]]", (0.0,), (1e-10, 1.0)),
        ("mean[P[0]]", (-1e-10,), (1e-10, 1.0)),
        ("mean[P[2]]", (0.0,), (1e-10, 1.0)),
        ("mean[P[2]]", (-1e-10,), (1e-10, 1.0)),
    ])
    def test_errors_equal_the_reference_loop(self, text, prefix, target):
        outer = parse_outer(text)
        if min(prefix) <= 0.0 < min(target):
            # a positive entry's relaxed lower bound is positive: the precondition
            # refuses the prefix before the kernel sees it
            with pytest.raises(HypothesisViolation) as err:
                solve_scalar(outer, prefix, target)
            assert err.value.witness == {"prefix": list(prefix), "target": list(target),
                                         "minorized": False, "majorized": True,
                                         "witness_index": 1}
            return
        with pytest.raises(DomainError) as want:
            _reference_solve(outer, prefix, target)
        with pytest.raises(DomainError) as got:
            solve_scalar(outer, prefix, target)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

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
            _assert_matches_reference(rng.choice(outers), prefix, target)


class TestPowerMeanStep:
    """A ``mean[P[s]]`` solve's one step, the closed form, against mpmath.

    The target is the prefix and ``fill`` extra entries, so the exact root is
    the power mean of the extras, which mpmath evaluates.  They lie below, at
    and above each prefix entry and far enough out to make the vector wide, so
    the anchor comes from either side and ``log(y) - log(a)`` stands in where
    min/max leaves the normal floats.  The closed form rounds its anchored
    terms by about ``eps*(1 + L)``, ``L = log(max(w)/min(w))``, and the float
    equation amplifies that by its condition number ``n*(P[s](w)/x)**s/fill``.
    Where the product reaches 1, x's term is below the rounding of the anchor's:
    the float goal does not determine x, and only the bracket is checked.
    """

    MEANS = (PowerMean(2), PowerMean(0.5), PowerMean(0), PowerMean(-1.5),
             PowerMean(1e-300), PowerMean(-1e-300))  # the DSL writes no exponents
    PREFIXES = ((3.5,), (2.0, 3.5, 8.0), (1.0, 8.0, 8.0),
                (1e-300, 1e-290),  # tiny normals
                (5e-324, 1e-323, 3e-320),  # subnormal entries, a normal ratio
                (1e-200, 1e200))  # a prefix whose own ratio is wide

    @staticmethod
    def xs(prefix):
        """x below, at and above each prefix entry, and far enough out to make the vector wide."""
        xs = {5e-324, 1e-320, 1e-100, 1.0, 1e100, 1.7e308}
        for p in prefix:
            xs |= {p, math.nextafter(p, 0.0), math.nextafter(p, math.inf), 0.5 * p, 2.0 * p}
        return sorted(x for x in xs if 0.0 < x < math.inf)

    @pytest.mark.parametrize("mean", MEANS, ids=lambda m: f"P[{m.order!r}]")
    @pytest.mark.parametrize("prefix", PREFIXES, ids=repr)
    @pytest.mark.parametrize("fill", (1, 3))
    def test_equals_the_kernel(self, oracle, mean, prefix, fill):
        outer = MeanOuter(mean)
        order = 0.0 if abs(mean.order) < GEOMETRIC_ORDER else mean.order
        xs = self.xs(prefix)
        pairs = zip(xs, xs) if fill == 1 else itertools.combinations_with_replacement(xs, 2)
        with oracle.mpmath.workdps(40):
            for x, y in pairs:
                extras = (x,) + (y,) * (fill - 1)
                target = prefix + extras
                result = solve_scalar(outer, prefix, target)
                lo, hi = result.bracket
                assert (result.iterations, result.status) == (0, "converged")
                assert lo <= result.root <= hi
                exact = oracle.exact_power_mean(order, extras)
                condition = (len(target) * (oracle.exact_power_mean(order, target) / exact) ** order
                             / fill)
                bound = 4.0 * 2.0 ** -53 * condition * (1.0 + math.log(hi) - math.log(lo))
                if bound < 1.0:
                    assert abs(result.root - exact) <= bound * exact + 5e-324, extras

    @pytest.mark.parametrize("order", (0.0, -0.01, 2.0))
    def test_relaxed_prefix_far_below_the_bracket(self, order):
        # the relaxation is relative to the entry compared with, so 5e-324 is
        # refused against (1e-10, 1e300), however wide the target
        outer, prefix, target = MeanOuter(PowerMean(order)), (5e-324,), (1e-10, 1e300)
        with pytest.raises(HypothesisViolation) as err:
            solve_scalar(outer, prefix, target)
        assert (err.value.witness["minorized"], err.value.witness["majorized"],
                err.value.witness["witness_index"]) == (False, True, 1)

    def test_admitted_prefix_whose_root_overflows(self):
        # the prefix lies 6.3e-12 below min(w), inside the relaxation: the equation's
        # x^s is a rounding-sized positive number, x is past every float, and the
        # closed form's exp overflows; the root is max(w), as the loop's
        outer, prefix, target = MeanOuter(PowerMean(-0.05)), (0.9999999999936755,), (1.0, 1e250)
        with pytest.raises(OverflowError):
            _power_mean(-0.05, target, prefix)
        assert solve_scalar(outer, prefix, target).root == _reference_solve(outer, prefix, target)[0] \
            == 1e250

    def test_shared_dominant_entries_cancel(self):
        # prefix and target share their two largest entries: each one's anchored
        # term is -1 to double precision, and only the small entries fix the root
        mpmath = pytest.importorskip("mpmath")
        prefix = (1.376511362933826e-13, 2.130195332724786e+26, 2.230941052422598e+26)
        target = (1.3379190954583884e-13, 1.936329149040982e-13) + prefix[1:]
        root = solve_scalar(MeanOuter(PowerMean(2)), prefix, target).root
        with mpmath.workdps(200):
            exact = mpmath.sqrt(mpmath.fsum(mpmath.mpf(y) ** 2 for y in target)
                                - mpmath.fsum(mpmath.mpf(y) ** 2 for y in prefix))
            assert float(abs(root - exact) / exact) <= 1e-14

    def test_subnormal_term_is_not_paired(self):
        # anchored at 1.5e-323, the large entry's term is exp(-742), a subnormal
        # with few digits: it stays -1, and the root is the bracket's end
        target = (1.5e-323, 0.7673581403363521)
        assert solve_scalar(MeanOuter(PowerMean(-1)), target[:1], target).root == target[1]


class TestPowerSumRoot:
    """A ``Sum("pow", p)`` solve is the ``mean[P[p]]`` closed form: sum(u^p) is increasing in P[p](u)."""

    @staticmethod
    def exact(p, prefix, target):
        """The root ``((sum(w^p) - sum(v^p)) / fill)^(1/p)``, at digits enough for the cancellation."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(200):
            p = mpmath.mpf(p)
            gap = (mpmath.fsum(mpmath.mpf(y) ** p for y in target)
                   - mpmath.fsum(mpmath.mpf(y) ** p for y in prefix))
            return float((gap / (len(target) - len(prefix))) ** (1 / p))

    @settings(max_examples=200, deadline=None)
    @given(solver_cases().filter(lambda case: min(case[2]) > 0.0), st.sampled_from((0.5, 1.5, 2.0)))
    def test_spellings_share_the_power_mean_root(self, case, p):
        _, prefix, target = case
        roots = [solve_scalar(parse_outer(t), prefix, target)
                 for t in (f"powsum[{p}]", f"qa[pow[{p}]]", f"mean[P[{p}]]")]
        assert roots[0].root == roots[1].root == roots[2].root
        assert {(r.iterations, r.status) for r in roots} == {(0, "converged")}

    @pytest.mark.parametrize("text, prefix, target", [
        # each converged at min(w), off by 99 % and 48 %, when bisected
        ("qa[pow[1.5]]", (5.597320759440126e-44,),
         (6.319779032131247e-101, 9.772618674595997e-99, 5.597320759440126e-44)),
        ("powsum[0.5]", (1.7345535571204612e-66, 268.4877646280216),
         (1.5100165762185134e-66, 2.629091562027023e-66, 3.4691071142409223e-66, 268.4877646280216)),
    ])
    def test_root_far_below_the_dominant_entry(self, text, prefix, target):
        outer = parse_outer(text)
        exact = self.exact(outer.exponent, prefix, target)
        result = solve_scalar(outer, prefix, target)
        assert (result.iterations, result.status) == (0, "converged")
        assert abs(result.root - exact) <= 1e-14 * exact

    def test_top_of_the_float_range(self):
        # a bisection step at max(w) forms 9e153^2 + 2 * 9e153^2, past the largest float;
        # the closed form forms no power
        prefix, target = (9e153,), (1.0, 9e153, 9e153)
        exact = self.exact(2.0, prefix, target)
        result = solve_scalar(parse_outer("powsum[2]"), prefix, target)
        assert result.root == 6.363961030678928e+153
        assert abs(result.root - exact) <= 2.0 ** -52 * exact


class TestSumRoot:
    """A ``sum`` solve is P[1]'s closed form, ``(sum(w) - sum(v)) / fill``, with entries of any sign."""

    @staticmethod
    def exact(prefix, target):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(700):  # enough digits for sums across the whole float range
            gap = mpmath.fsum(map(mpmath.mpf, target)) - mpmath.fsum(map(mpmath.mpf, prefix))
            return gap / (len(target) - len(prefix))

    def test_roots_with_negative_entries(self):
        rng = random.Random(12)
        for _ in range(400):
            n = rng.randint(2, 6)
            m = rng.randint(1, n - 1)
            scale = rng.choice((1.0, 1e-200, 1e200))
            w = sorted(scale * rng.uniform(-1e3, 1e3) for _ in range(n))
            prefix = tuple(rng.uniform(w[k], w[k + n - m]) for k in range(m))
            result = solve_scalar(Sum(), prefix, tuple(w))
            exact = self.exact(prefix, w)
            assert (result.iterations, result.status) == (0, "converged")
            assert w[0] <= result.root <= w[-1]
            assert abs(result.root - exact) <= 0.5 * math.ulp(result.root)

    @pytest.mark.parametrize("prefix, target, root", [
        # a bisection step at max(w) overflowed (DomainError); the closed form forms no step
        ((8e307,), (-1e308, 8e307, 1.7e308), 3.4999999999999996e+307),
        # a partial sum passes the largest float, so the terms are scaled by a power of 2
        ((-1.7e308,), (1.7e308, -1.7e308, 1.7e308), 1.7e308),
        # so does one of the goal's, which eval_outer sums scaled alike
        ((1e308,), (1e308, 1e308, -1e308), 0.0),
    ])
    def test_roots_near_the_largest_float(self, prefix, target, root):
        result = solve_scalar(Sum(), prefix, target)
        assert (result.root, result.iterations, result.status) == (root, 0, "converged")
        assert root == float(self.exact(prefix, target))

    @settings(max_examples=100, deadline=None)
    @given(solver_cases().filter(lambda case: min(case[2]) > 0.0))
    def test_spellings_share_the_order_1_root(self, case):
        _, prefix, target = case
        roots = {solve_scalar(parse_outer(t), prefix, target).root
                 for t in ("sum", "powsum[1]", "mean[P[1]]")}
        assert len(roots) == 1


class TestRootOracles:
    """solve_scalar roots against the root of the same equation at 50 digits.

    Instances (``make_accuracy.root_instances``) are built as the balance
    workload builds them.  Budget: the solver stops at relative bracket width
    DEFAULT_TOL and returns the midpoint, so DEFAULT_TOL relative leaves room
    for the rounding of the outer near the root.
    """

    @pytest.mark.parametrize("text", [t for t in SOLVER_OUTERS if t != "invariant"])
    def test_against_mpmath(self, oracle, text):
        assert oracle.worst_root_error(text, 43, 200) <= DEFAULT_TOL


class TestAccuracyLedger:
    """``data/accuracy.json``, recomputed: worst relative errors against mpmath.

    ``data/make_accuracy.py`` records the rows (power means at s = 1, -1, 0,
    2.5 and the Beta-type mean per input class, and solver roots per outer kind,
    at 50 digits) and the wide rows (solver roots on vectors spanning 1e±150, at
    700 digits, with counts of max-iterations, refused and off solves).  A row
    fails when an error is worse than recorded by more than the ledger's factor,
    which absorbs libm differences, or when a count rises.
    """

    @staticmethod
    def _cells(rows):
        """``rows`` with each per-class row split into one cell per class."""
        cells = {}
        for name, row in rows.items():
            for kind, worst in (row.items() if isinstance(row, dict) else [("", row)]):
                cells[f"{name} {kind}".rstrip()] = worst
        return cells

    def test_no_row_worse_than_recorded(self, oracle):
        ledger = json.loads(oracle.LEDGER.read_text(encoding="utf-8"))
        rows, recorded = self._cells(oracle.measure()), self._cells(ledger["rows"])
        assert list(rows) == list(recorded)
        worse = {name: (recorded[name], got) for name, got in rows.items()
                 if got > ledger["factor"] * recorded[name]}
        assert worse == {}

    def test_no_wide_row_worse_than_recorded(self, oracle):
        ledger = json.loads(oracle.LEDGER.read_text(encoding="utf-8"))
        rows = oracle.measure_wide()
        assert list(rows) == list(ledger["wide"])
        worse = {name: (ledger["wide"][name], got) for name, got in rows.items()
                 if got["worst"] > ledger["factor"] * ledger["wide"][name]["worst"]
                 or any(got[k] > ledger["wide"][name][k] for k in ("max_iterations", "refused", "off"))}
        assert worse == {}

    def test_covers_every_solver_outer(self, oracle):
        assert set(oracle.SOLVE_OUTERS) == set(SOLVER_OUTERS) - {"invariant"}


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

    def test_one_family_pass_matches_two(self):
        # S and M are evaluated in one kernel call; the root is bit for bit the
        # one solved from two separate family passes
        rng = random.Random(16)
        lo, hi = DerivedMean("lo", lambda sv: sv[0]), DerivedMean("hi", lambda sv: sv[-1])
        mid = DerivedMean("mid", lambda sv: 0.5 * (sv[0] + sv[-1]))
        # S embeds in lo, S..., hi; a mixed pair goes member by member in one pass
        cases = [(EXAMPLE_SMALL, EXAMPLE_BIG), ((PowerMean(0),), (PowerMean(-1), PowerMean(1))),
                 ((BetaMean(), mid), (lo, BetaMean(), mid, hi)),
                 ((PowerMean(0), PowerMean(2)), (lo, PowerMean(0), PowerMean(2), hi))]
        for small, big in cases:
            for outer in (Sum(), Product(), MeanOuter(PowerMean(2))):
                derived = implicit_mean(small, big, outer)
                for k in (2, 3, 5):
                    v = tuple(rng.uniform(0.01, 100.0) for _ in range(k))
                    apart = solve_scalar(outer, _eval_family(small, v), _eval_family(big, v))
                    assert eval_mean(derived, v).hex() == apart.root.hex()

    def test_prefix_error_wins(self):
        # both families fail at the vector: the error is S's, as when S ran first
        s_bad = DerivedMean("s_bad", lambda sv: math.nan)
        m_bad = DerivedMean("m_bad", lambda sv: math.nan)
        derived = implicit_mean((s_bad,), (m_bad, PowerMean(1)), Sum())
        with pytest.raises(DomainError, match="s_bad returned"):
            eval_mean(derived, (1.0, 2.0))
        with pytest.raises(DomainError, match="s_bad returned"):
            verify_embedding((s_bad,), (m_bad, PowerMean(1)), SamplePlan(arity=2, count=4))
        # at a nonpositive entry S's power means raise before M's derived mean
        mid = DerivedMean("mid", lambda sv: 0.5 * (sv[0] + sv[-1]))
        derived = implicit_mean((PowerMean(1), PowerMean(2)),
                                (mid, PowerMean(3), PowerMean(-1)), Sum())
        with pytest.raises(DomainError, match="power mean needs positive entries"):
            eval_mean(derived, (0.0, 2.0))

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

    @pytest.mark.parametrize("lower, upper", [(1e-300, 1e-290), (1e290, 1e300)])
    def test_rounding_ties_absorbed_at_every_scale(self, lower, upper):
        # at two entries B is the harmonic mean: about a quarter of these samples
        # compute B a rounding below P[-1], which the relative slack absorbs
        plan = SamplePlan(arity=2, count=64, lower=lower, upper=upper)
        report = verify_embedding((BetaMean(),), (PowerMean(-1), PowerMean(1)), plan)
        assert (report.mode, report.samples_checked) == ("sampled", 64)

    def test_builds_the_family_plan_once(self, plan_calls):
        # the exponents are not embedded, but every sample's values are, within the
        # relative slack: all 20 samples are evaluated with the one plan
        small, big = (PowerMean(1 + 1e-12),), (PowerMean(0), PowerMean(1))
        report = verify_embedding(small, big, SamplePlan(arity=3, count=20, seed=0))
        assert (report.mode, report.samples_checked) == ("sampled", 20)
        assert plan_calls == [small + big]

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
        assert (report.samples_checked, witness) == (2, {
            "vector": [51.12747213686085, 40.49341374504143, 78.37985890347726],
            "small_values": [64.75740223390366],
            "big_values": [50.960516073088584, 52.619845462636626, 56.666914928459846,
                           61.01856397753372],  # each as mpmath rounds it
            "minorized": True, "majorized": False, "witness_index": 1})

    # At the second sample (seed 4) each pair fails on another field: majorization
    # past a tie (P[2] against itself), with B in both families, or minorization.
    # P[-1] and P[1] there, 16.117200232762357 and 46.202038441746126, are as mpmath rounds them.
    @pytest.mark.parametrize("small, big, fields", [
        ((PowerMean(2), PowerMean(1.5)), (PowerMean(-1), PowerMean(1), PowerMean(2)),
         {"small_values": [57.97531261949902, 52.80454344746061],
          "big_values": [16.117200232762357, 46.202038441746126, 57.97531261949902],
          "minorized": True, "majorized": False, "witness_index": 2}),
        ((BetaMean(), PowerMean(1.5), PowerMean(2)),
         (PowerMean(-1), PowerMean(1), PowerMean(2), BetaMean()),
         {"small_values": [23.03733517861311, 52.80454344746061, 57.97531261949902],
          "big_values": [16.117200232762357, 46.202038441746126, 57.97531261949902,
                         23.03733517861311],
          "minorized": True, "majorized": False, "witness_index": 2}),
        ((PowerMean(-2), BetaMean()), (PowerMean(-1), PowerMean(0), PowerMean(2)),
         {"small_values": [11.33697652482663, 23.03733517861311],
          "big_values": [16.117200232762357, 29.05194453953616, 57.97531261949902],
          "minorized": False, "majorized": True, "witness_index": 1}),
    ], ids=["past-a-tie", "mixed", "minorization"])
    def test_refuted_counterexample_pinned(self, small, big, fields):
        report = verify_embedding(small, big, plan=SamplePlan(arity=3, count=64, seed=4))
        assert (report.mode, report.samples_checked) == ("refuted", 2)
        assert report.counterexample == {
            "vector": [6.651509567958991, 40.159101448507485, 91.7955043087719], **fields}

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

    def test_sampled_ordering_witness_pinned(self):
        # at two entries B equals P[-1] up to rounding: the tie holds, P[2] > P[1] fails;
        # P[-1] is 1 ulp above mpmath's 9.307975966153668, which B rounds to
        with pytest.raises(HypothesisViolation, match="big. < big fails") as err:
            compare_implicit_means((PowerMean(0),), (PowerMean(-1), PowerMean(1)),
                                   (PowerMean(0),), (BetaMean(), PowerMean(2)), Sum(),
                                   SamplePlan(arity=2, count=16, seed=4))
        assert err.value.witness == {
            "rule": "sampled", "vector": [15.497227080241027, 6.651509567958991],
            "low_values": [9.307975966153668, 11.924903075270798],
            "high_values": [9.30797596615367, 11.074368324100009], "witness_index": 1}

    @pytest.mark.parametrize("lower, upper", [(1, 100), (1e6, 1e8), (1e9, 1e11)])
    def test_a_tie_passes_at_every_scale(self, lower, upper):
        # at two entries B equals P[-1], so both implicit means are one mean and
        # their gap is rounding only, which grows with the values (7.5e-9 at 5e7)
        big, big_star = (PowerMean(-1), PowerMean(1)), (BetaMean(), PowerMean(1))
        small = (PowerMean(0),)
        plan = SamplePlan(arity=2, count=200, seed=1, lower=lower, upper=upper)
        report = compare_implicit_means(small, big, small, big_star, Sum(), plan)
        assert report.passed and report.samples_checked == 200
        assert report.max_residual <= COMPARISON_RTOL * upper

    def test_a_violation_fails_at_every_scale(self):
        # odd(a, b) = a + b - sqrt(ab) is below min(a, b) once max > 4 min, so it
        # is not a strict mean although it is declared one; the law fails at
        # the same sample on (1, 100) and on (1e-12, 1e-10), where the gap is
        # below an absolute 1e-9
        odd = MeanOuter(DerivedMean(
            "odd", lambda sv: sv[0] + sv[-1] - math.sqrt(sv[0] * sv[-1]), arity=2, strict=True))
        small, big = (PowerMean(0),), (PowerMean(-1), PowerMean(1))
        big_star = (PowerMean(-3), PowerMean(1))
        reports = [compare_implicit_means(small, big, small, big_star, odd,
                                          SamplePlan(arity=2, count=200, seed=1,
                                                     lower=lower, upper=upper))
                   for lower, upper in ((1, 100), (1e-12, 1e-10))]
        assert [(r.passed, r.samples_checked) for r in reports] == [(False, 5), (False, 5)]
        assert reports[0].counterexample == {
            "vector": [3.8064001756786245, 83.7407452880671], "value": 43.08212163623823,
            "starred_value": 43.77357273187286, "gap": 0.6914510956346334}
        assert reports[0].max_residual == 0.6914510956346334
        tiny = reports[1].counterexample
        assert set(tiny) == {"vector", "value", "starred_value", "gap"}
        assert tiny["gap"] == tiny["starred_value"] - tiny["value"] > 0.01 * tiny["value"]
