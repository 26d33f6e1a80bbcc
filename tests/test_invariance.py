import dataclasses
import math
import random

import pytest

from meanforge import (
    ArityError,
    BetaMean,
    ConvergenceError,
    DerivedMean,
    DomainError,
    HypothesisViolation,
    InvariantMean,
    MeanOuter,
    PowerMean,
    ProblemSpec,
    SamplePlan,
    Sum,
    assert_strict,
    complementary_mean,
    eval_mean,
    gauss_iterate,
    invariant_mean,
    power_mean,
    verify_invariance,
)

# self-oracle: two-term iteration (a,b) <- ((a+b)/2, sqrt(ab)) run to 1e-15
AGM_1_2 = 1.4567910310469068


class TestGaussIterate:
    def test_arithmetic_harmonic_reaches_geometric(self):
        trace = gauss_iterate((PowerMean(1), PowerMean(-1)), (2.0, 8.0))
        assert trace.converged
        assert trace.limit == pytest.approx(4.0, rel=1e-12)

    def test_constant_start_is_instant(self):
        trace = gauss_iterate((PowerMean(1), PowerMean(0)), (3.0, 3.0))
        assert trace.converged
        assert trace.iterations == 0
        assert trace.limit == 3.0

    def test_agm_matches_self_oracle(self):
        trace = gauss_iterate((PowerMean(1), PowerMean(0)), (1.0, 2.0))
        assert trace.converged
        assert trace.limit == pytest.approx(AGM_1_2, rel=1e-12)

    def test_limit_within_range(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(2, 4)
            family = tuple(PowerMean(rng.uniform(-5, 5)) for _ in range(n))
            v = tuple(rng.uniform(0.01, 100.0) for _ in range(n))
            trace = gauss_iterate(family, v)
            assert trace.converged
            slack = 1e-12 * max(v)
            assert min(v) - slack <= trace.limit <= max(v) + slack

    def test_power_pairs_converge_quickly(self):
        rng = random.Random(13)
        for _ in range(300):
            s, t = rng.uniform(-5, 5), rng.uniform(-5, 5)
            v = (rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0))
            trace = gauss_iterate((PowerMean(s), PowerMean(t)), v)
            assert trace.converged and trace.iterations <= 200

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            gauss_iterate((PowerMean(1),), (1.0, 2.0))

    def test_unasserted_derived_rejected(self):
        opaque = DerivedMean(name="opaque", fn=lambda sv: sv[0])
        with pytest.raises(HypothesisViolation):
            gauss_iterate((PowerMean(1), opaque), (1.0, 2.0))
        # the assertion path unlocks it
        trace = gauss_iterate((PowerMean(1), assert_strict(opaque)), (1.0, 2.0))
        assert trace.converged

    def test_assert_strict_takes_only_opaque_means(self):
        opaque = DerivedMean(name="opaque", fn=lambda sv: sv[0])
        asserted = assert_strict(opaque)
        assert asserted.strict and asserted.name == "opaque" and asserted.fn is opaque.fn
        problem = ProblemSpec(Sum(), (PowerMean(0),), (PowerMean(-1), PowerMean(1)))
        with pytest.raises(DomainError, match="wrap its evaluation in a DerivedMean"):
            assert_strict(problem)

    def test_non_mean_escape_detected(self):
        runaway = DerivedMean(name="runaway", fn=lambda sv: 2.0 * sv[-1],
                              strict=True)
        with pytest.raises(HypothesisViolation):
            gauss_iterate((PowerMean(1), runaway), (1.0, 2.0))

    def test_beta_mean_is_admissible(self):
        trace = gauss_iterate((BetaMean(), PowerMean(2)), (1.0, 9.0))
        assert trace.converged


class TestInvariantMean:
    def test_equals_geometric_for_arithmetic_harmonic(self):
        compound = invariant_mean((PowerMean(1), PowerMean(-1)))
        rng = random.Random(2)
        for _ in range(200):
            v = (rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0))
            assert eval_mean(compound, v) == pytest.approx(power_mean(0, v), rel=1e-10)

    def test_idempotent_family(self):
        compound = invariant_mean((PowerMean(2), PowerMean(2)))
        v = (3.0, 7.0)
        assert eval_mean(compound, v) == pytest.approx(power_mean(2, v), rel=1e-12)

    def test_result_is_strict_and_named(self):
        compound = invariant_mean((PowerMean(1), PowerMean(0)))
        assert compound.strict
        assert compound.arity == 2
        assert str(compound) == "invariant{M=[P[1],P[0]]}"

    def test_non_positive_constant_start_rejected(self):
        compound = invariant_mean((PowerMean(1), PowerMean(0)))
        for v in ((-3.0, -3.0), (0.0, 0.0)):
            with pytest.raises(DomainError):
                eval_mean(compound, v)
            with pytest.raises(DomainError):
                gauss_iterate((PowerMean(1), PowerMean(0)), v)

    def test_iteration_cap_reports_unconverged(self, monkeypatch):
        from meanforge import invariance
        monkeypatch.setattr(invariance, "DEFAULT_CAP", 2)
        trace = gauss_iterate((PowerMean(1), PowerMean(-1)), (1.0, 100.0))
        assert trace.iterations == 2 and not trace.converged
        with pytest.raises(ConvergenceError):
            eval_mean(invariant_mean((PowerMean(1), PowerMean(-1))), (1.0, 100.0))

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, math.inf, math.nan])
    def test_tolerance_must_lie_in_unit_interval(self, tol):
        family = (PowerMean(1), PowerMean(0))
        with pytest.raises(DomainError, match="tolerance"):
            invariant_mean(family, tol=tol)
        with pytest.raises(DomainError, match="tolerance"):
            InvariantMean(family, tol=tol, name="agm")
        with pytest.raises(DomainError, match="tolerance"):
            gauss_iterate(family, (1.0, 2.0), tol=tol)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ArityError):
            eval_mean(invariant_mean((PowerMean(1), PowerMean(0))), (1.0, 2.0, 3.0))

    def test_value_equality_ignores_name(self):
        family = (PowerMean(1), PowerMean(0))
        compound = invariant_mean(family)
        assert compound == invariant_mean(list(family)) == InvariantMean(family)
        renamed = InvariantMean(family, name="agm")
        assert renamed == compound and hash(renamed) == hash(compound)
        assert str(renamed) == "agm"
        assert compound != invariant_mean(family, tol=1e-9)

    def test_unasserted_member_rejected_at_construction(self):
        opaque = DerivedMean(name="opaque", fn=lambda sv: sv[0])
        with pytest.raises(HypothesisViolation):
            invariant_mean((PowerMean(1), opaque))

    def test_node_checks_its_own_family(self):
        assert invariant_mean is InvariantMean
        opaque = DerivedMean(name="opaque", fn=lambda sv: sv[0])
        problem = ProblemSpec(Sum(), (PowerMean(0),), (PowerMean(-1), PowerMean(1)))
        for member in (opaque, problem):
            with pytest.raises(HypothesisViolation, match="not known to be strict"):
                InvariantMean((PowerMean(1), member))
            with pytest.raises(HypothesisViolation, match="not known to be strict"):
                MeanOuter(InvariantMean((PowerMean(1), member)))
        with pytest.raises(ArityError, match="at least one mean"):
            InvariantMean(())
        agm = InvariantMean((PowerMean(1), PowerMean(0)))
        with pytest.raises(HypothesisViolation):
            dataclasses.replace(agm, family=(PowerMean(1), opaque))

    def test_symmetry_is_exact(self):
        compound = invariant_mean((PowerMean(1), PowerMean(0)))
        rng = random.Random(31)
        for _ in range(100):
            v = (rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0))
            assert eval_mean(compound, v) == eval_mean(compound, tuple(reversed(v)))


class TestVerifyInvariance:
    def test_geometric_is_invariant(self):
        plan = SamplePlan(arity=2, count=300, seed=4)
        report = verify_invariance(PowerMean(0), (PowerMean(1), PowerMean(-1)), plan)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_arithmetic_is_not(self):
        plan = SamplePlan(arity=2, count=300, seed=4)
        report = verify_invariance(PowerMean(1), (PowerMean(1), PowerMean(-1)), plan)
        assert not report.passed
        assert report.counterexample is not None

    def test_every_mean_fixes_its_own_duplicate_family(self):
        plan = SamplePlan(arity=3, count=100, seed=4)
        for mean in (PowerMean(2.5), BetaMean()):
            report = verify_invariance(mean, (mean, mean, mean), plan, tol=1e-12)
            assert report.passed

    def test_plan_arity_must_match(self):
        with pytest.raises(ArityError):
            verify_invariance(PowerMean(0), (PowerMean(1), PowerMean(-1)),
                              SamplePlan(arity=3, count=10, seed=0))


class TestComplementaryMean:
    def test_arithmetic_harmonic_complement_is_harmonic(self):
        # K is the geometric mean; balancing the arithmetic prefix forces
        # x * A(v) = v1 * v2, i.e. the harmonic mean
        complement = complementary_mean((PowerMean(1),), (PowerMean(1), PowerMean(-1)))
        rng = random.Random(6)
        for _ in range(100):
            v = (rng.uniform(0.01, 100.0), rng.uniform(0.01, 100.0))
            want = v[0] * v[1] / ((v[0] + v[1]) / 2.0)
            assert eval_mean(complement, v) == pytest.approx(want, rel=1e-8)

    def test_constant_vector(self):
        complement = complementary_mean((PowerMean(1),), (PowerMean(1), PowerMean(-1)))
        assert eval_mean(complement, (4.0, 4.0)) == pytest.approx(4.0, rel=1e-12)

    def test_defining_equation_residual(self):
        family = (PowerMean(1), PowerMean(-1), PowerMean(2))
        small = (PowerMean(1),)
        complement = complementary_mean(small, family)
        invariant = invariant_mean(family)
        extended = small + (complement,) * 2
        plan = SamplePlan(arity=3, count=100, seed=12)
        report = verify_invariance(invariant, extended, plan, tol=1e-8)
        assert report.passed

    def test_is_an_implicit_mean_under_the_invariant_outer(self):
        family = (PowerMean(1), PowerMean(-1))
        complement = complementary_mean((PowerMean(1),), family)
        assert complement == ProblemSpec(MeanOuter(InvariantMean(family)),
                                         (PowerMean(1),), family)
        assert str(complement) == \
            "T{mu=mean[invariant{M=[P[1],P[-1]]}]; S=[P[1]]; M=[P[1],P[-1]]}"

    def test_refuted_embedding_raises(self):
        with pytest.raises(HypothesisViolation):
            complementary_mean((PowerMean(9),), (PowerMean(1), PowerMean(-1)))

    def test_classical_two_term_complement(self):
        # with the family (M1, K-fixed-point pair) and prefix (M1), the
        # complement solves K(M1(v), x) = K(v) -- the classical setting
        family = (PowerMean(2), PowerMean(0))
        complement = complementary_mean((PowerMean(2),), family)
        invariant = invariant_mean(family)
        rng = random.Random(18)
        for _ in range(50):
            v = (rng.uniform(0.1, 50.0), rng.uniform(0.1, 50.0))
            lhs = eval_mean(invariant, (power_mean(2, v), eval_mean(complement, v)))
            rhs = eval_mean(invariant, v)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestMeanPropertyOfLimits:
    def test_spread_never_expands(self):
        # indirectly: a family member leaving [min, max] raises; these do not
        rng = random.Random(40)
        for _ in range(50):
            family = (PowerMean(rng.uniform(-5, 5)), BetaMean(),
                      PowerMean(rng.uniform(-5, 5)))
            v = tuple(rng.uniform(0.1, 10.0) for _ in range(3))
            trace = gauss_iterate(family, v)
            assert trace.converged
            assert min(v) <= trace.limit <= max(v)

    def test_invariance_residual_of_limit(self):
        family = (PowerMean(1), PowerMean(0))
        compound = invariant_mean(family)
        plan = SamplePlan(arity=2, count=200, seed=77)
        report = verify_invariance(compound, family, plan, tol=1e-10)
        assert report.passed
