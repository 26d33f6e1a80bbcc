import math
import random

import pytest
from hypothesis import given, strategies as st

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
    complementary_mean,
    eval_mean,
    gauss_iterate,
    invariant_mean,
    power_mean,
    verify_invariance,
)
from meanforge.means import DEFAULT_TOL, check_strict_family

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

    def test_float_resolution_ends_the_iteration(self):
        # at tol=1e-17 (below the float spacing) and at subnormal starts the
        # iterate settles with no float inside [min, max], as a bisection
        # bracket does, instead of running to the cap
        rng = random.Random(17)
        for family in ((PowerMean(1), PowerMean(0)), (PowerMean(1), PowerMean(-1)),
                       (PowerMean(2), PowerMean(-1)),
                       (PowerMean(1), PowerMean(0), PowerMean(-1))):
            for _ in range(100):
                scale = rng.choice((1.0, 1e200, 1e-200, 1e300, 1e-300))
                wide = tuple(scale * math.exp(rng.uniform(-7.0, 7.0)) for _ in family)
                subnormal = tuple(rng.randint(1, 2 ** 20) * 5e-324 for _ in family)
                for v, tol in ((wide, 1e-17), (subnormal, DEFAULT_TOL)):
                    trace = gauss_iterate(family, v, tol)
                    assert trace.converged and trace.iterations <= 64, (family, v)
                    assert min(v) <= trace.limit <= max(v)

    def test_a_fixed_point_in_floats_settles(self):
        # at these floats 1 ulp apart, P[1] is the middle one and P[0] and P[-1] round
        # to the outer two: every step returns the iterate, 2 ulp wide
        family = (PowerMean(1), PowerMean(0), PowerMean(-1))
        v = tuple(float.fromhex(f"0x1.de13ff37d053{d}p+0") for d in "786")
        trace = gauss_iterate(family, v, 1e-17)
        assert (trace.iterations, trace.final_spread, trace.limit, trace.converged) == \
            (1, v[1] - v[2], v[0], True)

    def test_a_wide_fixed_point_does_not_settle(self):
        # P[1e17] rounds to max and P[-1e17] to min, so each step swaps the entries;
        # the limit, sqrt(2) (P[s]*P[-s] = ab at two entries), is no midpoint of (1, 2)
        from meanforge import invariance
        trace = gauss_iterate((PowerMean(1e17), PowerMean(-1e17)), (1.0, 2.0))
        assert (trace.iterations, trace.final_spread, trace.converged) == (invariance.DEFAULT_CAP, 1.0, False)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            gauss_iterate((PowerMean(1),), (1.0, 2.0))

    def test_errors_come_tol_then_start_then_length_then_family(self):
        opaque = DerivedMean(name="opaque", fn=lambda sv: sv[0])
        with pytest.raises(DomainError, match="tolerance must lie strictly between 0 and 1"):
            gauss_iterate((PowerMean(1), opaque), (1.0, math.inf), tol=2.0)
        with pytest.raises(DomainError, match="vector entries must be finite"):
            gauss_iterate((PowerMean(1), opaque), (1.0, math.nan))
        with pytest.raises(ArityError, match="need one mean per coordinate: 2 means"):
            gauss_iterate((PowerMean(1), opaque), (1.0, 2.0, 3.0))
        with pytest.raises(HypothesisViolation, match="opaque is not known to be strict"):
            gauss_iterate((PowerMean(1), opaque), (-1.0, 2.0))

    def test_unasserted_derived_rejected(self):
        opaque = DerivedMean(name="opaque", fn=lambda sv: sv[0])
        with pytest.raises(HypothesisViolation):
            gauss_iterate((PowerMean(1), opaque), (1.0, 2.0))
        # built with strict=True, it is admitted
        asserted = DerivedMean(name="opaque", fn=lambda sv: sv[0], strict=True)
        trace = gauss_iterate((PowerMean(1), asserted), (1.0, 2.0))
        assert trace.converged

    def test_problem_member_refused_with_the_strictness_rule(self):
        problem = ProblemSpec(Sum(), (PowerMean(0),), (PowerMean(-1), PowerMean(1)))
        with pytest.raises(HypothesisViolation) as refused:
            check_strict_family((PowerMean(1), problem))
        assert str(refused.value) == (
            "T{mu=sum; S=[P[0]]; M=[P[-1],P[1]]} is not known to be strict; strict means "
            "are power means P[s], B, invariant means (invariant{M=[...]} or a registered "
            "name) and, from the library, a DerivedMean built with strict=True")

    def test_non_mean_escape_detected(self):
        runaway = DerivedMean(name="runaway", fn=lambda sv: 2.0 * sv[-1],
                              strict=True)
        with pytest.raises(HypothesisViolation):
            gauss_iterate((PowerMean(1), runaway), (1.0, 2.0))

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_escape_caught_on_the_first_step_at_every_scale(self, scale):
        # the containment slack is relative, so the witness iterate is the
        # start vector, also far below 1
        runaway = DerivedMean(name="runaway", fn=lambda sv: 2.0 * sv[-1],
                              strict=True)
        with pytest.raises(HypothesisViolation) as caught:
            gauss_iterate((PowerMean(1), runaway), (scale, 2.0 * scale))
        assert caught.value.witness["iterate"] == [scale, 2.0 * scale]

    def test_containment_slack_is_relative_to_each_end(self):
        # 2.5e-15 below min is within 8 ulp of max but not of min: refused at the first step
        dip = DerivedMean(name="dip", strict=True,
                          fn=lambda sv: sv[0] * (1.0 - 2.5e-15) if sv[-1] > 2.0 * sv[0] else sv[0])
        with pytest.raises(HypothesisViolation) as caught:
            gauss_iterate((PowerMean(1), dip), (1.0, 1e6))
        assert caught.value.witness["iterate"] == [1.0, 1e6]

    @pytest.mark.parametrize("value", [math.nan, math.inf, "2.0"])
    def test_derived_result_checked_in_a_family(self, value):
        # a NaN iterate would pass the containment check (its comparisons are
        # False) and run to the iteration cap, were the result not checked
        broken = DerivedMean(name="broken", fn=lambda sv: value, strict=True)
        with pytest.raises(DomainError, match="broken returned .*not a finite float"):
            gauss_iterate((PowerMean(1), broken), (1.0, 2.0))
        with pytest.raises(DomainError, match="broken returned .*not a finite float"):
            eval_mean(invariant_mean((PowerMean(1), broken)), (1.0, 2.0))

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
        with pytest.raises(HypothesisViolation):
            InvariantMean((PowerMean(1), opaque), name="agm")

    def test_member_pinned_to_another_arity_rejected(self):
        # every iterate of a family of n means has n entries, so a member that
        # takes another count could never be evaluated
        agm = invariant_mean((PowerMean(1), PowerMean(0)), name="agm")
        pinned = DerivedMean("mid", lambda sv: 0.5 * (sv[0] + sv[-1]), arity=2, strict=True)
        for member in (agm, pinned):
            with pytest.raises(ArityError, match=f"^{member} takes 2 entries, but the "
                                                 "family has 3 means$"):
                InvariantMean((member, PowerMean(1), PowerMean(2)))
            with pytest.raises(ArityError, match="takes 2 entries"):
                check_strict_family((PowerMean(1), member, PowerMean(2)))
            # at its own arity the member is admitted
            assert eval_mean(InvariantMean((member, PowerMean(1))), (1.0, 2.0)) > 1.0

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

    def test_residual_is_relative_below_one(self):
        # an absolute floor of 1 would let the arithmetic mean pass here
        plan = SamplePlan(arity=2, count=50, seed=1, lower=1e-20, upper=1e-18)
        family = (PowerMean(1), PowerMean(-1))
        assert not verify_invariance(PowerMean(1), family, plan).passed
        assert verify_invariance(PowerMean(0), family, plan).passed

    @pytest.mark.parametrize("fn", [lambda sv: 0.0, lambda sv: -sv[0]])
    def test_non_positive_candidate_fails(self, fn):
        plan = SamplePlan(arity=2, count=20, seed=1)
        candidate = DerivedMean(name="bad", fn=fn)
        report = verify_invariance(candidate, (PowerMean(1), PowerMean(-1)), plan)
        assert not report.passed

    def test_every_mean_fixes_its_own_duplicate_family(self):
        plan = SamplePlan(arity=3, count=100, seed=4)
        for mean in (PowerMean(2.5), BetaMean()):
            report = verify_invariance(mean, (mean, mean, mean), plan)
            assert report.passed and report.max_residual <= 1e-12

    def test_builds_the_family_plan_once(self, plan_calls):
        family = (PowerMean(1), PowerMean(-1))
        report = verify_invariance(PowerMean(0), family, SamplePlan(arity=2, count=20, seed=1))
        assert report.passed and report.samples_checked == 20
        assert plan_calls == [family]

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
        report = verify_invariance(invariant, extended, plan)
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

    def test_embedding_is_sampled_at_the_family_arity(self):
        # an invariant mean in the family takes 2 entries, so the embedding
        # check samples 2-vectors: H <= G <= AGM embeds P[0], while P[1] >= AGM
        family = (invariant_mean((PowerMean(1), PowerMean(0))), PowerMean(-1))
        complement = complementary_mean((PowerMean(0),), family)
        assert 2.0 <= eval_mean(complement, (2.0, 8.0)) <= 8.0
        with pytest.raises(HypothesisViolation) as err:
            complementary_mean((PowerMean(1),), family)
        assert len(err.value.witness["vector"]) == 2

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
        report = verify_invariance(compound, family, plan)
        assert report.passed and report.max_residual <= 1e-10


def _reference_gauss(family, v, tol):
    """Gauss iteration written with public eval_mean calls only."""
    u = tuple(map(float, v))
    lo, hi = min(u), max(u)
    for _ in range(10_000):
        if hi - lo <= tol * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        u = tuple(eval_mean(m, u) for m in family)
        lo, hi = min(u), max(u)
    raise AssertionError("reference iteration did not converge")


members = st.one_of(
    st.integers(-16, 16).map(lambda k: PowerMean(k / 4)),
    st.floats(min_value=-6, max_value=6, allow_nan=False).map(PowerMean),
    st.just(BetaMean()),
)


class TestKernelBitIdentity:
    @given(st.lists(members, min_size=2, max_size=4).flatmap(lambda fam: st.tuples(
        st.just(tuple(fam)),
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=len(fam),
                 max_size=len(fam)))))
    def test_invariant_value_equals_public_reference_loop(self, case):
        family, v = case
        got = eval_mean(InvariantMean(family), v)
        want = _reference_gauss(family, v, DEFAULT_TOL)
        assert got == want  # bit for bit: the kernels are the public means


def _raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value), getattr(caught.value, "witness", None)


class TestBothEntryPointsShareOneKernel:
    """``eval_mean`` on the node and ``gauss_iterate`` run one loop: same faults, same text."""

    AH = (PowerMean(1), PowerMean(-1))
    RUNAWAY = DerivedMean(name="runaway", fn=lambda sv: 2.0 * sv[-1], strict=True)

    @pytest.mark.parametrize("family, v", [
        (AH, (1.0, 2.0, 3.0)),  # wrong arity
        (AH, (0.0, 2.0)),  # zero start
        (AH, (-1.0, 2.0)),  # negative start
        ((PowerMean(0), PowerMean(2), BetaMean()), (-3.0, -3.0, -3.0)),
        ((PowerMean(1), RUNAWAY), (1.0, 2.0)),  # escape from [min, max]
    ], ids=["arity", "zero", "negative", "negative-constant", "escape"])
    def test_same_error_class_text_and_witness(self, family, v):
        through_node = _raised(lambda: eval_mean(InvariantMean(family), v))
        assert through_node == _raised(lambda: gauss_iterate(family, v))
        assert through_node[0] in (ArityError, DomainError, HypothesisViolation)

    def test_escape_witness_is_the_start(self):
        _, _, witness = _raised(lambda: eval_mean(InvariantMean((PowerMean(1), self.RUNAWAY)),
                                                  (1.0, 2.0)))
        assert witness == {"iterate": [1.0, 2.0], "next": [1.5, 4.0]}

    def test_patched_cap_reaches_both(self, monkeypatch):
        from meanforge import invariance
        monkeypatch.setattr(invariance, "DEFAULT_CAP", 3)
        node = InvariantMean(self.AH)
        trace = gauss_iterate(self.AH, (1.0, 100.0))
        assert trace.iterations == 3 and not trace.converged
        assert _raised(lambda: eval_mean(node, (1.0, 100.0))) == (
            ConvergenceError, f"{node}: iteration spread {trace.final_spread!r} after 3 steps",
            None)

    def test_node_value_equals_trace_limit(self):
        for family in (self.AH, (PowerMean(1), PowerMean(0)), (BetaMean(), PowerMean(2)),
                       (PowerMean(2), PowerMean(3), PowerMean(-1), PowerMean(0))):
            v = tuple(float(k) for k in range(2, 2 + len(family)))
            assert eval_mean(InvariantMean(family), v) == gauss_iterate(family, v).limit

    def test_classification_is_not_a_field(self):
        a, b = InvariantMean(self.AH), InvariantMean(list(self.AH))
        assert a == b and hash(a) == hash(b)
        assert InvariantMean._fields == ("family", "tol", "name")
        assert repr(a) == ("InvariantMean(family=(PowerMean(order=1), PowerMean(order=-1)), "
                           "tol=1e-12, name=None)")


class TestScaledStarts:
    @given(st.lists(members, min_size=2, max_size=4).flatmap(lambda fam: st.tuples(
        st.just(tuple(fam)),
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=len(fam),
                 max_size=len(fam)),
        st.integers(-250, 250))))
    def test_builtin_families_never_escape(self, case):
        # the containment slack scales with the iterate, and the built-in
        # means stay inside [min, max] to a few ulp at every scale
        family, v, k = case
        start = tuple(x * 10.0 ** k for x in v)
        trace = gauss_iterate(family, start)
        assert trace.converged
        assert min(start) * (1 - 1e-12) <= trace.limit <= max(start) * (1 + 1e-12)


def _mp_root(mpmath, f, lo, hi):
    """Root of the increasing ``f`` on [lo, hi] by 200 bisection steps."""
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestHighPrecisionOracles:
    """Invariant and complementary means against mpmath at 50 digits.

    Budgets: a limit stops at relative spread DEFAULT_TOL and reports the
    midpoint, so it is within DEFAULT_TOL of the true limit.  A complementary
    mean adds the solver's relative bracket width (DEFAULT_TOL) to the error
    of the invariant mean on both sides of its equation: 2e-12 in total.
    """

    def test_arithmetic_geometric_limit_is_agm(self):
        mpmath = pytest.importorskip("mpmath")
        ag = invariant_mean((PowerMean(1), PowerMean(0)))
        rng = random.Random(31)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(300):
                scale = rng.choice((1.0, 1e200, 1e-200))
                v = tuple(scale * math.exp(rng.uniform(-7.0, 7.0)) for _ in range(2))
                want = mpmath.agm(*map(mpmath.mpf, v))
                worst = max(worst, float(abs(eval_mean(ag, v) - want) / want))
        assert worst <= DEFAULT_TOL

    def test_complementary_means_of_the_agm(self, oracle):
        # K(P_s(v), T) = agm(v) with K the AGM, solved at 50 digits
        mpmath = oracle.mpmath
        rng = random.Random(32)
        worst = 0.0
        with mpmath.workdps(50):
            for s in (0.25, 0.5, 0.75):
                complement = complementary_mean((PowerMean(s),),
                                                (PowerMean(1), PowerMean(0)))
                for _ in range(10):
                    v = (rng.uniform(0.1, 100.0), rng.uniform(0.1, 100.0))
                    goal = mpmath.agm(*map(mpmath.mpf, v))
                    prefix = oracle.exact_power_mean(s, v)
                    want = _mp_root(mpmath, lambda t: mpmath.agm(prefix, t) - goal,
                                    min(v), max(v))
                    worst = max(worst, float(abs(eval_mean(complement, v) - want) / want))
        assert worst <= 2e-12

    def test_complementary_means_of_the_geometric(self, oracle):
        # the arithmetic-harmonic invariant mean is sqrt(v1*v2), so the
        # complement of P_s is v1*v2 / P_s(v)
        mpmath = oracle.mpmath
        rng = random.Random(33)
        worst = 0.0
        with mpmath.workdps(50):
            for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
                complement = complementary_mean((PowerMean(s),),
                                                (PowerMean(1), PowerMean(-1)))
                for _ in range(20):
                    v = (rng.uniform(0.1, 100.0), rng.uniform(0.1, 100.0))
                    want = mpmath.mpf(v[0]) * v[1] / oracle.exact_power_mean(s, v)
                    worst = max(worst, float(abs(eval_mean(complement, v) - want) / want))
        assert worst <= 2e-12
