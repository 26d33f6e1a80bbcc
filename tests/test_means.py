import math
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

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
    check_mean_property,
    eval_mean,
    eval_outer,
    gauss_iterate,
    power_mean,
)
from meanforge import means
from meanforge.means import (GEOMETRIC_ORDER, _MIN_NORMAL, _eval_mean, _eval_outer, _power_mean,
                             _unit_power, format_number)

positive = st.floats(min_value=1e-3, max_value=1e6,
                     allow_nan=False, allow_infinity=False)
positive_vectors = st.lists(positive, min_size=1, max_size=6).map(tuple)
orders = st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False)


def _eval_family(family, v):
    """``means._eval_family`` at ``v``, with the family's plan built as its owner builds it."""
    return means._eval_family(family, means._power_plan(family), v, min(v), max(v))


class TestPowerMean:
    def test_arithmetic(self):
        assert power_mean(1, (2, 8)) == 5.0

    def test_geometric(self):
        assert power_mean(0, (2, 8)) == 4.0

    def test_negative_order(self):
        # independent oracle: ((1 + 1/16)/2)**(-1/2)
        assert power_mean(-2, (1, 4)) == pytest.approx(1.3719886811400708, rel=1e-14)

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(DomainError):
            power_mean(2, (1.0, 0.0))
        with pytest.raises(DomainError):
            power_mean(2, (-1.0, 2.0))

    def test_nonfinite_order_rejected(self):
        with pytest.raises(DomainError):
            power_mean(math.inf, (1.0, 2.0))

    @given(orders, positive_vectors)
    def test_mean_property(self, s, v):
        assert min(v) <= power_mean(s, v) <= max(v)

    @pytest.mark.parametrize("order, v", [
        # unclamped, one ulp above the maximum, and inf
        (-3, (1.8268716790242738, 1.8268716790242736, 1.8268716790242738)),
        (-1, (1.7976931348623157e308, 1.7976931348623157e308, 1.7976931348623155e308)),
    ])
    def test_value_clamped_into_min_max(self, order, v):
        assert power_mean(order, v) == max(v)
        # and so is a member of a power family, which shares its logs
        assert _eval_family((PowerMean(order), PowerMean(2)), v)[0] == max(v)

    @given(orders, orders, positive_vectors)
    def test_monotone_in_order(self, s, t, v):
        s, t = min(s, t), max(s, t)
        a, b = power_mean(s, v), power_mean(t, v)
        assert a <= b + 1e-12 * max(1.0, abs(b))

    @given(positive_vectors)
    def test_continuity_at_zero(self, v):
        g = power_mean(0.0, v)
        for s in (1e-6, -1e-6):
            assert power_mean(s, v) == pytest.approx(g, rel=1e-4)

    def test_mpmath_oracle(self, oracle):
        rng = random.Random(8)
        worst = 0.0
        with oracle.mpmath.workdps(50):
            for s in (1e-12, 1e-9, 1e-8, 1e-6, 1e-3, 0.5, 1.0, 2.0, 7.5, 300.0):
                for order in (s, -s, 0.0):
                    for scale in (1.0, 1e200, 1e-200):
                        for _ in range(12):
                            v = [scale * rng.uniform(0.01, 100.0)
                                 for _ in range(rng.randint(2, 6))]
                            want = oracle.exact_power_mean(order, v)
                            worst = max(worst, float(abs(power_mean(order, v) - want) / want))
        assert worst <= 4e-15

    def test_orders_below_double_resolution_are_geometric(self):
        v = (1.0, 2.0, 9.0)
        g = power_mean(0.0, v)
        for s in (5e-324, -1e-300, 1e-281):
            assert power_mean(s, v) == pytest.approx(g, rel=1e-15)

    def test_ratios_beyond_the_normal_floats(self):
        v = (1e-200, 1e200)
        assert power_mean(1, v) == pytest.approx(5e199, rel=1e-15)
        assert power_mean(-1, v) == pytest.approx(2e-200, rel=1e-15)
        assert power_mean(0, v) == pytest.approx(1.0, rel=1e-13)
        assert power_mean(2, (1e-320, 1e200, 3.0)) == \
            pytest.approx(1e200 / math.sqrt(3), rel=1e-15)

    def test_wide_ratio_mpmath_oracle(self, oracle):
        # min/max below the normal floats with a normal result: exp of the
        # mean log-ratio can overflow or underflow although the mean cannot
        cases = [(0.0, (1e-310, 1.7e308)), (0.0, (1e-300, 1e300, 1e300)),
                 (1e-5, (1e-250, 1.7e308, 4.736943812155205e-271)),
                 (0.0, (5e-324,) + (1.7e308,) * 99)]
        rng = random.Random(21)
        while len(cases) < 1500:
            v = tuple(math.exp(rng.uniform(-744.0, 709.0))
                      for _ in range(rng.randint(2, 6)))
            if min(v) / max(v) < sys.float_info.min:
                cases.append((rng.choice((0.0, 1e-5, -1e-5, rng.uniform(-3.0, 3.0),
                                          rng.uniform(-300.0, 300.0))), v))
        worst = 0.0
        with oracle.mpmath.workdps(60):
            for order, v in cases:
                want = oracle.exact_power_mean(order, v)
                if not sys.float_info.min <= want <= sys.float_info.max:
                    continue
                got = power_mean(order, v)
                assert min(v) <= got <= max(v), (order, v, got)
                worst = max(worst, float(abs(got - want) / want))
        assert worst <= 5e-13

    def test_extreme_orders_do_not_overflow(self):
        v = (1e-8, 1.0, 1e8)
        assert power_mean(500, v) <= 1e8
        assert power_mean(-500, v) >= 1e-8

    @given(positive_vectors, st.randoms(use_true_random=False))
    def test_bit_exact_symmetry(self, v, rng):
        p = list(v)
        rng.shuffle(p)
        for s in (-2.5, 0.0, 1.0, 3.0):
            assert power_mean(s, v) == power_mean(s, p)


# On either side of each boundary between the power-mean kernel's routes: min/max
# at _MIN_NORMAL (ratio logs or log differences), |s| at GEOMETRIC_ORDER (logs or
# expm1 terms) and the mean log m at +-700 (where the wide route's exp is split).
_ABOVE, _BELOW = math.nextafter(_MIN_NORMAL, 1.0), math.nextafter(_MIN_NORMAL, 0.0)
_JUST_GEOMETRIC = math.nextafter(GEOMETRIC_ORDER, 0.0)
ROUTE_PINS = [
    (1.0, (_ABOVE * 1.0, 1e-100, 1.0), "0x1.5555555555556p-2"),
    (-1.0, (_ABOVE * 1.0, 1e-100, 1.0), "0x1.8000000000000p-1021"),
    (0.0, (_ABOVE * 1.0, 1e-100, 1.0), "0x1.84ab2aed9645ap-452"),
    (2.5, (_ABOVE * 1.0, 1e-100, 1.0), "0x1.49ee032821818p-1"),
    (-3.0, (_ABOVE * 1.0, 1e-100, 1.0), "0x1.7137449123ef7p-1022"),
    (1.0, (_ABOVE * 1024.0, 1.024e-97, 1024.0), "0x1.5555555555556p+8"),
    (-1.0, (_ABOVE * 1024.0, 1.024e-97, 1024.0), "0x1.8000000000000p-1011"),
    (0.0, (_ABOVE * 1024.0, 1.024e-97, 1024.0), "0x1.84ab2aed9645ap-442"),
    (2.5, (_ABOVE * 1024.0, 1.024e-97, 1024.0), "0x1.49ee032821818p+9"),
    (-3.0, (_ABOVE * 1024.0, 1.024e-97, 1024.0), "0x1.7137449123ef7p-1012"),
    (1.0, (_BELOW * 1.0, 1e-100, 1.0), "0x1.5555555555556p-2"),
    (-1.0, (_BELOW * 1.0, 1e-100, 1.0), "0x1.7fffffffffffep-1021"),
    (0.0, (_BELOW * 1.0, 1e-100, 1.0), "0x1.84ab2aed96456p-452"),
    (2.5, (_BELOW * 1.0, 1e-100, 1.0), "0x1.49ee032821818p-1"),
    (-3.0, (_BELOW * 1.0, 1e-100, 1.0), "0x1.7137449123ef5p-1022"),
    (1.0, (_BELOW * 1024.0, 1.024e-97, 1024.0), "0x1.5555555555556p+8"),
    (-1.0, (_BELOW * 1024.0, 1.024e-97, 1024.0), "0x1.7fffffffffffep-1011"),
    (0.0, (_BELOW * 1024.0, 1.024e-97, 1024.0), "0x1.84ab2aed96456p-442"),
    (2.5, (_BELOW * 1024.0, 1.024e-97, 1024.0), "0x1.49ee032821818p+9"),
    (-3.0, (_BELOW * 1024.0, 1.024e-97, 1024.0), "0x1.7137449123ef5p-1012"),
    (GEOMETRIC_ORDER, (0.5, 3.0, 7.0), "0x1.184a0aa58191fp+1"),
    (GEOMETRIC_ORDER, (1e-310, 1.0, 1e+300), "0x1.e6b4b3964297fp-12"),
    (-GEOMETRIC_ORDER, (0.5, 3.0, 7.0), "0x1.184a0aa58191ep+1"),
    (-GEOMETRIC_ORDER, (1e-310, 1.0, 1e+300), "0x1.e6b4b3964286ap-12"),
    (_JUST_GEOMETRIC, (0.5, 3.0, 7.0), "0x1.184a0aa58191fp+1"),
    (_JUST_GEOMETRIC, (1e-310, 1.0, 1e+300), "0x1.e6b4b39642d4dp-12"),
    (-_JUST_GEOMETRIC, (0.5, 3.0, 7.0), "0x1.184a0aa58191fp+1"),
    (-_JUST_GEOMETRIC, (1e-310, 1.0, 1e+300), "0x1.e6b4b3964286ap-12"),
    (0.0, (1e-310, 1.0082976962420251e+298), "0x1.0d8bfe921b2dbp-20"),
    (0.0, (1e-310, 1.0494471058420255e+298), "0x1.12fdf7b2c110fp-20"),
    (8.46e-05, (5e-324,) * 8 + (1e20,), "0x1.762c574cb4c2dp-944"),
    (8.48e-05, (5e-324,) * 8 + (1e20,), "0x1.78924304ba4a1p-944"),
    (0.0016, (5e-324, 5e-324, 5e-324, 1e+300), "0x1.5da64d4b5bf7ep-16"),
    (0.00161, (5e-324, 5e-324, 5e-324, 1e+300), "0x1.b4b6a43a4fceep-13"),
    (0.0053, (3e-308,) * 999 + (1.0,), "0x1.73958280a3002p-1011"),
    (0.0055, (3e-308,) * 999 + (1.0,), "0x1.b242b1f5e9fd4p-1010"),
]


@pytest.mark.parametrize("order, v, bits", ROUTE_PINS)
def test_power_mean_pinned_at_route_boundaries(order, v, bits):
    # the kernel itself: power_mean takes the exact forms at orders 1 and -1 (TestUnitOrders)
    assert _power_mean(order, v).hex() == bits


class TestUnitOrders:
    """P[1] and P[-1], from exactly rounded sums, against mpmath."""

    @staticmethod
    def exact(oracle, order, v):
        with oracle.mpmath.workdps(60):
            mean = oracle.exact_power_mean(order, v)
            return float(mean), mean

    @pytest.mark.parametrize("v", [v for order, v, _ in ROUTE_PINS[:20] if order == 1.0],
                             ids=lambda v: v[0].hex())
    def test_at_the_kernel_route_vectors(self, oracle, v):
        # P[1] as mpmath rounds it, where the kernel was 1 ulp off; P[-1] stays the
        # kernel's, since the smallest entry lies below 2**-960
        assert power_mean(1.0, v) == self.exact(oracle, 1.0, v)[0]
        assert power_mean(-1.0, v) == _power_mean(-1.0, v)
        if v[0] == _ABOVE:
            assert power_mean(1.0, v).hex() == "0x1.5555555555555p-2"

    @pytest.mark.parametrize("order, bound", [(1.0, 2.0 ** -53), (-1.0, 1.5 * 2.0 ** -52)])
    def test_mpmath_by_class(self, oracle, order, bound):
        # ordinary, near-constant and wide vectors; on wide ones P[-1] takes the kernel
        # where an entry leaves [2**-960, 2**960]
        rng = random.Random(31)
        worst = {"ordinary": 0.0, "near-constant": 0.0, "wide": 0.0}
        for _ in range(600):
            kind = rng.choice(list(worst))
            n = rng.randint(1, 8)
            if kind == "ordinary":
                v = [math.exp(rng.uniform(-7.0, 7.0)) for _ in range(n)]
            elif kind == "near-constant":
                base = math.exp(rng.uniform(-7.0, 7.0))
                v = [base * (1.0 + rng.random() * 1e-12) for _ in range(n)]
            else:
                v = [math.exp(rng.uniform(-690.0, 690.0)) for _ in range(n)]
            _, exact = self.exact(oracle, order, v)
            worst[kind] = max(worst[kind], float(abs(power_mean(order, v) - exact) / exact))
        assert worst["ordinary"] <= bound and worst["near-constant"] <= bound
        assert worst["wide"] <= (bound if order == 1.0 else 1e-15)

    @pytest.mark.parametrize("v", [(1.7e308, 1.7e308, 1e308), (sys.float_info.max,) * 3,
                                   (1.7e308, 1e-300, 1.7e308, 1.7e308, 5e-324)])
    def test_sum_that_overflows_is_scaled(self, oracle, v):
        # fsum(v) passes the largest float; the terms are scaled by a power of 2
        with pytest.raises(OverflowError):
            math.fsum(v)
        assert power_mean(1.0, v) == self.exact(oracle, 1.0, v)[0]

    @pytest.mark.parametrize("v", [(1.7e308, 1.6e308, 1.5e308), (6e-309, 6e-309, 6e-309, 6e-309),
                                   (1e-310, 1e-309)])
    def test_entries_beyond_the_reciprocal_range_take_the_kernel(self, oracle, v):
        # 1/x would be subnormal, overflow in fsum, or not be finite: the kernel's value
        assert power_mean(-1.0, v) == _power_mean(-1.0, v)
        _, exact = self.exact(oracle, -1.0, v)
        assert abs(power_mean(-1.0, v) - exact) <= 2e-16 * exact + 2.5e-324  # half a subnormal step


    @pytest.mark.parametrize("plus, minus", [((1.0, 2.0, 4.0), (1.5,)), ((3.0, 5.0, 9.0), (4.0, 8.0))])
    def test_minus_terms_at_order_minus_1_take_the_kernel(self, plus, minus):
        # n/fsum(1/plus) would drop them; the kernel subtracts them, and the clamp holds
        lo, hi = min(plus), max(plus)
        kernel = _power_mean(-1.0, plus, minus)
        assert _unit_power(-1.0, plus, minus, lo, hi) == min(max(kernel, lo), hi)
        assert _unit_power(-1.0, plus, minus, lo, hi) != _unit_power(-1.0, plus, (), lo, hi)


class TestBetaMean:
    def test_two_entries_is_harmonic(self):
        assert beta_mean((2, 8)) == 3.2

    def test_three_entries(self):
        # (3 * 6 / 6) ** (1/2)
        assert beta_mean((1, 2, 3)) == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_constant(self):
        assert beta_mean((7, 7, 7)) == 7.0

    def test_single_entry_rejected(self):
        with pytest.raises(ArityError):
            beta_mean((5,))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            beta_mean((2.0, -8.0))

    @given(st.lists(positive, min_size=2, max_size=6).map(tuple))
    def test_matches_harmonic_at_two_and_bounded(self, v):
        value = beta_mean(v)
        slack = 1e-12 * max(v)
        assert min(v) - slack <= value <= max(v) + slack
        if len(v) == 2:
            assert value == pytest.approx(power_mean(-1, v), rel=1e-12)

    def test_overflow_falls_back_to_logs(self):
        v = (1e300, 1e300, 1e300, 1e200)
        value = beta_mean(v)
        assert math.isfinite(value) and 1e200 <= value <= 1e300

    def test_sum_overflow_mpmath_oracle(self, oracle):
        # the sum overflows while the mean is finite, also when the product
        # alone stays finite: B is formed from v/max(v) and binary exponents
        top = sys.float_info.max
        cases = [(1e200, 1.7e308, 1.7e308), (1e-300, 1e-10, 1.7e308, 1.7e308),
                 (top, top, top), (top, top), (1e300, top, top)]
        rng = random.Random(22)
        while len(cases) < 400:
            v = tuple(math.exp(rng.uniform(-690.0, 709.0))
                      for _ in range(rng.randint(0, 4))) + \
                tuple(rng.uniform(0.9e308, 1.79e308) for _ in range(2))
            try:
                math.fsum(v)
            except OverflowError:
                cases.append(v)
        worst = 0.0
        with oracle.mpmath.workdps(60):
            for v in cases:
                want = oracle.exact_beta_mean(v)
                got = beta_mean(v)
                assert min(v) <= got <= max(v), (v, got)
                worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-15

    def test_many_entries_mpmath_oracle(self, oracle):
        # 1200 mantissa ratios near 2 (0.99 against 1.0) would overflow a plain
        # running product; the log-uniform vectors, underflow it
        rng = random.Random(24)
        cases = [(0.99,) * 1200 + (1.0,), (1.0,) * 1200 + (1.99,)] + [
            tuple(10.0 ** rng.uniform(-300, 300) for _ in range(1500)) for _ in range(3)]
        with oracle.mpmath.workdps(60):
            for v in cases:
                want = oracle.exact_beta_mean(v)
                assert float(abs(beta_mean(v) - want) / want) <= 1e-15, v[:3]

    def test_underflow_falls_back_to_logs(self):
        v = (1e-300, 1e-300, 1e-250)
        value = beta_mean(v)
        assert math.isfinite(value) and value > 0.0

    def test_extreme_scales_mpmath_oracle(self, oracle):
        # B is homogeneous, so scaling a vector by 10**k scales the mean; the
        # product must not pass through subnormals (a running product of
        # ascending entries can, even when the final product is normal) and
        # k * prod must not overflow.
        cases = [(5.346069680757384e+102, 5.346069671141807e+102, 5.346069671202936e+102),
                 (6.078814674336241e-162, 6.156731810816258e-162),
                 (1.1702650353800282e-176, 3.0934880786514272e-148,
                  6.968387262616463e+63, 3.1455193915752357e+189, 6.087629080000905e+251),
                 (1e-300, 1e-300, 1e300),
                 # the direct formula's rounded power fell below the minimum
                 (2.7376733570596885e+50, 2.7376733570596844e+50,
                  2.737673357059694e+50, 2.7376733570596935e+50)]
        rng = random.Random(23)
        while len(cases) < 600:
            k = rng.randint(2, 6)
            scale = 10.0 ** rng.randint(-300, 300)
            base = rng.uniform(1.0, 10.0)
            cases.append(rng.choice((
                tuple(scale * base * (1.0 + rng.random() * 1e-6) for _ in range(k)),
                tuple(scale * rng.uniform(1.0, 1e3) for _ in range(k)),
                tuple(math.exp(rng.uniform(-700.0, 700.0)) for _ in range(k)))))
        worst = 0.0
        with oracle.mpmath.workdps(60):
            for v in cases:
                want = oracle.exact_beta_mean(v)
                got = beta_mean(v)
                assert math.isfinite(got), v
                assert min(v) <= got <= max(v), v
                worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-15


class TestEvalMean:
    def test_dispatch(self):
        assert eval_mean(PowerMean(1), (2, 8)) == 5.0
        assert eval_mean(BetaMean(), (2, 8)) == 3.2

    def test_derived_receives_sorted_tuple(self):
        seen = []
        probe = DerivedMean(name="probe", fn=lambda sv: (seen.append(sv), sv[0])[1])
        eval_mean(probe, (3.0, 1.0, 2.0))
        assert seen == [(1.0, 2.0, 3.0)]

    def test_derived_arity_enforced(self):
        fixed = DerivedMean(name="fixed", fn=lambda sv: sv[0], arity=2)
        with pytest.raises(ArityError):
            eval_mean(fixed, (1.0, 2.0, 3.0))

    def test_derived_domain_enforced(self):
        first = DerivedMean(name="first", fn=lambda sv: sv[0])
        for v in ((5.0, 0.0), (-1.0, 2.0)):
            with pytest.raises(DomainError, match="first needs positive entries"):
                eval_mean(first, v)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "2.0", None, 2])
    def test_derived_result_must_be_a_finite_float(self, value):
        broken = DerivedMean(name="broken", fn=lambda sv: value)
        with pytest.raises(DomainError, match="broken returned .*not a finite float"):
            eval_mean(broken, (1.0, 2.0))

    @pytest.mark.parametrize("fn, cause", [
        (lambda sv: math.log(sv[0] - sv[1]), "math domain error"),
        (lambda sv: 1.0 / (sv[1] - sv[0]), "float division by zero"),
        (lambda sv: math.exp(1000.0 * sv[1]), "math range error"),
    ], ids=["ValueError", "ZeroDivisionError", "OverflowError"])
    def test_derived_callable_failure_is_a_domain_error(self, fn, cause):
        # the contract of errors.py: no bare ValueError/ArithmeticError escapes
        broken = DerivedMean("lg", fn)
        with pytest.raises(DomainError, match=re.escape(f"lg undefined at (2.0, 2.0): {cause}")):
            eval_mean(broken, (2, 2))

    @pytest.mark.parametrize("value", [math.nan, math.inf, "2.0"])
    def test_derived_result_checked_under_an_outer(self, value):
        outer = MeanOuter(DerivedMean(name="broken", fn=lambda sv: value, strict=True))
        with pytest.raises(DomainError, match="broken returned .*not a finite float"):
            eval_outer(outer, (1.0, 2.0))


# Orders on every branch of the power-mean formula: the geometric one below
# GEOMETRIC_ORDER (1e-280), either anchor, and repeats of one order.
special_orders = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.0, 1e-300,
                                  -1e-300, 9e-281, -5e-281, 3e-280])
some_orders = st.lists(st.one_of(orders, special_orders), min_size=1, max_size=3)
power_families = some_orders.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=5)).map(
    lambda chosen: tuple(PowerMean(s) for s in chosen))
other_means = st.sampled_from([
    BetaMean(), InvariantMean((PowerMean(1), PowerMean(-1))),
    DerivedMean("mid", lambda sv: 0.5 * (sv[0] + sv[-1]))])
mixed_families = st.lists(st.one_of(st.one_of(orders, special_orders).map(PowerMean),
                                    other_means), min_size=1, max_size=5).map(tuple)
family_vectors = st.one_of(
    positive_vectors,
    st.tuples(positive, st.integers(1, 6)).map(lambda c: (c[0],) * c[1]),
    st.tuples(positive, st.lists(st.integers(0, 3), min_size=1, max_size=6)).map(
        lambda c: tuple(c[0] + k * math.ulp(c[0]) for k in c[1])),  # near-constant
    st.sampled_from([(1e-310, 1.7e308), (1.7e308, 2.0, 1e-310), (5e-324, 1.0),
                     (1e-300, 1e300)]),  # min/max below the normal floats
    st.sampled_from([(1.7e308, 1.5e308, 1e308), (6e-309, 9e-309)]),  # past P[-1]'s sums
    st.lists(st.sampled_from([-1.0, 0.0, 2.0, 3.5]), min_size=1, max_size=4).map(tuple))


def _outcome(evaluate):
    """The exact bits of a family's values, or the type and text of its error."""
    try:
        return [x.hex() for x in evaluate()]
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


class TestFamilyKernel:
    @given(st.one_of(power_families, mixed_families), family_vectors)
    def test_bit_identical_to_member_by_member(self, family, v):
        want = _outcome(lambda: tuple(_eval_mean(m, v) for m in family))
        assert _outcome(lambda: _eval_family(family, v)) == want

    # balance_value and the sampled verifiers evaluate S and M as one family
    @given(st.one_of(power_families, mixed_families), st.one_of(power_families, mixed_families),
           family_vectors)
    def test_two_families_in_one_pass(self, first, second, v):
        want = _outcome(lambda: _eval_family(first, v) + _eval_family(second, v))
        assert _outcome(lambda: _eval_family(first + second, v)) == want

    @pytest.mark.parametrize("v", [(2.0, 0.0), (-1.0, 3.0, 4.0)])
    def test_same_domain_error_text(self, v):
        family = (PowerMean(1), PowerMean(-1), PowerMean(2))
        with pytest.raises(DomainError, match="power mean needs positive entries"):
            _eval_family(family, v)

    @given(power_families.filter(lambda f: len(f) > 1), positive_vectors)
    def test_gauss_matches_a_member_by_member_loop(self, family, start):
        start = (start * len(family))[:len(family)]
        u, steps = start, 0
        while max(u) - min(u) > 1e-12 * max(u) and steps < 10_000:
            u, steps = tuple(_eval_mean(m, u) for m in family), steps + 1
        trace = gauss_iterate(family, start)
        assert (trace.iterations, trace.limit) == (steps, 0.5 * (min(u) + max(u)))

    # No kernel special-cases a constant vector: each formula must give its entry.
    @given(st.one_of(st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                                      1.0, 3.0, 1e300, 1.7e308, sys.float_info.max]),
                     st.floats(min_value=5e-324, max_value=sys.float_info.max)),
           st.integers(1, 6),
           st.lists(st.one_of(orders, special_orders, st.sampled_from([1e10, -1e10])),
                    min_size=1, max_size=5))
    @example(5e-324, 2, [1e10, -1e10, 0.0])
    @example(1.7e308, 6, [1e10, -1e10, 0.0])
    @example(sys.float_info.max, 3, [1.0])  # B's scaled root rounds one ulp past it
    def test_constant_vector_gives_its_entry_exactly(self, c, k, family_orders):
        v, want = (c,) * k, c.hex()
        family = tuple(PowerMean(s) for s in family_orders)
        assert [power_mean(s, v).hex() for s in family_orders] == [want] * len(family)
        assert [x.hex() for x in _eval_family(family, v)] == [want] * len(family)
        if k >= 2:
            assert beta_mean(v).hex() == want


class TestReimport:
    def test_old_classes_are_freed(self):
        # typing.Union caches its members, so a Union alias would keep each
        # import's node classes, and the modules their methods see, alive
        probe = ("import gc, importlib, sys\n"
                 "for _ in range(3):\n"
                 "    for n in [n for n in sys.modules if n.startswith('meanforge')]:\n"
                 "        del sys.modules[n]\n"
                 "    importlib.import_module('meanforge')\n"
                 "gc.collect()\n"
                 "print(sum(isinstance(o, type) and o.__name__ == 'PowerMean'"
                 " for o in gc.get_objects()))")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert done.stdout == "1\n"


# Every outer kind.  ``sloppy`` sums in the order it is given (DerivedMean
# sorts for it); ``twice_max`` makes a Gauss step escape its range.
_SLOPPY = DerivedMean("sloppy", lambda sv: sum(sv) / len(sv), strict=True)
_TWICE_MAX = DerivedMean("twice_max", lambda sv: 2.0 * sv[-1], strict=True)
VARIADIC_OUTERS = (Sum(), Sum("log"), Sum("exp"), Sum("pow", 0.5), Sum("pow", 3.0),
                   Product(), MeanOuter(PowerMean(-1.5)), MeanOuter(PowerMean(0)),
                   MeanOuter(PowerMean(2)), MeanOuter(_SLOPPY))
GAUSS_MEMBERS = (PowerMean(1), PowerMean(-1), PowerMean(0), BetaMean(), PowerMean(2),
                 _TWICE_MAX)
outer_vectors = st.one_of(  # near-constant ones make prod round by order
    family_vectors,
    st.lists(st.sampled_from([0.5, 2.0, 800.0, 1e200]), min_size=1, max_size=4).map(tuple))


def _bits_or_error_type(evaluate):
    """The exact bits of a value, or the type of its error (whose text lists the entries)."""
    try:
        return evaluate().hex()
    except Exception as exc:  # compared, not handled
        return type(exc)


class TestOuterFunctions:
    def test_sum_product_powersum(self):
        assert eval_outer(Sum(), (1, 2, 3, 4)) == 10.0
        assert eval_outer(Product(), (2, 3, 4)) == 24.0
        assert eval_outer(Sum("pow", 2), (1, 2, 3)) == 14.0

    def test_quasi_aggregate_log(self):
        assert eval_outer(Sum("log"), (2, 8)) == \
            pytest.approx(math.log(16), rel=1e-14)

    @given(st.lists(positive, min_size=1, max_size=6).map(tuple),
           st.floats(min_value=0.1, max_value=20))
    def test_sum_is_the_fsum_formula(self, v, p):
        sv = sorted(v)
        assert eval_outer(Sum(), v) == math.fsum(sv)
        assert eval_outer(Sum("log"), v) == math.fsum(math.log(x) for x in sv)
        assert eval_outer(Sum("pow", p), v) == math.fsum(x ** p for x in sv)
        small = tuple(x / 1e5 for x in v)  # keeps exp finite
        assert eval_outer(Sum("exp"), small) == \
            math.fsum(math.exp(x) for x in sorted(small))

    def test_generator_catalog(self):
        assert eval_outer(Sum("id"), (3.5,)) == 3.5
        assert eval_outer(Sum("exp"), (0.0,)) == 1.0
        assert eval_outer(Sum("pow", 2), (3.0,)) == 9.0
        assert eval_outer(Sum("log"), (1.0,)) == 0.0
        with pytest.raises(DomainError):
            Sum("sinh")
        with pytest.raises(DomainError):
            Sum("log", 2.0)

    def test_power_sum_needs_positive_exponent(self):
        with pytest.raises(DomainError):
            Sum("pow", 0.0)
        with pytest.raises(DomainError):
            Sum("pow", -2.0)

    def test_one_message_per_exponent_rule(self):
        rules = (("unknown generator", (("sinh",), ("pow2", 2.0))),
                 ("takes no exponent", (("log", 2.0), ("id", 1.0), ("exp", 0.5))),
                 ("must be finite", (("pow",), ("pow", math.inf), ("pow", math.nan))),
                 ("must be positive", (("pow", 0.0), ("pow", -2.0), ("pow", -1e-300))))
        for rule, cases in rules:
            messages = set()
            for args in cases:
                with pytest.raises(DomainError, match=rule) as err:
                    Sum(*args)
                text = str(err.value)
                for arg in args + (None,):  # the offending value, wherever named
                    text = text.replace(repr(arg), "<value>")
                messages.add(text)
            assert len(messages) == 1, messages

    def test_sum_domain(self):
        for outer in (Sum("log"), Sum("pow", 2.0), Product()):
            with pytest.raises(DomainError,
                               match=re.escape(f"{outer} needs positive entries, got -3.0")):
                eval_outer(outer, (2.0, -3.0, 0.0))
        assert eval_outer(Sum(), (-1.0, 2.0)) == 1.0
        assert eval_outer(Sum("exp"), (0.0, -1.0)) == 1.0 + math.exp(-1.0)

    def test_mean_outer_admission(self):
        MeanOuter(PowerMean(0))  # fine: strictly increasing on the positive axis
        MeanOuter(BetaMean())
        lax = DerivedMean(name="lax", fn=lambda sv: sv[0])
        with pytest.raises(DomainError, match=re.escape(
                "not an outer function: lax is not known to be strict; "
                "strict means are power means P[s], B, invariant means (invariant{M=[...]} "
                "or a registered name) and, from the library, a DerivedMean built with "
                "strict=True")):
            MeanOuter(lax)
        MeanOuter(DerivedMean(name="lax", fn=lambda sv: sv[0], strict=True))

    def test_strictness_admission_sets(self):
        from meanforge import gauss_iterate, invariant_mean
        from meanforge.means import is_strict
        compound = invariant_mean((PowerMean(1), PowerMean(0)))
        for mean in (PowerMean(-1), BetaMean(), compound,
                     DerivedMean("mid", lambda sv: 0.5 * (sv[0] + sv[-1]), strict=True)):
            assert is_strict(mean)
            assert MeanOuter(mean).mean is mean
            assert gauss_iterate((mean, PowerMean(1)), (1.0, 4.0)).converged
        for mean in (DerivedMean("mid", lambda sv: 0.5 * (sv[0] + sv[-1])),
                     GeneralizedBetaMean(PowerMean(1), Sum()),
                     ProblemSpec(Sum(), (PowerMean(0),), (PowerMean(-1), PowerMean(1)))):
            assert not is_strict(mean)
            with pytest.raises(DomainError):
                MeanOuter(mean)
            with pytest.raises(HypothesisViolation):
                gauss_iterate((mean, PowerMean(1)), (1.0, 4.0))

    def test_overflow_is_a_domain_error(self):
        for outer, v in ((Sum("exp"), (800.0, 1.0)),
                         (Sum("pow", 2), (1e200, 1.0)),
                         (Sum("pow", 3), (1e200, 1.0)),
                         (Product(), (1e200, 1e200)),
                         (Sum(), (1.5e308, 1.5e308))):
            with pytest.raises(DomainError, match="overflows"):
                eval_outer(outer, v)

    @pytest.mark.parametrize("v", [(1e308, 1e308, -1e308), (1e308, -1e308, 1e308),
                                   (-1e308, 1e308, 1e308)])
    def test_sum_whose_partial_sum_overflows(self, v):
        # fsum overflows in one order of the entries; the terms scaled by a power of 2 do not
        assert eval_outer(Sum(), v) == 1e308

    def test_product_needs_positive(self):
        with pytest.raises(DomainError):
            eval_outer(Product(), (2.0, -3.0))

    @given(st.lists(positive, min_size=2, max_size=6).map(tuple),
           st.randoms(use_true_random=False))
    def test_bit_exact_symmetry(self, v, rng):
        p = list(v)
        rng.shuffle(p)
        for outer in (Sum(), Product(), Sum("pow", 3),
                      Sum("log"), MeanOuter(PowerMean(2))):
            assert eval_outer(outer, v) == eval_outer(outer, p)

    @pytest.mark.parametrize("outer", VARIADIC_OUTERS + ("mean[invariant]",), ids=str)
    @given(data=st.data())
    def test_kernel_takes_entries_in_any_order(self, outer, data):
        v = data.draw(outer_vectors)
        if outer == "mean[invariant]":
            family = data.draw(st.permutations(GAUSS_MEMBERS))[:len(v)]
            outer = MeanOuter(InvariantMean(family))
        assert _bits_or_error_type(lambda: _eval_outer(outer, v)) == \
            _bits_or_error_type(lambda: _eval_outer(outer, tuple(sorted(v))))

    def test_strictly_increasing_per_coordinate(self):
        rng = random.Random(11)
        for outer in (Sum(), Product(), Sum("pow", 3),
                      Sum("log"), MeanOuter(PowerMean(-2))):
            for _ in range(50):
                v = [rng.uniform(0.5, 100.0) for _ in range(4)]
                base = eval_outer(outer, v)
                i = rng.randrange(4)
                v[i] += 1e-3 * v[i]
                assert eval_outer(outer, v) > base


class TestOuterOracles:
    """Outer aggregates against mpmath at 50 digits.

    Budgets, in units of eps = 2.2e-16: ``sum`` is exactly rounded (1 eps
    relative); ``qa[exp]`` and ``powsum[p]`` add one rounding per term to an
    exactly rounded sum of positive terms (2 eps relative); ``prod`` rounds
    once per multiplication (n eps relative).  A ``qa[log]`` sum can cancel,
    so its error is bounded absolutely, by 2 eps * sum(|log x|).
    """

    @pytest.mark.parametrize("outer", [Sum(), Sum("exp"), Sum("pow", 0.5), Sum("pow", 2),
                                       Sum("pow", 3), Sum("log"), Product()],
                             ids=str)
    def test_against_mpmath(self, outer):
        mpmath = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        g = {"id": lambda x: x, "log": mpmath.log, "exp": mpmath.exp,
             "pow": lambda x: x ** outer.exponent}.get(getattr(outer, "generator", None))
        rng = random.Random(24)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(500):
                n = rng.randint(1, 8)
                if isinstance(outer, Sum) and outer.generator == "exp":
                    v = tuple(rng.uniform(-700.0, 700.0) for _ in range(n))
                else:
                    # log-uniform over 1e-100..1e100, without overflowing the aggregate
                    reach = 100.0 / (n if isinstance(outer, Product) else
                                     getattr(outer, "exponent", None) or 1.0)
                    v = tuple(10.0 ** rng.uniform(-reach, reach) for _ in range(n))
                xs = [mpmath.mpf(x) for x in v]
                got = eval_outer(outer, v)
                if isinstance(outer, Product):
                    error = abs(got - mpmath.fprod(xs)) / mpmath.fprod(xs) / (n * eps)
                elif outer.generator == "log":
                    error = (abs(got - mpmath.fsum(map(g, xs)))
                             / (2 * eps * max(mpmath.fsum(abs(mpmath.log(x)) for x in xs),
                                              mpmath.mpf(1e-300))))
                else:
                    want = mpmath.fsum(map(g, xs))
                    error = abs(got - want) / want / ((1 if outer.generator == "id" else 2) * eps)
                worst = max(worst, float(error))
        assert worst <= 1.0


class TestMeanPropertyChecker:
    def test_power_mean_passes(self):
        plan = SamplePlan(arity=2, count=1000, seed=5, lower=0.0, upper=10.0)
        assert check_mean_property(PowerMean(3), plan).passed

    def test_beta_mean_passes(self):
        plan = SamplePlan(arity=3, count=1000, seed=5, lower=0.0, upper=10.0)
        assert check_mean_property(BetaMean(), plan).passed

    def test_sum_is_caught(self):
        pair_sum = DerivedMean(name="pair_sum", fn=lambda sv: sv[0] + sv[1], arity=2)
        plan = SamplePlan(arity=2, count=200, seed=5, lower=0.0, upper=10.0)
        report = check_mean_property(pair_sum, plan)
        assert not report.passed
        assert report.counterexample["violated"] == "mean property"
        # the counterexample replays
        v = report.counterexample["vector"]
        assert eval_mean(pair_sum, v) == report.counterexample["value"]

    def test_asymmetric_is_caught(self):
        # sneaky: respects the bounds but depends on an entry's magnitude rank
        lopsided = DerivedMean(name="lopsided",
                               fn=lambda sv: 0.9 * sv[0] + 0.1 * sv[-1])
        plan = SamplePlan(arity=2, count=200, seed=5, lower=0.0, upper=10.0)
        # bit-exact symmetric thanks to pre-sorting, so this one passes...
        assert check_mean_property(lopsided, plan).passed

    def test_bounds_are_relative_below_one(self):
        # an absolute floor of 1e-12 would let twice the maximum pass here
        twice_max = DerivedMean(name="twice_max", fn=lambda sv: 2.0 * sv[-1])
        plan = SamplePlan(arity=3, count=50, seed=1, lower=1e-20, upper=1e-18)
        report = check_mean_property(twice_max, plan)
        assert not report.passed and report.samples_checked == 1
        assert report.counterexample["violated"] == "mean property"

    @pytest.mark.parametrize("lower, upper", [(0.0, 100.0), (1e-6, 1e6)])
    def test_lower_bound_is_relative_to_the_minimum(self, lower, upper):
        # below min(v) at every nonconstant vector, by 1e-13 of max(v): a slack of
        # 1e-12*max(v) passes all 256 samples, one of 1e-12*min(v) fails the first
        # sample after the near-constant one, which is inside either slack
        low = DerivedMean(name="low", fn=lambda sv: sv[0] - 1e-13 * sv[-1])
        report = check_mean_property(low, SamplePlan(arity=3, count=256, seed=3,
                                                     lower=lower, upper=upper))
        assert (report.passed, report.samples_checked) == (False, 2)
        assert report.counterexample["violated"] == "mean property"

    @pytest.mark.parametrize("lower, upper", [(1e-20, 1e-18), (1e-300, 1e-290),
                                              (1e290, 1e300)])
    def test_means_pass_at_every_scale(self, lower, upper):
        for mean, arity in ((PowerMean(3), 2), (PowerMean(-2), 3), (BetaMean(), 4)):
            plan = SamplePlan(arity=arity, count=300, seed=2, lower=lower, upper=upper)
            assert check_mean_property(mean, plan).passed, mean


class TestNumberFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e12, max_value=1e12))
    def test_round_trip(self, x):
        assert float(format_number(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_decimal_formatting(self, x):
        from decimal import Decimal
        if x == int(x) and abs(x) < 1e16:
            want = str(int(x))
        else:
            want = format(Decimal(repr(x)), "f")
        assert format_number(x) == want

    def test_no_exponent_notation(self):
        assert "e" not in format_number(2.5e-7)
        assert float(format_number(2.5e-7)) == 2.5e-7
        assert format_number(-3.0) == "-3"
        assert format_number(0.5) == "0.5"
