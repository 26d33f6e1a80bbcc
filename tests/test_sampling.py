import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from meanforge import DomainError, SamplePlan
from meanforge.sampling import NEAR_CONSTANT_STRIDE, sample_vectors


def _stream_digest(plan):
    h = hashlib.sha256()
    for v in sample_vectors(plan):
        h.update(repr(v).encode())
    return h.hexdigest()


class TestSampleVectors:
    @pytest.mark.parametrize("lower, upper, digest", [
        (0.0, 100.0, "6aefc6816eeb27ee19c894f7572501e33e0800a8b3da54e95ac548319c52155e"),
        (0.5, 100.0, "486420f8607e105233d7ab89aa2322d7a78073bd589d7fd4b591a641fbc1385b"),
        (0.0, 10.0, "14f8b66c9d510a6556fc5181dc72f772485d3f07e3ea7c14b32c1dfdc3cb83fd"),
    ])
    def test_stream_is_pinned(self, lower, upper, digest):
        # the seeded stream is the CLI's determinism contract: these domains
        # (the CLI default and the ones the check suites use) must not move
        plan = SamplePlan(arity=3, count=1000, seed=7, lower=lower, upper=upper)
        assert _stream_digest(plan) == digest

    @given(st.floats(min_value=-1e300, max_value=1e300),
           st.floats(min_value=-300, max_value=3),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
    def test_samples_lie_strictly_inside(self, lower, log_width, seed, arity):
        # intervals from a few ulp wide to wider than 1000 times their magnitude
        upper = lower + 10.0 ** log_width * max(abs(lower), 1e-300)
        if not (math.isfinite(upper - lower) and math.nextafter(lower, upper) < upper):
            with pytest.raises(DomainError):
                SamplePlan(arity=arity, lower=lower, upper=upper)
            return
        plan = SamplePlan(arity=arity, count=2 * NEAR_CONSTANT_STRIDE, seed=seed,
                          lower=lower, upper=upper)
        for v in sample_vectors(plan):
            assert len(v) == arity
            assert all(lower < x < upper for x in v), (plan, v)

    @pytest.mark.parametrize("lower, upper", [(1e-12, 1e-10), (5.0, 5.0000001)])
    def test_near_constant_vectors_shrink_with_the_interval(self, lower, upper):
        plan = SamplePlan(arity=3, count=200, seed=0, lower=lower, upper=upper)
        for index, v in enumerate(sample_vectors(plan)):
            assert all(lower < x < upper for x in v)
            if index % NEAR_CONSTANT_STRIDE == 0:
                assert max(v) - min(v) <= 1e-4 * (upper - lower)

    @pytest.mark.parametrize("lower, upper", [
        (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (2.0, 1.0), (1.0, 1.0),
        (-1e308, 1e308),  # the width overflows
        (1.0, math.nextafter(1.0, 2.0)),  # no float strictly between
    ])
    def test_bad_interval_rejected(self, lower, upper):
        with pytest.raises(DomainError, match="lower < upper"):
            SamplePlan(arity=2, lower=lower, upper=upper)
