import math
import random

import pytest
from hypothesis import example, given, strategies as st

from meanforge import (
    DomainError,
    as_vector,
    is_embedded,
    is_embedded_within,
    is_ordered_majorized,
    is_ordered_minorized,
    map_vector,
    sort_ascending,
    sort_descending,
)
from meanforge.checks import embedded_pair, majorized_pair
from meanforge.ordering import _embeds, _first_failure

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=1, max_size=7).map(tuple)


class TestSorting:
    def test_ascending(self):
        assert sort_ascending((5, 0, 10)) == (0, 5, 10)
        assert sort_ascending((3, 15)) == (3, 15)
        assert sort_ascending((7,)) == (7,)

    def test_descending(self):
        assert sort_descending((5, 0, 10)) == (10, 5, 0)
        assert sort_descending((3, 8)) == (8, 3)
        assert sort_descending((4, 4)) == (4, 4)

    @given(vectors)
    def test_sort_is_permutation(self, v):
        asc = sort_ascending(v)
        assert sorted(v) == list(asc)
        assert sort_descending(v) == tuple(reversed(asc))


class TestWorkedExamples:
    # the three pairs from the worked examples, exact booleans and witnesses

    def test_longer_target_minorized_not_majorized(self):
        v, w = (3, 15), (5, 0, 10)
        assert is_ordered_minorized(v, w).holds
        check = is_ordered_majorized(v, w)
        assert not check.holds
        assert check.witness_index == 1  # 15 > 10 at the first descending slot
        assert not is_embedded(v, w).embedded

    def test_embedded_pair(self):
        v, w = (3, 8), (5, 0, 10)
        assert is_ordered_minorized(v, w).holds
        assert is_ordered_majorized(v, w).holds
        verdict = is_embedded(v, w)
        assert verdict.embedded and verdict.witness_index is None

    def test_third_slot_witness(self):
        v, w = (5, 6, 7), (2, 4, 6, 8)
        assert is_ordered_minorized(v, w).holds
        check = is_ordered_majorized(v, w)
        assert not check.holds
        assert check.witness_index == 3  # 5 > 4 at the third descending slot

    @pytest.mark.parametrize("v, w, embedded", [
        ((3, 8), (5, 0, 10), True),
        ((200,), (1, 2), False),  # minorized, not majorized
        ((0.5, 200), (1, 2), False),  # neither relation holds
    ])
    def test_verdicts_are_true_exactly_when_they_hold(self, v, w, embedded):
        assert bool(is_embedded(v, w)) is embedded
        assert bool(is_embedded_within(v, w, 0.5)) is embedded
        for check in (is_ordered_minorized(v, w), is_ordered_majorized(v, w)):
            assert bool(check) is check.holds


class TestOrderingLaws:
    @given(vectors, vectors)
    def test_duality(self, v, w):
        if len(v) != len(w):
            return
        assert is_ordered_majorized(v, w).holds == is_ordered_minorized(w, v).holds

    @given(vectors)
    def test_reflexive(self, v):
        assert is_ordered_majorized(v, v).holds
        assert is_ordered_minorized(v, v).holds
        assert is_embedded(v, v).embedded

    @given(vectors, st.permutations(range(7)))
    def test_permutation_characterization(self, v, perm):
        shuffled = tuple(v[i] for i in perm[:len(v)] if i < len(v))
        if len(shuffled) != len(v):
            shuffled = tuple(reversed(v))
        assert is_embedded(v, shuffled).embedded == \
            (sorted(v) == sorted(shuffled))

    def test_transitive_on_fixed_length(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(2, 6)
            u = tuple(rng.uniform(-50, 50) for _ in range(n))
            v = tuple(x + rng.uniform(0, 5) for x in u)
            w = tuple(x + rng.uniform(0, 5) for x in v)
            assert is_ordered_majorized(u, v).holds
            assert is_ordered_majorized(v, w).holds
            assert is_ordered_majorized(u, w).holds

    def test_length_gate(self):
        # a longer vector is never embedded, even when both orderings hold
        verdict = is_embedded((1, 2, 3), (1, 3))
        assert not verdict.embedded

    def test_mixed_length_extension(self):
        # longer-than case flips the sort orders
        assert is_ordered_majorized((1, 2, 9), (2, 3)).holds
        assert not is_ordered_majorized((4, 2, 9), (2, 3)).holds
        assert is_ordered_minorized((5, 4, 1), (4, 3)).holds
        assert not is_ordered_minorized((5, 2, 1), (4, 3)).holds


class TestRelaxedVariant:
    def test_tie_within_eps(self):
        # undercuts min(w) by rounding-sized noise: exact check refuses,
        # the relaxed one (meant for computed mean values) accepts
        v = (1.0 - 1e-12, 2.0)
        w = (1.0, 2.0, 3.0)
        assert not is_embedded(v, w).embedded
        assert is_embedded_within(v, w, 1e-9).embedded

    def test_slack_is_relative_to_the_compared_entry(self):
        # at each end of a wide w the slack is 1e-9 of that end, not of max|w|
        w = (1e-3, 1e10)
        assert is_embedded_within((1e-3 * (1.0 - 0.5e-9),), w, 1e-9).embedded
        low = is_embedded_within((1e-3 - 1e-10,), w, 1e-9)  # an absolute 1e-9 admits it
        assert (low.minorized, low.majorized, low.witness_index) == (False, True, 1)
        assert is_embedded_within((1e10 + 5.0,), w, 1e-9).embedded
        assert not is_embedded_within((1e10 + 20.0,), w, 1e-9).majorized
        # entries below zero: the slack is 1e-9 of |y|, on the side that relaxes
        w = (-1e10, -1e-3)
        assert is_embedded_within((-1e10 - 5.0,), w, 1e-9).embedded
        high = is_embedded_within((-1e-3 + 1e-10,), w, 1e-9)  # so does an absolute 1e-9
        assert (high.minorized, high.majorized, high.witness_index) == (True, False, 1)

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            is_embedded_within((1,), (1, 2), -1e-3)

    # NaN would fail every relaxed inequality and inf would satisfy every one
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-3])
    @pytest.mark.parametrize("predicate", [is_embedded_within])
    def test_bad_eps_rejected(self, predicate, eps):
        with pytest.raises(DomainError, match="eps must be finite and nonnegative"):
            predicate((1.0,), (1.0,), eps)


def _reference(v, w, eps):
    """First failing positions (minorization, majorization) from the definitions; 0 if none.

    Each inequality is relaxed by ``eps`` of the entry of ``w`` it compares with.
    """
    asc_v, asc_w = sorted(v), sorted(w)
    desc_v, desc_w = asc_v[::-1], asc_w[::-1]
    if len(v) > len(w):  # the sort orders swap roles
        asc_v, asc_w, desc_v, desc_w = desc_v, desc_w, asc_v, asc_w
    lower = [k for k, (x, y) in enumerate(zip(asc_v, asc_w), 1) if not x >= y - eps * abs(y)]
    upper = [k for k, (x, y) in enumerate(zip(desc_v, desc_w), 1) if not x <= y + eps * abs(y)]
    return min(lower, default=0), min(upper, default=0)


# Entries from a few values make ties common; eps at, below and above their gaps.
tied = st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0]),
                min_size=1, max_size=7).map(tuple)
eps_values = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.5]),
                       st.floats(min_value=0.0, max_value=10.0))


class TestComparisonCore:
    """The core, the boolean kernel and every public verdict agree field for field."""

    @staticmethod
    def _assert_agree(v, w, eps):
        lower, upper = _reference(v, w, eps)
        a, b = sorted(v), sorted(w)
        assert (_first_failure(a, b, eps, True), _first_failure(a, b, eps, False)) == \
            (lower, upper)
        embedded = not lower and not upper and len(v) <= len(w)
        verdict = is_embedded_within(v, w, eps)
        assert (verdict.minorized, verdict.majorized, verdict.embedded,
                verdict.witness_index) == (not lower, not upper, embedded,
                                           min(filter(None, (lower, upper)), default=None))
        assert _embeds(a, b, eps) is embedded
        if eps == 0.0:  # the two ordered predicates are exact
            assert is_embedded(v, w) == verdict
            for check, k in ((is_ordered_minorized(v, w), lower),
                             (is_ordered_majorized(v, w), upper)):
                assert (check.holds, check.witness_index) == (not k, k or None)

    @given(st.one_of(tied, vectors), st.one_of(tied, vectors), eps_values)
    @example((1.0, 2.0, 3.0), (1.0, 3.0), 0.0)  # only the length gate fails
    @example((3.0, 15.0), (5.0, 0.0, 10.0), 0.0)  # majorization fails at 1
    @example((5.0, 6.0, 7.0), (2.0, 4.0, 6.0, 8.0), 0.0)  # majorization fails at 3
    @example((0.5, 200.0), (1.0, 2.0), 0.0)  # both fail at 1
    @example((1.0 - 1e-12, 2.0), (1.0, 2.0, 3.0), 1e-9)  # a tie within eps
    @example((1.0, 2.0), (1.0, 2.0), 0.0)  # exact ties
    def test_agrees_with_the_definitions(self, v, w, eps):
        self._assert_agree(v, w, eps)

    def test_seeded_sweep_with_ties(self):
        rng = random.Random(16)
        grid = [-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0]
        for _ in range(20_000):
            v, w = ([rng.choice(grid) if rng.random() < 0.7 else rng.uniform(-3, 4)
                     for _ in range(rng.randint(1, 6))] for _ in range(2))
            self._assert_agree(tuple(v), tuple(w), rng.choice([0.0, 0.0, 0.5, 1.0, 1e-9]))


class TestMonotoneTransport:
    def test_negation_preserves_embedding(self):
        v, w = (3, 8), (5, 0, 10)
        assert is_embedded(v, w).embedded
        fv = map_vector(lambda x: -x, v)
        fw = map_vector(lambda x: -x, w)
        assert fv == (-3.0, -8.0)
        assert is_embedded(fv, fw).embedded

    def test_transport_on_random_pairs(self):
        rng = random.Random(7)
        cases = [(lambda x: x * x, True), (math.log, True),
                 (lambda x: -x, False), (lambda x: 1.0 / x, False)]
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            v, w = majorized_pair(rng, m, n)
            for fn, nondecreasing in cases:
                fv, fw = map_vector(fn, v), map_vector(fn, w)
                if nondecreasing:
                    assert is_ordered_majorized(fv, fw).holds
                else:
                    assert is_ordered_majorized(fw, fv).holds
            ev, ew = embedded_pair(rng, min(m, n), max(m, n))
            for fn, _ in cases:
                assert is_embedded(map_vector(fn, ev), map_vector(fn, ew)).embedded


class TestMapVector:
    def test_identity_and_square(self):
        assert map_vector(lambda x: x, (3, 8)) == (3.0, 8.0)
        assert map_vector(lambda x: x * x, (1, 2, 3)) == (1.0, 4.0, 9.0)

    def test_undefined_entry_named(self):
        with pytest.raises(DomainError, match="-4"):
            map_vector(math.sqrt, (1.0, -4.0))

    def test_nonfinite_result_rejected(self):
        with pytest.raises(DomainError):
            map_vector(lambda x: x / 0 if x else 0.0, (0.0, 1.0))


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            as_vector(())

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            as_vector((1.0, float("nan")))

    def test_infinity_rejected(self):
        with pytest.raises(DomainError):
            as_vector((float("inf"),))

    @pytest.mark.parametrize("text", ["123", "38", b"12", bytearray(b"5010")])
    def test_text_rejected(self, text):
        # float() would read a string's digits and the byte values of bytes
        with pytest.raises(DomainError, match="a vector is not text"):
            as_vector(text)
        with pytest.raises(DomainError, match="a vector is not text"):
            is_embedded(text, (3.0, 8.0))

    def test_sequences_of_numbers_still_accepted(self):
        assert as_vector([1, 2.5]) == as_vector((1, 2.5)) == (1.0, 2.5)
        assert as_vector(range(1, 3)) == (1.0, 2.0)
