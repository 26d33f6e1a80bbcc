import math
import random

import pytest
from hypothesis import given, strategies as st

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

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            is_embedded_within((1,), (1, 2), -1e-3)

    # NaN would fail every relaxed inequality and inf would satisfy every one
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-3])
    @pytest.mark.parametrize("predicate", [is_embedded_within, is_ordered_minorized,
                                           is_ordered_majorized])
    def test_bad_eps_rejected(self, predicate, eps):
        with pytest.raises(DomainError, match="eps must be finite and nonnegative"):
            predicate((1.0,), (1.0,), eps)


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
