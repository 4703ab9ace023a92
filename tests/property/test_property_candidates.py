"""Property-based tests for candidate generation completeness.

For random small binary/weighted collections, the exact candidate generators
(AllPairs, PPJoin+) must never miss a pair above the threshold, and the
candidate-set container must always canonicalise pairs — whether it
recognises its input as already canonical or canonicalises it itself.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.base import CandidateSet
from repro.candidates.ppjoin import PPJoinGenerator
from repro.evaluation.ground_truth import exact_all_pairs
from repro.similarity.vectors import VectorCollection

_SETTINGS = settings(max_examples=25, deadline=None)


def _random_sets(seed: int, n_rows: int, universe: int, max_size: int):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_rows):
        size = int(rng.integers(0, max_size + 1))
        sets.append(set(rng.choice(universe, size=min(size, universe), replace=False).tolist()))
    return VectorCollection.from_sets(sets, n_features=universe)


def _random_weighted(seed: int, n_rows: int, n_features: int):
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_features)) * (rng.random((n_rows, n_features)) < 0.4)
    return VectorCollection.from_dense(dense)


class TestCandidateSetProperties:
    @_SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)),
            max_size=80,
        )
    )
    def test_from_pairs_canonical(self, pairs):
        candidate_set = CandidateSet.from_pairs(pairs)
        seen = set()
        for i, j in candidate_set:
            assert i < j
            assert (i, j) not in seen
            seen.add((i, j))
        expected = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        assert seen == expected


def _pair_arrays(pairs, shape: str) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` laid out as one of the input shapes ``from_arrays`` meets."""
    canonical = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
    if shape == "canonical":
        laid_out = canonical
    elif shape == "reversed":
        laid_out = [(j, i) for i, j in canonical]
    elif shape == "duplicated":
        laid_out = sorted(canonical + canonical[::2])
    elif shape == "self-pair":
        laid_out = sorted(canonical + [(i, i) for i, _ in canonical[:3]] + [(0, 0)])
    elif shape == "empty":
        laid_out = []
    else:  # unsorted: the raw draw, in any order and orientation
        laid_out = list(pairs)
    left = np.array([i for i, _ in laid_out], dtype=np.int64)
    right = np.array([j for _, j in laid_out], dtype=np.int64)
    return left, right


_INDEX = st.integers(min_value=0, max_value=40)


class TestFromArraysFastPath:
    """Input already canonical is kept as it is; every other input is canonicalised."""

    @_SETTINGS
    @given(
        st.lists(st.tuples(_INDEX, _INDEX), max_size=120),
        st.sampled_from(["canonical", "reversed", "duplicated", "self-pair", "empty", "unsorted"]),
    )
    def test_fast_path_equals_the_canonicalising_path(self, pairs, shape):
        left, right = _pair_arrays(pairs, shape)
        fast = CandidateSet.from_arrays(left, right, generator="g", n=3)
        with mock.patch("repro.candidates.base._is_canonical", return_value=False):
            slow = CandidateSet.from_arrays(left, right, generator="g", n=3)
        for name in ("left", "right"):
            np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))
            assert getattr(fast, name).dtype == getattr(slow, name).dtype == np.int64
        assert fast.metadata == slow.metadata == {"generator": "g", "n": 3}
        laid_out = zip(left.tolist(), right.tolist())
        assert fast.as_set() == CandidateSet.from_pairs(laid_out).as_set()
        # the fast path keeps the caller's arrays; a canonicalised set is new
        already = len(left) > 0 and np.array_equal(slow.left, left) and np.array_equal(
            slow.right, right
        )
        assert np.shares_memory(fast.left, left) == already
        assert np.shares_memory(fast.right, right) == already

    @pytest.mark.parametrize(
        "right, kept", [([2**31 - 2], True), ([2**31 - 1], False), ([2**31 - 1, 2**31], False)]
    )
    def test_keys_too_wide_for_int64_keep_the_pairwise_path(self, right, kept):
        right = np.array(right, dtype=np.int64)
        left = np.arange(len(right), dtype=np.int64)
        candidate_set = CandidateSet.from_arrays(left, right)
        np.testing.assert_array_equal(candidate_set.left, left)
        np.testing.assert_array_equal(candidate_set.right, right)
        assert np.shares_memory(candidate_set.right, right) == kept

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.3, 0.5, 0.7]),
        st.sampled_from([1, 7, 64]),
    )
    def test_allpairs_blocks_are_canonical(self, seed, threshold, block_size):
        collection = _random_weighted(seed, n_rows=30, n_features=12)
        generator = AllPairsGenerator("cosine", threshold)
        blocks = list(generator.generate_blocks(collection, block_size))
        for left, right in blocks:
            assert np.all(left < right)
        emitted = {pair for left, right in blocks for pair in zip(left.tolist(), right.tolist())}
        assert emitted == generator.generate(collection).as_set()


class TestGeneratorCompletenessProperties:
    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    def test_ppjoin_jaccard_complete(self, seed, threshold):
        collection = _random_sets(seed, n_rows=30, universe=40, max_size=12)
        truth = exact_all_pairs(collection, threshold, "jaccard")
        candidates = PPJoinGenerator("jaccard", threshold).generate(collection)
        assert truth.pair_set() <= candidates.as_set()

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.5, 0.7, 0.9]),
    )
    def test_ppjoin_binary_cosine_complete(self, seed, threshold):
        collection = _random_sets(seed, n_rows=25, universe=35, max_size=10)
        truth = exact_all_pairs(collection, threshold, "binary_cosine")
        candidates = PPJoinGenerator("binary_cosine", threshold).generate(collection)
        assert truth.pair_set() <= candidates.as_set()

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.5, 0.7, 0.9]),
    )
    def test_allpairs_cosine_complete(self, seed, threshold):
        collection = _random_weighted(seed, n_rows=25, n_features=15)
        truth = exact_all_pairs(collection, threshold, "cosine")
        candidates = AllPairsGenerator("cosine", threshold).generate(collection)
        assert truth.pair_set() <= candidates.as_set()
