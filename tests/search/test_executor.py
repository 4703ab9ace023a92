"""Unit tests for the streamed executor's building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.base import UNBOUNDED_BLOCK, CandidateSet
from repro.candidates.lsh_index import LSHGenerator
from repro.core.bayeslsh import VerificationOutput
from repro.search.executor import (
    DEFAULT_BLOCK_SIZE,
    PairBlockSource,
    StreamExecutor,
    _PairKeyAccumulator,
)


class TestPairKeyAccumulator:
    def test_matches_candidate_set_dedup(self):
        rng = np.random.default_rng(3)
        n_vectors = 50
        accumulator = _PairKeyAccumulator(n_vectors)
        all_left, all_right = [], []
        for _ in range(20):
            left = rng.integers(0, n_vectors, size=40)
            right = rng.integers(0, n_vectors, size=40)
            accumulator.add(left, right)
            all_left.append(left)
            all_right.append(right)
        keys = accumulator.finalize()
        reference = CandidateSet.from_arrays(
            np.concatenate(all_left), np.concatenate(all_right)
        )
        np.testing.assert_array_equal(keys // n_vectors, reference.left)
        np.testing.assert_array_equal(keys % n_vectors, reference.right)

    def test_drops_self_pairs_and_canonicalises(self):
        accumulator = _PairKeyAccumulator(10)
        accumulator.add(np.array([3, 5, 7]), np.array([3, 2, 7]))
        keys = accumulator.finalize()
        assert keys.tolist() == [2 * 10 + 5]

    def test_cross_block_duplicates_removed(self):
        accumulator = _PairKeyAccumulator(10)
        accumulator.add(np.array([1]), np.array([2]))
        accumulator.add(np.array([2]), np.array([1]))
        assert len(accumulator.finalize()) == 1

    def test_rejects_huge_collections(self):
        with pytest.raises(NotImplementedError):
            _PairKeyAccumulator(1 << 31)


class TestPairBlockSource:
    def _source(self, block_size=3):
        keys = np.array([0 * 7 + 1, 0 * 7 + 4, 2 * 7 + 3, 2 * 7 + 6, 5 * 7 + 6])
        return PairBlockSource(keys, n_vectors=7, block_size=block_size)

    def test_len_and_getitem(self):
        source = self._source()
        assert len(source) == 5
        assert source[0] == (0, 1)
        assert source[4] == (5, 6)

    def test_blocks_cover_all_pairs_in_order(self):
        source = self._source(block_size=2)
        pairs = []
        for left, right in source.blocks():
            assert len(left) <= 2
            pairs.extend(zip(left.tolist(), right.tolist()))
        assert pairs == [(0, 1), (0, 4), (2, 3), (2, 6), (5, 6)]

    def test_all_pairs(self):
        left, right = self._source().all_pairs()
        assert left.tolist() == [0, 0, 2, 2, 5]
        assert right.tolist() == [1, 4, 3, 6, 6]


class TestVerificationOutputMerge:
    def _output(self, n, pruned, trace, **kwargs):
        return VerificationOutput(
            left=np.arange(n - pruned, dtype=np.int64),
            right=np.arange(n - pruned, dtype=np.int64) + 1,
            estimates=np.full(n - pruned, 0.5),
            n_candidates=n,
            n_pruned=pruned,
            trace=trace,
            **kwargs,
        )

    def test_counters_sum(self):
        merged = VerificationOutput.merge(
            [
                self._output(5, 2, [], hash_comparisons=10, exact_computations=3),
                self._output(4, 1, [], hash_comparisons=6, exact_computations=2),
            ]
        )
        assert merged.n_candidates == 9
        assert merged.n_pruned == 3
        assert merged.hash_comparisons == 16
        assert merged.exact_computations == 5
        assert merged.n_output == 6

    def test_trace_merges_round_by_round(self):
        # block A runs three rounds, block B finishes after one: B contributes
        # its final not-pruned count to A's later rounds.
        a = self._output(10, 4, [(32, 9), (64, 7), (96, 6)])
        b = self._output(6, 2, [(32, 4)])
        merged = VerificationOutput.merge([a, b])
        assert merged.trace == [(32, 13), (64, 11), (96, 10)]

    def test_mismatched_round_boundaries_rejected(self):
        a = self._output(4, 0, [(32, 4)])
        b = self._output(4, 0, [(16, 4)])
        with pytest.raises(ValueError, match="mismatched round boundaries"):
            VerificationOutput.merge([a, b])

    def test_empty_merge(self):
        merged = VerificationOutput.merge([])
        assert merged.n_candidates == 0
        assert merged.n_output == 0
        assert merged.trace == []


class TestStreamExecutor:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="block_size"):
            StreamExecutor(block_size=0)
        with pytest.raises(ValueError, match="n_workers"):
            StreamExecutor(n_workers=0)

    def test_defaults(self):
        executor = StreamExecutor()
        assert executor.block_size == DEFAULT_BLOCK_SIZE
        assert executor.n_workers == 1


class _RecordingVerifier:
    """Stands in for a verifier: keeps the pairs the executor hands over."""

    def verify_source(self, source, pool=None):
        self.left, self.right = source.all_pairs()
        self.blocks = list(source.blocks())
        return None


class TestStreamedDeduplication:
    """The executor's incremental dedup == ``CandidateSet.from_stream`` on raw
    streams whose blocks repeat pairs, for every block size."""

    @pytest.mark.parametrize("kind", ["allpairs", "lsh"])
    @pytest.mark.parametrize("block_size", [1, 4096, UNBOUNDED_BLOCK])
    def test_equals_from_stream(self, kind, block_size, sparse_text_collection):
        if kind == "allpairs":
            generator = AllPairsGenerator("cosine", 0.3)
        else:
            generator = LSHGenerator("cosine", 0.5, seed=4)
        n_raw = sum(
            len(left) for left, _ in generator.generate_blocks(sparse_text_collection, block_size)
        )
        reference = CandidateSet.from_stream(
            generator.generate_blocks(sparse_text_collection, block_size)
        )
        assert len(reference) > 0
        if kind == "lsh" or block_size != UNBOUNDED_BLOCK:
            # (one unbounded AllPairs probe batch deduplicates itself)
            assert n_raw > len(reference), "the stream must repeat pairs across blocks"

        verifier = _RecordingVerifier()
        metadata, _, _ = StreamExecutor(block_size=block_size).run(
            generator, verifier, sparse_text_collection
        )
        np.testing.assert_array_equal(verifier.left, reference.left)
        np.testing.assert_array_equal(verifier.right, reference.right)
        assert verifier.left.dtype == verifier.right.dtype == np.int64
        assert metadata == reference.metadata
        np.testing.assert_array_equal(
            np.concatenate([left for left, _ in verifier.blocks]), reference.left
        )
