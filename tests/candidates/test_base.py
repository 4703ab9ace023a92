"""Unit tests for the candidate-set container and generator base class."""

import weakref

import numpy as np
import pytest

from repro.candidates import arrayops
from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.base import BlockStream, CandidateGenerator, CandidateSet
from repro.candidates.brute_force import BruteForceGenerator
from repro.candidates.lsh_index import LSHGenerator
from repro.candidates.ppjoin import PPJoinGenerator

from tests.property.test_vectorised_equivalence import _random_weighted_collection


def _stream(blocks, **metadata) -> BlockStream:
    return BlockStream(iter([(np.asarray(a), np.asarray(b)) for a, b in blocks]), metadata)


class TestCandidateSet:
    def test_from_pairs_canonicalises(self):
        candidate_set = CandidateSet.from_pairs([(3, 1), (1, 3), (2, 2), (0, 4)])
        assert len(candidate_set) == 2
        assert candidate_set.as_set() == {(1, 3), (0, 4)}
        assert np.all(candidate_set.left < candidate_set.right)

    def test_from_pairs_empty(self):
        candidate_set = CandidateSet.from_pairs([])
        assert len(candidate_set) == 0
        assert candidate_set.as_set() == set()

    def test_from_arrays_dedup_and_self_pair_removal(self):
        candidate_set = CandidateSet.from_arrays([1, 2, 2, 5], [2, 1, 2, 0])
        assert candidate_set.as_set() == {(1, 2), (0, 5)}

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(ValueError):
            CandidateSet.from_arrays([1, 2], [3])

    def test_iteration_and_metadata(self):
        candidate_set = CandidateSet.from_pairs([(0, 1), (1, 2)], generator="test")
        assert sorted(candidate_set) == [(0, 1), (1, 2)]
        assert candidate_set.metadata["generator"] == "test"
        assert "n_pairs=2" in repr(candidate_set)


def _random_blocks():
    """Twenty raw blocks of random (unordered, repeating, self-) pairs."""
    rng = np.random.default_rng(3)
    return [(rng.integers(0, 50, size=40), rng.integers(0, 50, size=40)) for _ in range(20)]


def _blocks_overlapping_the_held_set():
    """Blocks that re-send pairs an earlier fold already holds: a canonical
    block, then its pairs again as a strided canonical subset and reversed,
    then new pairs mixed with held ones (at ``block_size=1`` the last three
    are one buffer: a canonical run, then two blocks to canonicalise)."""
    rng = np.random.default_rng(4)
    first = CandidateSet.from_arrays(rng.integers(0, 50, size=60), rng.integers(0, 50, size=60))
    return [
        (first.left, first.right),
        (first.left[1::3], first.right[1::3]),
        (first.right[::2], first.left[::2]),
        (np.concatenate([rng.integers(0, 50, size=30), first.left[:9]]),
         np.concatenate([rng.integers(0, 50, size=30), first.right[:9]])),
    ]


class TestFromStream:
    """The one deduplication of raw pair blocks, for every ``block_size``."""

    @pytest.mark.parametrize(
        "make_blocks", [_random_blocks, _blocks_overlapping_the_held_set], ids=["random", "overlap"]
    )
    @pytest.mark.parametrize("block_size", [None, 1, 7, 64, 1 << 20])
    def test_matches_one_shot_from_arrays(self, block_size, make_blocks):
        blocks = make_blocks()
        reference = CandidateSet.from_arrays(
            np.concatenate([left for left, _ in blocks]),
            np.concatenate([right for _, right in blocks]),
        )
        collected = CandidateSet.from_stream(_stream(blocks, generator="g"), block_size)
        np.testing.assert_array_equal(collected.left, reference.left)
        np.testing.assert_array_equal(collected.right, reference.right)
        assert collected.left.dtype == collected.right.dtype == np.int64
        assert collected.metadata == {"generator": "g"}

    @pytest.mark.parametrize("block_size", [None, 1, 2])
    def test_drops_self_pairs_and_canonicalises(self, block_size):
        stream = _stream([([3, 5, 7], [3, 2, 7])])
        assert CandidateSet.from_stream(stream, block_size).as_set() == {(2, 5)}

    @pytest.mark.parametrize("block_size", [None, 1, 2])
    def test_cross_block_duplicates_removed(self, block_size):
        stream = _stream([([1], [2]), ([2], [1]), ([4], [1])])
        collected = CandidateSet.from_stream(stream, block_size)
        assert collected.left.tolist() == [1, 1] and collected.right.tolist() == [2, 4]

    @pytest.mark.parametrize("block_size", [None, 1])
    def test_empty_stream(self, block_size):
        assert len(CandidateSet.from_stream(_stream([]), block_size)) == 0
        assert len(CandidateSet.from_stream(_stream([([], [])]), block_size)) == 0

    def test_indices_past_int32_take_the_slow_path(self):
        big = 1 << 31
        stream = _stream([([big + 5, 3], [1, big + 5]), ([1], [big + 5])])
        collected = CandidateSet.from_stream(stream, block_size=1)
        assert collected.left.tolist() == [1, 3]
        assert collected.right.tolist() == [big + 5, big + 5]

    @pytest.mark.parametrize("block_size", [1, 16, 64])
    def test_buffered_raw_pairs_stay_bounded(self, block_size):
        """Raw pairs held <= max(deduplicated so far, block_size) + one block.

        The stream watches the blocks it yielded (weakly): each time the
        collector asks for the next block it counts the raw pairs still
        alive, i.e. buffered or in hand.  190 possible pairs arrive 5,000
        times over, so holding every raw block would break the bound.
        """
        rng = np.random.default_rng(5)
        block = 50
        yielded: list = []
        seen: set = set()
        held_and_bound: list[tuple[int, int]] = []

        def blocks():
            for _ in range(100):
                held = sum(len(array) for ref in yielded if (array := ref()) is not None)
                held_and_bound.append((held, max(len(seen), block_size) + block))
                # reversed pairs: the collector must build new arrays, never keep these
                high = rng.integers(1, 20, size=block)
                low = rng.integers(0, 20, size=block) % high
                seen.update(zip(low.tolist(), high.tolist()))
                yielded.append(weakref.ref(high))
                yield high, low
                del high, low

        collected = CandidateSet.from_stream(BlockStream(blocks(), {}), block_size)
        assert len(collected) == len(seen)
        assert max(held for held, _ in held_and_bound) > 0
        assert all(held <= bound for held, bound in held_and_bound), held_and_bound


class TestBlocks:
    def _pairs(self):
        return CandidateSet(
            left=np.array([0, 0, 2, 2, 5], dtype=np.int64),
            right=np.array([1, 4, 3, 6, 6], dtype=np.int64),
        )

    def test_len_and_getitem(self):
        pairs = self._pairs()
        assert len(pairs) == 5
        assert pairs[0] == (0, 1)
        assert pairs[4] == (5, 6)
        left, right = pairs[np.array([1, 3])]
        assert left.tolist() == [0, 2] and right.tolist() == [4, 6]

    @pytest.mark.parametrize("block_size", [1, 2, 5, 6])
    def test_blocks_cover_all_pairs_in_order(self, block_size):
        collected = []
        for left, right in self._pairs().blocks(block_size):
            assert 0 < len(left) <= block_size
            collected.extend(zip(left.tolist(), right.tolist()))
        assert collected == [(0, 1), (0, 4), (2, 3), (2, 6), (5, 6)]

    def test_no_block_size_is_one_block(self):
        pairs = self._pairs()
        ((left, right),) = pairs.blocks()
        assert left.tolist() == pairs.left.tolist() and right.tolist() == pairs.right.tolist()

    @pytest.mark.parametrize("block_size", [None, 3])
    def test_an_empty_set_is_one_empty_block(self, block_size):
        ((left, right),) = CandidateSet.from_pairs([]).blocks(block_size)
        assert len(left) == len(right) == 0


def _generator(kind):
    if kind == "allpairs":
        return AllPairsGenerator("cosine", 0.3)
    if kind == "ppjoin":
        return PPJoinGenerator("jaccard", 0.3)
    return LSHGenerator("cosine", 0.5, seed=4)


class TestStreamedDeduplication:
    """``from_stream`` at any ``block_size`` == one-shot ``from_arrays`` on raw
    generator streams.  The inverted-index generators find a pair from one
    row only and cut their probe batches at row boundaries, so no pair is in
    two of their blocks; LSH blocks repeat pairs across bands."""

    @pytest.mark.parametrize("kind", ["allpairs", "ppjoin", "lsh"])
    @pytest.mark.parametrize("block_size", [None, 1, 7, 4096])
    def test_equals_one_shot_from_arrays(self, kind, block_size, sparse_text_collection):
        generator = _generator(kind)
        raw = list(generator.generate_blocks(sparse_text_collection, block_size))
        stream = generator.generate_blocks(sparse_text_collection, block_size)
        collected = CandidateSet.from_stream(stream, block_size)
        reference = CandidateSet.from_arrays(
            np.concatenate([left for left, _ in raw]),
            np.concatenate([right for _, right in raw]),
            **stream.metadata,
        )
        assert len(reference) > 0
        assert block_size is None or max(len(left) for left, _ in raw) <= block_size
        if kind == "lsh":
            assert sum(len(left) for left, _ in raw) > len(reference), (
                "the stream must repeat pairs across blocks"
            )
        else:
            assert sum(len(left) for left, _ in raw) == len(reference), (
                "no pair may appear in two blocks"
            )
        np.testing.assert_array_equal(collected.left, reference.left)
        np.testing.assert_array_equal(collected.right, reference.right)
        assert collected.left.dtype == collected.right.dtype == np.int64
        assert collected.metadata == reference.metadata
        assert collected.metadata == generator.generate(sparse_text_collection).metadata

    @pytest.mark.parametrize("kind", ["allpairs", "ppjoin"])
    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_rows_over_a_tiny_budget_stay_whole(self, kind, block_size, seed, monkeypatch):
        """A five-hit budget splits the probe into many batches, and rows
        with more hits (the hub row holds every feature) exceed it; still no
        pair is in two blocks."""
        collection = _random_weighted_collection(seed)
        generator = _generator(kind)
        whole = generator.generate(collection)
        monkeypatch.setattr(arrayops, "_HIT_BATCH", 5)
        monkeypatch.setattr(arrayops, "_HIT_BATCH_FLOOR", 5)
        raw = list(generator.generate_blocks(collection, block_size))
        left = np.concatenate([left for left, _ in raw])
        right = np.concatenate([right for _, right in raw])
        assert len(raw) > 1
        assert len(left) == len(whole), "no pair may appear in two blocks"
        collected = generator.generate(collection, block_size)
        np.testing.assert_array_equal(collected.left, whole.left)
        np.testing.assert_array_equal(collected.right, whole.right)
        assert collected.metadata == whole.metadata
        assert CandidateSet.from_arrays(left, right).as_set() == whole.as_set()


class TestGeneratorBase:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BruteForceGenerator("cosine", threshold=0.0)
        with pytest.raises(ValueError):
            BruteForceGenerator("cosine", threshold=1.0)

    def test_measure_resolution(self):
        generator = BruteForceGenerator("jaccard", threshold=0.5)
        assert generator.measure.name == "jaccard"
        assert generator.threshold == 0.5

    def test_is_abstract(self):
        with pytest.raises(TypeError):
            CandidateGenerator("cosine", 0.5)

    def test_repr(self):
        generator = BruteForceGenerator("cosine", threshold=0.7)
        assert "cosine" in repr(generator)
