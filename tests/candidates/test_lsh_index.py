"""Unit tests for the banded LSH candidate generator."""

import numpy as np
import pytest

from repro.candidates import lsh_index
from repro.candidates.lsh_index import (
    BandPostings,
    LSHGenerator,
    group_bands_by_content,
    signatures_for_false_negative_rate,
)
from repro.evaluation.ground_truth import exact_all_pairs
from repro.hashing.base import get_hash_family
from tests import reference


class TestSignatureCountFormula:
    def test_matches_closed_form(self):
        import math

        for p, k, fn in [(0.7, 4, 0.03), (0.9, 8, 0.05), (0.5, 3, 0.1)]:
            expected = math.ceil(math.log(fn) / math.log(1 - p**k))
            assert signatures_for_false_negative_rate(p, k, fn) == expected

    def test_higher_recall_needs_more_signatures(self):
        low = signatures_for_false_negative_rate(0.7, 8, 0.1)
        high = signatures_for_false_negative_rate(0.7, 8, 0.01)
        assert high > low

    def test_wider_signatures_need_more_bands(self):
        narrow = signatures_for_false_negative_rate(0.7, 4, 0.03)
        wide = signatures_for_false_negative_rate(0.7, 12, 0.03)
        assert wide > narrow

    def test_validation(self):
        with pytest.raises(ValueError):
            signatures_for_false_negative_rate(0.0, 4, 0.03)
        with pytest.raises(ValueError):
            signatures_for_false_negative_rate(0.7, 0, 0.03)
        with pytest.raises(ValueError):
            signatures_for_false_negative_rate(0.7, 4, 1.5)

    def test_capped(self):
        assert signatures_for_false_negative_rate(0.05, 16, 0.001) <= 2000


class TestLSHGeneratorCosine:
    def test_recall_of_candidate_set(self, sparse_text_dataset):
        """Pairs above the threshold should rarely be missed (fn rate 0.03)."""
        threshold = 0.7
        truth = exact_all_pairs(sparse_text_dataset, threshold, "cosine")
        generator = LSHGenerator("cosine", threshold, false_negative_rate=0.03, seed=1)
        candidates = generator.generate(sparse_text_dataset.collection).as_set()
        missed = [pair for pair in truth.pair_set() if pair not in candidates]
        assert len(missed) <= max(2, 0.1 * len(truth))

    def test_candidate_set_smaller_than_all_pairs(self, sparse_text_dataset):
        n = sparse_text_dataset.n_vectors
        generator = LSHGenerator("cosine", 0.7, seed=1)
        candidates = generator.generate(sparse_text_dataset.collection)
        assert 0 < len(candidates) < n * (n - 1) // 2

    def test_metadata(self, sparse_text_dataset):
        generator = LSHGenerator("cosine", 0.7, seed=1)
        candidates = generator.generate(sparse_text_dataset.collection)
        assert candidates.metadata["generator"] == "lsh"
        assert candidates.metadata["n_signatures"] == generator.n_signatures
        assert candidates.metadata["n_raw_collisions"] >= len(candidates)

    def test_family_reuse(self, sparse_text_dataset):
        prepared = sparse_text_dataset.collection.normalized()
        family = get_hash_family("simhash", prepared, seed=3)
        generator = LSHGenerator("cosine", 0.7, family=family, seed=3)
        generator.generate(sparse_text_dataset.collection)
        assert generator.family is family
        assert family.n_hashes >= generator.n_signatures * generator.signature_width

    @pytest.mark.parametrize("signature_width", [3, 8, 32])
    def test_matches_bucket_reference(self, signature_width, sparse_text_collection):
        """Bit bands, unaligned and word-aligned, against the dict of buckets."""
        generator = LSHGenerator("cosine", 0.7, signature_width=signature_width, seed=2)
        candidates = generator.generate(sparse_text_collection)
        rows = np.flatnonzero(sparse_text_collection.row_nnz > 0)
        expected_pairs, expected_collisions = reference.lsh_candidates_reference(
            generator.family.signatures(0), rows, generator.n_signatures, signature_width
        )
        assert candidates.as_set() == expected_pairs
        assert candidates.metadata["n_raw_collisions"] == expected_collisions

    def test_higher_threshold_fewer_candidates(self, sparse_text_dataset):
        low = LSHGenerator("cosine", 0.5, seed=2).generate(sparse_text_dataset.collection)
        high = LSHGenerator("cosine", 0.9, seed=2).generate(sparse_text_dataset.collection)
        assert len(high) < len(low)


class TestLSHGeneratorJaccard:
    def test_recall_of_candidate_set(self, binary_sets_collection):
        threshold = 0.5
        truth = exact_all_pairs(binary_sets_collection, threshold, "jaccard")
        generator = LSHGenerator("jaccard", threshold, false_negative_rate=0.03, seed=5)
        candidates = generator.generate(binary_sets_collection).as_set()
        missed = [pair for pair in truth.pair_set() if pair not in candidates]
        assert len(missed) <= max(2, 0.1 * len(truth))

    def test_collision_probability_is_threshold(self):
        generator = LSHGenerator("jaccard", 0.4)
        assert generator.measure_collision_probability() == pytest.approx(0.4)

    def test_collision_probability_cosine_uses_conversion(self):
        generator = LSHGenerator("cosine", 0.5)
        assert generator.measure_collision_probability() == pytest.approx(1 - np.arccos(0.5) / np.pi)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LSHGenerator("cosine", 0.7, false_negative_rate=0.0)
        with pytest.raises(ValueError):
            LSHGenerator("cosine", 0.7, signature_width=0)


def _group_by_first_occurrence(keys):
    """A dict of buckets over one band's keys: the reference ``(order, offsets)``.

    Groups come in the order their first row appears, rows in argument order.
    """
    buckets: dict[bytes, list[int]] = {}
    for position, key in enumerate(keys):
        buckets.setdefault(key.tobytes(), []).append(position)
    order = np.array([p for members in buckets.values() for p in members], dtype=np.int64)
    sizes = [len(members) for members in buckets.values()]
    return order, np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


def _assert_groups_equal_reference(stacked):
    groups = group_bands_by_content(stacked)
    assert len(groups) == len(stacked)
    for keys, (order, offsets) in zip(stacked, groups):
        ref_order, ref_offsets = _group_by_first_occurrence(keys)
        np.testing.assert_array_equal(order, ref_order)
        np.testing.assert_array_equal(offsets, ref_offsets)
        assert order.dtype == offsets.dtype == np.int64


_GROUPING_RNG = np.random.default_rng(11)
_GROUPING_CASES = {
    "uint32_words": _GROUPING_RNG.integers(0, 6, size=(400, 2)).astype(np.uint32),
    "uint32_high_bit": _GROUPING_RNG.integers(2**31 - 2, 2**31 + 2, size=(300, 1)).astype(np.uint32),
    "unpacked_bits": _GROUPING_RNG.integers(0, 2, size=(500, 6)).astype(np.uint8),
    "int32_minhash": _GROUPING_RNG.integers(0, 40, size=(600, 4)).astype(np.int32),
    "negative_int64": _GROUPING_RNG.integers(-3, 3, size=(200, 3)),
    "width_1": _GROUPING_RNG.integers(0, 50, size=(300, 1)).astype(np.int32),
    "zero_rows_words": np.zeros((0, 2), dtype=np.uint32),
    "zero_rows_ints": np.zeros((0, 4), dtype=np.int32),
    "one_row": np.array([[5, 9]], dtype=np.int32),
    "all_equal": np.full((50, 3), 7, dtype=np.int32),
    "all_distinct": _GROUPING_RNG.permutation(120).reshape(60, 2).astype(np.int32),
    # Order-preserving word packing: sign flips, byte order and word padding.
    "int32_sentinels_beside_max": _GROUPING_RNG.choice(
        np.array([-4, -2, -1, 0, 2**31 - 3, 2**31 - 2, 2**31 - 1], dtype=np.int32),
        size=(400, 4),
    ),
    "int64_spanning_2_62": _GROUPING_RNG.choice(
        np.array([-(2**62), -(2**62) + 1, -1, 0, 1, 2**62 - 1, 2**62], dtype=np.int64),
        size=(300, 2),
    ),
    "uint64_high_bit": _GROUPING_RNG.choice(
        np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64),
        size=(300, 2),
    ),
    "unpacked_bits_width_9": _GROUPING_RNG.integers(0, 2, size=(500, 9)).astype(np.uint8),
    "unpacked_bits_width_13": _GROUPING_RNG.integers(0, 2, size=(500, 13)).astype(np.uint8),
    "int32_width_2": _GROUPING_RNG.integers(-3, 4, size=(400, 2)).astype(np.int32),
    "int32_width_3": _GROUPING_RNG.integers(-3, 4, size=(400, 3)).astype(np.int32),
}


class TestGroupByBandContent:
    @pytest.mark.parametrize("case", sorted(_GROUPING_CASES))
    def test_equals_the_first_occurrence_reference(self, case):
        _assert_groups_equal_reference(_GROUPING_CASES[case][None])

    @pytest.mark.parametrize("case", sorted(_GROUPING_CASES))
    def test_stacked_bands_group_independently(self, case):
        keys = _GROUPING_CASES[case]
        _assert_groups_equal_reference(np.stack([keys, keys[::-1], np.roll(keys, 3, axis=0)]))

    def test_no_bands(self):
        assert group_bands_by_content(np.zeros((0, 5, 2), dtype=np.int32)) == []

    @pytest.mark.parametrize("family_name", ["simhash", "minhash"])
    @pytest.mark.parametrize("band_width", [3, 32])
    def test_equals_reference_on_real_band_keys(
        self, family_name, band_width, sparse_text_collection, binary_sets_collection
    ):
        """Word-aligned and unaligned simhash bands, and minhash integer bands."""
        collection = sparse_text_collection if family_name == "simhash" else binary_sets_collection
        family = get_hash_family(family_name, collection, seed=5)
        store = family.signatures(2 * band_width)
        rows = np.arange(collection.n_vectors)
        _assert_groups_equal_reference(
            np.stack([store.band_keys_many(rows, band, band_width) for band in range(2)])
        )

    @pytest.mark.parametrize("kind", ["int32_minhash", "uint8_bits"])
    def test_colliding_fingerprints_group_exactly(self, kind, binary_sets_collection, monkeypatch):
        """With the fingerprint constant zeroed every row of a band collides:
        each run is then regrouped by its real contents, to the same output."""
        if kind == "int32_minhash":
            store = get_hash_family("minhash", binary_sets_collection, seed=5).signatures(12)
            rows = np.arange(binary_sets_collection.n_vectors)
            stacked = np.stack([store.band_keys_many(rows, band, 4) for band in range(3)])
        else:
            rng = np.random.default_rng(3)
            contents = rng.integers(0, 2, size=(40, 60)).astype(np.uint8)
            stacked = contents[rng.integers(0, 40, size=(2, 500))]
        n_rows, width = stacked.shape[1:]
        value_bits = int(stacked.max() - stacked.min()).bit_length()
        assert width * value_bits > 64 - (n_rows - 1).bit_length(), "must take the fingerprint"
        plain = group_bands_by_content(stacked)
        assert all(np.diff(offsets).max() > 1 for _, offsets in plain)
        monkeypatch.setattr(lsh_index, "_FINGERPRINT_MULTIPLIER", np.uint64(0))
        collided = group_bands_by_content(stacked)
        for (order, offsets), (ref_order, ref_offsets) in zip(collided, plain):
            np.testing.assert_array_equal(order, ref_order)
            np.testing.assert_array_equal(offsets, ref_offsets)
        _assert_groups_equal_reference(stacked)


class TestBandPostingsProbe:
    N_BANDS, WIDTH = 6, 2

    def _stores(self, collection, n_queries):
        family = get_hash_family("minhash", collection, seed=9)
        store = family.signatures(self.N_BANDS * self.WIDTH)
        return store, np.arange(n_queries)

    def _reference(self, store, member_rows, query_rows, n_bands=N_BANDS, width=WIDTH):
        """Sorted distinct ``(position, member)`` pairs from a dict of buckets."""
        pairs = set()
        for band in range(n_bands):
            buckets: dict = {}
            keys = store.band_keys_many(member_rows, band, width)
            for row, key in zip(member_rows.tolist(), keys):
                buckets.setdefault(key.tobytes(), []).append(row)
            query_keys = store.band_keys_many(query_rows, band, width)
            for position, key in enumerate(query_keys):
                pairs.update((position, row) for row in buckets.get(key.tobytes(), ()))
        ordered = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        return ordered[:, 0], ordered[:, 1]

    def test_equals_dict_of_buckets_brute_force(self, binary_sets_collection):
        store, query_rows = self._stores(binary_sets_collection, 40)
        member_rows = np.arange(binary_sets_collection.n_vectors)
        postings = BandPostings.build(store, member_rows, self.N_BANDS, self.WIDTH)
        positions, members = postings.probe_many(store, query_rows, len(member_rows))
        ref_positions, ref_members = self._reference(store, member_rows, query_rows)
        assert len(members) > len(query_rows)  # more than the self-hits
        np.testing.assert_array_equal(positions, ref_positions)
        np.testing.assert_array_equal(members, ref_members)
        assert positions.dtype == members.dtype == np.int64

    def test_four_bands_of_eight_bits_equal_dict_of_buckets(self, sparse_text_collection):
        """32 bits in all: one gather over every band would return packed
        words, while each band on its own is 8 unpacked bits.  The postings
        must key each band exactly as ``probe_many`` looks it up."""
        store = get_hash_family("simhash", sparse_text_collection, seed=9).signatures(32)
        member_rows = np.arange(sparse_text_collection.n_vectors)
        query_rows = member_rows[:40]
        postings = BandPostings.build(store, member_rows, 4, 8)
        positions, members = postings.probe_many(store, query_rows, len(member_rows))
        ref_positions, ref_members = self._reference(store, member_rows, query_rows, 4, 8)
        assert len(members) > len(query_rows)  # more than the self-hits
        np.testing.assert_array_equal(positions, ref_positions)
        np.testing.assert_array_equal(members, ref_members)

    def test_incremental_adds_probe_like_one_build(self, binary_sets_collection):
        store, query_rows = self._stores(binary_sets_collection, 40)
        n = binary_sets_collection.n_vectors
        postings = BandPostings(self.N_BANDS, self.WIDTH)
        for start in range(0, n, 37):
            postings.add(store, np.arange(start, min(start + 37, n)))
        built = BandPostings.build(store, np.arange(n), self.N_BANDS, self.WIDTH)
        for left, right in zip(
            postings.probe_many(store, query_rows, n), built.probe_many(store, query_rows, n)
        ):
            np.testing.assert_array_equal(left, right)

    def test_span_covers_members_beyond_n_vectors(self, binary_sets_collection):
        """``n_vectors`` is a lower bound: a member row above it (appended by a
        concurrent ingest after the caller's snapshot) must decode intact."""
        store, query_rows = self._stores(binary_sets_collection, 40)
        member_rows = np.arange(binary_sets_collection.n_vectors)
        postings = BandPostings.build(store, member_rows, self.N_BANDS, self.WIDTH)
        reference = self._reference(store, member_rows, query_rows)
        assert reference[1].max() > 10
        for stale_n_vectors in (0, 10):
            positions, members = postings.probe_many(store, query_rows, stale_n_vectors)
            np.testing.assert_array_equal(positions, reference[0])
            np.testing.assert_array_equal(members, reference[1])

    def test_no_hits_and_no_queries(self, binary_sets_collection):
        store, query_rows = self._stores(binary_sets_collection, 5)
        empty = BandPostings(self.N_BANDS, self.WIDTH)
        for positions, members in (
            empty.probe_many(store, query_rows, 100),
            empty.probe_many(store, [], 100),
        ):
            assert positions.dtype == members.dtype == np.int64
            assert len(positions) == len(members) == 0
