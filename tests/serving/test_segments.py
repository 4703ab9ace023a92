"""Unit tests for the segmented collection store.

The contract under test (see ``repro/serving/segments.py``): a
:class:`SegmentedCollection` is observationally equivalent to the monolithic
concatenation of its segments — every routed kernel (band keys, cross-store
match counts, exact cross-similarities) returns the same values a single
merged store/collection would, bit for bit, because all of them are
row-local.
"""

import numpy as np
import pytest

from repro.hashing.base import get_hash_family
from repro.serving.segments import SegmentedCollection
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection


def _dense(seed: int, n: int, features: int = 60) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, features)) * (rng.random((n, features)) < 0.25)


def _segmented(measure_name: str, parts, seed: int = 0, n_hashes: int = 64):
    measure = get_measure(measure_name)
    store = SegmentedCollection(measure, parts[0].shape[1], seed=seed)
    for part in parts:
        store.append(VectorCollection.from_dense(part), n_hashes)
    return measure, store


def _monolithic_family(measure, matrix, seed: int = 0):
    prepared = measure.prepare(VectorCollection.from_dense(matrix))
    return prepared, get_hash_family(measure.lsh_family, prepared, seed=seed)


class TestLayout:
    def test_offsets_rows_and_ids(self):
        parts = [_dense(0, 10), _dense(1, 4), _dense(2, 7)]
        _, store = _segmented("cosine", parts)
        assert store.n_segments == 3
        assert store.n_vectors == 21
        assert [seg.offset for seg in store.segments] == [0, 10, 14]
        assert store.segments[1].rows.tolist() == list(range(10, 14))
        # Default ids are each segment's local defaults.
        assert store.segments[2].ids.tolist() == list(range(7))

    def test_segment_of_routes_and_validates(self):
        _, store = _segmented("cosine", [_dense(0, 5), _dense(1, 5)])
        assert store.segment_of([0, 4, 5, 9]).tolist() == [0, 0, 1, 1]
        with pytest.raises(IndexError):
            store.segment_of([10])
        with pytest.raises(IndexError):
            store.segment_of([-1])

    def test_row_nnz_matches_monolithic(self):
        parts = [_dense(3, 8), _dense(4, 9)]
        measure, store = _segmented("jaccard", parts)
        merged = measure.prepare(VectorCollection.from_dense(np.vstack(parts)))
        assert np.array_equal(store.row_nnz, merged.row_nnz)

    def test_feature_mismatch_rejected(self):
        _, store = _segmented("cosine", [_dense(0, 5)])
        with pytest.raises(ValueError, match="features"):
            store.append(VectorCollection.from_dense(_dense(1, 3, features=9)), 64)

    def test_ids_length_validated(self):
        _, store = _segmented("cosine", [_dense(0, 5)])
        with pytest.raises(ValueError, match="ids"):
            store.append(VectorCollection.from_dense(_dense(1, 3)), 64, ids=[1, 2])

    def test_to_collection_round_trip(self):
        parts = [_dense(5, 6), _dense(6, 3)]
        _, store = _segmented("cosine", parts)
        merged = store.to_collection()
        assert merged.n_vectors == 9
        assert np.allclose(merged.matrix.toarray(), np.vstack(parts))


@pytest.mark.parametrize("measure_name", ["cosine", "jaccard"])
class TestKernelEquivalence:
    """Segment-routed kernels equal the monolithic kernels bit for bit."""

    def _setup(self, measure_name):
        parts = [_dense(10, 12), _dense(11, 5), _dense(12, 9)]
        merged = np.vstack(parts)
        measure, segmented = _segmented(measure_name, parts, seed=7, n_hashes=128)
        prepared, family = _monolithic_family(measure, merged, seed=7)
        mono_store = family.signatures(128)
        return measure, segmented, prepared, mono_store

    def test_band_keys_match(self, measure_name):
        _, segmented, _, mono_store = self._setup(measure_name)
        rows = np.array([0, 3, 12, 13, 16, 17, 25, 7], dtype=np.int64)
        for band in range(4):
            expected = mono_store.band_keys_many(rows, band, 32)
            actual = segmented.band_keys_many(rows, band, 32)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)

    def test_cross_match_counts_match(self, measure_name):
        measure, segmented, _, mono_store = self._setup(measure_name)
        queries = _dense(13, 6)
        query_prepared = measure.prepare(VectorCollection.from_dense(queries))
        query_family = segmented.family.clone_for(query_prepared)
        query_store = query_family.signatures(128)
        rows = np.array([1, 5, 13, 15, 20, 25, 24, 2], dtype=np.int64)
        query_rows = np.array([0, 1, 2, 3, 4, 5, 0, 1], dtype=np.int64)
        for start, end, width in [(0, 32, 32), (32, 96, 64), (0, 128, 32), (5, 125, 40)]:
            expected = mono_store.count_matches_rounds(
                rows, query_rows, start, end, width, query_store
            )
            actual = segmented.count_matches_cross(
                query_store, query_rows, rows, start, end, width
            )
            assert np.array_equal(actual, expected)

    def test_cross_similarities_match(self, measure_name):
        from repro.verification.base import cross_similarities_for_pairs

        measure, segmented, prepared, _ = self._setup(measure_name)
        queries = _dense(14, 5)
        query_prepared = measure.prepare(VectorCollection.from_dense(queries))
        rows = np.array([0, 11, 12, 17, 25, 3], dtype=np.int64)
        query_rows = np.array([0, 1, 2, 3, 4, 0], dtype=np.int64)
        expected = cross_similarities_for_pairs(
            query_prepared, prepared, measure, query_rows, rows
        )
        actual = segmented.cross_similarities(query_prepared, query_rows, rows)
        assert np.array_equal(actual, expected)


class TestLazyExtension:
    def test_segments_extend_independently(self):
        _, store = _segmented("cosine", [_dense(20, 6), _dense(21, 6)], n_hashes=64)
        widths = [seg.store.n_hashes for seg in store.segments]
        # Extend only the second segment through a routed count.
        query = _dense(22, 1)
        measure = get_measure("cosine")
        query_prepared = measure.prepare(VectorCollection.from_dense(query))
        query_family = store.family.clone_for(query_prepared)
        query_store = query_family.signatures(512)
        store.count_matches_cross(
            query_store, np.array([0]), np.array([8]), 0, 512, 512
        )
        assert store.segments[1].store.n_hashes >= 512
        assert store.segments[0].store.n_hashes == widths[0]
        # ensure_hashes catches every segment up.
        store.ensure_hashes(512)
        assert store.segments[0].store.n_hashes >= 512
        assert store.max_store_hashes == max(
            seg.store.n_hashes for seg in store.segments
        )

    def test_late_extension_matches_eager_hashing(self):
        """Hashes drawn long after sealing equal an eagerly hashed store's."""
        parts = [_dense(30, 7), _dense(31, 8)]
        measure, lazy = _segmented("jaccard", parts, seed=3, n_hashes=32)
        _, eager = _segmented("jaccard", parts, seed=3, n_hashes=256)
        lazy.ensure_hashes(256)
        for seg_lazy, seg_eager in zip(lazy.segments, eager.segments):
            assert np.array_equal(
                seg_lazy.store.values[:, :256], seg_eager.store.values[:, :256]
            )
