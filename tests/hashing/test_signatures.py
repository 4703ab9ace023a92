"""Unit tests for the signature stores."""

import numpy as np
import pytest

from repro.hashing.signatures import BitSignatures, IntSignatures


class TestBitSignatures:
    def _store_with_bits(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        store = BitSignatures(bits.shape[0])
        store.append_bits(bits)
        return store

    def test_empty_store(self):
        store = BitSignatures(3)
        assert store.n_vectors == 3
        assert store.n_hashes == 0

    def test_append_and_count(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(5, 64)).astype(np.uint8)
        store = self._store_with_bits(bits)
        assert store.n_hashes == 64
        for i, j in [(0, 1), (2, 4), (3, 3)]:
            expected = int(np.sum(bits[i] == bits[j]))
            assert store.count_matches(i, j, 0, 64) == expected

    def test_count_matches_subrange_word_aligned(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(4, 128)).astype(np.uint8)
        store = self._store_with_bits(bits)
        expected = int(np.sum(bits[0, 32:96] == bits[1, 32:96]))
        assert store.count_matches(0, 1, 32, 96) == expected

    def test_count_matches_unaligned_range(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(2, 64)).astype(np.uint8)
        store = self._store_with_bits(bits)
        expected = int(np.sum(bits[0, 5:40] == bits[1, 5:40]))
        assert store.count_matches(0, 1, 5, 40) == expected

    def test_count_matches_empty_range(self):
        store = self._store_with_bits(np.zeros((2, 32), dtype=np.uint8))
        assert store.count_matches(0, 1, 10, 10) == 0

    def test_count_matches_out_of_range(self):
        store = self._store_with_bits(np.zeros((2, 32), dtype=np.uint8))
        with pytest.raises(IndexError):
            store.count_matches(0, 1, 0, 64)

    def test_count_matches_one_round_matches_scalar(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(6, 96)).astype(np.uint8)
        store = self._store_with_bits(bits)
        left = np.array([0, 1, 2])
        right = np.array([3, 4, 5])
        batch = store.count_matches_rounds(left, right, 32, 96, 64)[:, 0]
        singles = [store.count_matches(i, j, 32, 96) for i, j in zip(left, right)]
        assert batch.tolist() == singles

    def test_count_matches_one_unaligned_round_matches_scalar(self):
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(8, 96)).astype(np.uint8)
        store = self._store_with_bits(bits)
        left = rng.integers(0, 8, size=20)
        right = rng.integers(0, 8, size=20)
        for start, end in [(5, 40), (0, 17), (33, 96), (31, 33), (63, 64), (5, 6)]:
            batch = store.count_matches_rounds(left, right, start, end, end - start)[:, 0]
            singles = [
                int(np.sum(bits[i, start:end] == bits[j, start:end]))
                for i, j in zip(left, right)
            ]
            assert batch.tolist() == singles, (start, end)

    def test_count_matches_rounds_matches_per_round(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=(10, 256)).astype(np.uint8)
        store = self._store_with_bits(bits)
        left = rng.integers(0, 10, size=30)
        right = rng.integers(0, 10, size=30)
        # word-aligned fast path and the masked unaligned path
        for start, end, width in [(32, 160, 32), (0, 256, 64), (8, 28, 10), (0, 96, 48)]:
            rounds = store.count_matches_rounds(left, right, start, end, width)
            assert rounds.shape == (30, (end - start) // width)
            for r in range((end - start) // width):
                lo, hi = start + r * width, start + (r + 1) * width
                expected = [store.count_matches(i, j, lo, hi) for i, j in zip(left, right)]
                assert rounds[:, r].tolist() == expected

    def test_count_matches_rounds_checks_other_store(self):
        store = self._store_with_bits(np.zeros((2, 64), dtype=np.uint8))
        shallow = self._store_with_bits(np.zeros((2, 32), dtype=np.uint8))
        ints = IntSignatures(2)
        ints.append_values(np.zeros((2, 64), dtype=np.int64))
        with pytest.raises(TypeError, match="cannot cross-count"):
            store.count_matches_rounds(np.array([0]), np.array([1]), 0, 32, 32, ints)
        with pytest.raises(IndexError, match="out of range"):
            store.count_matches_rounds(np.array([0]), np.array([1]), 0, 64, 32, shallow)

    def test_count_matches_rounds_rejects_ragged_span(self):
        store = self._store_with_bits(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="whole number of rounds"):
            store.count_matches_rounds(np.array([0]), np.array([1]), 0, 50, 32)

    def test_get_bits_round_trip(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(3, 64)).astype(np.uint8)
        store = self._store_with_bits(bits)
        np.testing.assert_array_equal(store.get_bits(1, 0, 64), bits[1])
        np.testing.assert_array_equal(store.get_bits(2, 10, 50), bits[2, 10:50])

    def test_incremental_append_preserves_prefix(self):
        rng = np.random.default_rng(5)
        first = rng.integers(0, 2, size=(3, 32)).astype(np.uint8)
        second = rng.integers(0, 2, size=(3, 32)).astype(np.uint8)
        store = BitSignatures(3)
        store.append_bits(first)
        before = store.get_bits(0, 0, 32).copy()
        store.append_bits(second)
        np.testing.assert_array_equal(store.get_bits(0, 0, 32), before)
        np.testing.assert_array_equal(store.get_bits(0, 32, 64), second[0])

    def test_append_shape_validation(self):
        store = BitSignatures(3)
        with pytest.raises(ValueError, match="shape"):
            store.append_bits(np.zeros((2, 32), dtype=np.uint8))

    def test_band_key_distinguishes_bands(self):
        bits = np.zeros((2, 64), dtype=np.uint8)
        bits[0, :32] = 1
        store = self._store_with_bits(bits)
        assert store.band_key(0, 0, 32) != store.band_key(0, 1, 32)
        assert store.band_key(0, 1, 32) == store.band_key(1, 1, 32)

    def test_agreement_fraction(self):
        bits = np.zeros((2, 32), dtype=np.uint8)
        bits[1, :16] = 1
        store = self._store_with_bits(bits)
        assert store.agreement_fraction(0, 1, 32) == pytest.approx(0.5)
        assert store.agreement_fraction(0, 1, 0) == 0.0


class TestIntSignatures:
    def _store_with_values(self, values):
        values = np.asarray(values, dtype=np.int64)
        store = IntSignatures(values.shape[0])
        store.append_values(values)
        return store

    def test_count_matches(self):
        values = np.array([[1, 2, 3, 4], [1, 9, 3, 8], [1, 2, 3, 4]])
        store = self._store_with_values(values)
        assert store.count_matches(0, 1, 0, 4) == 2
        assert store.count_matches(0, 2, 0, 4) == 4
        assert store.count_matches(0, 1, 1, 3) == 1

    def test_count_matches_one_round(self):
        values = np.array([[1, 2], [1, 3], [5, 2], [1, 2]])
        store = self._store_with_values(values)
        batch = store.count_matches_rounds(np.array([0, 0, 0]), np.array([1, 2, 3]), 0, 2, 2)
        assert batch.tolist() == [[1], [1], [2]]

    def test_incremental_append(self):
        store = IntSignatures(2)
        store.append_values(np.array([[1, 2], [1, 5]]))
        store.append_values(np.array([[7], [7]]))
        assert store.n_hashes == 3
        assert store.count_matches(0, 1, 0, 3) == 2

    def test_count_matches_rounds_matches_per_round(self):
        rng = np.random.default_rng(21)
        values = rng.integers(0, 4, size=(9, 96))
        store = self._store_with_values(values)
        left = rng.integers(0, 9, size=25)
        right = rng.integers(0, 9, size=25)
        for start, end, width in [(0, 96, 32), (16, 80, 16), (3, 93, 10)]:
            rounds = store.count_matches_rounds(left, right, start, end, width)
            for r in range((end - start) // width):
                lo, hi = start + r * width, start + (r + 1) * width
                expected = [store.count_matches(i, j, lo, hi) for i, j in zip(left, right)]
                assert rounds[:, r].tolist() == expected

    def test_count_matches_rounds_checks_other_store(self):
        store = self._store_with_values(np.zeros((2, 64), dtype=np.int64))
        shallow = self._store_with_values(np.zeros((2, 8), dtype=np.int64))
        bits = BitSignatures(2)
        bits.append_bits(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(TypeError, match="cannot cross-count"):
            store.count_matches_rounds(np.array([0]), np.array([1]), 0, 32, 32, bits)
        with pytest.raises(IndexError, match="out of range"):
            store.count_matches_rounds(np.array([0]), np.array([1]), 0, 64, 32, shallow)

    def test_count_matches_rounds_rejects_ragged_span(self):
        store = self._store_with_values(np.zeros((2, 8), dtype=np.int64))
        with pytest.raises(ValueError, match="whole number of rounds"):
            store.count_matches_rounds(np.array([0]), np.array([1]), 0, 7, 3)

    def test_band_key(self):
        values = np.array([[1, 2, 3, 4], [1, 2, 9, 9]])
        store = self._store_with_values(values)
        assert store.band_key(0, 0, 2) == store.band_key(1, 0, 2)
        assert store.band_key(0, 1, 2) != store.band_key(1, 1, 2)

    def test_out_of_range(self):
        store = self._store_with_values(np.array([[1], [2]]))
        with pytest.raises(IndexError):
            store.count_matches(0, 1, 0, 5)
        with pytest.raises(IndexError):
            store.band_key(0, 3, 2)

    def test_append_shape_validation(self):
        store = IntSignatures(2)
        with pytest.raises(ValueError, match="shape"):
            store.append_values(np.zeros((3, 4)))
