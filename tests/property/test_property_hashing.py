"""Property-based tests for the hashing substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hashing.quantization import dequantize_floats, quantize_floats
from repro.hashing.signatures import BitSignatures, IntSignatures
from repro.hashing.simhash import collision_to_cosine, cosine_to_collision

_SETTINGS = settings(max_examples=50, deadline=None)


class TestQuantizationProperties:
    @_SETTINGS
    @given(
        st.lists(
            st.floats(min_value=-7.99, max_value=7.99, allow_nan=False), min_size=1, max_size=200
        )
    )
    def test_round_trip_error_bound(self, values):
        array = np.asarray(values)
        recovered = dequantize_floats(quantize_floats(array))
        assert np.max(np.abs(recovered - array)) <= 16 / (1 << 16)

    @_SETTINGS
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=100))
    def test_codes_always_fit_uint16(self, values):
        codes = quantize_floats(np.asarray(values))
        assert codes.dtype == np.uint16
        decoded = dequantize_floats(codes)
        assert np.all(decoded >= -8.0) and np.all(decoded <= 8.0)


class TestConversionProperties:
    @_SETTINGS
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_c2r_r2c_round_trip(self, cosine):
        assert abs(collision_to_cosine(cosine_to_collision(cosine)) - cosine) < 1e-9

    @_SETTINGS
    @given(st.floats(min_value=0.5, max_value=1.0))
    def test_r2c_c2r_round_trip(self, collision):
        assert abs(cosine_to_collision(collision_to_cosine(collision)) - collision) < 1e-9

    @_SETTINGS
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_collision_range(self, cosine):
        collision = float(cosine_to_collision(cosine))
        assert 0.5 - 1e-12 <= collision <= 1.0 + 1e-12


bit_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=3).map(lambda words: (rows, words * 32))
)


class TestSignatureStoreProperties:
    @_SETTINGS
    @given(bit_matrices, st.integers(min_value=0, max_value=2**31))
    def test_bit_count_matches_reference(self, shape, seed):
        rows, n_bits = shape
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, n_bits)).astype(np.uint8)
        store = BitSignatures(rows)
        store.append_bits(bits)
        i = int(rng.integers(0, rows))
        j = int(rng.integers(0, rows))
        start = int(rng.integers(0, n_bits))
        end = int(rng.integers(start, n_bits + 1))
        expected = int(np.sum(bits[i, start:end] == bits[j, start:end]))
        assert store.count_matches(i, j, start, end) == expected

    @_SETTINGS
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2**31))
    def test_int_count_matches_reference(self, rows, n_hashes, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=(rows, n_hashes)).astype(np.int64)
        store = IntSignatures(rows)
        store.append_values(values)
        i = int(rng.integers(0, rows))
        j = int(rng.integers(0, rows))
        expected = int(np.sum(values[i] == values[j]))
        assert store.count_matches(i, j, 0, n_hashes) == expected
        assert store.count_matches(i, i, 0, n_hashes) == n_hashes

    @_SETTINGS
    @given(
        st.sampled_from(["bits", "ints"]),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_count_matches_rounds_columns_equal_scalar(
        self, kind, start, round_width, n_rounds, cross, seed
    ):
        """Each round column of the one batched kernel is the scalar count of that round.

        Starts and widths are drawn freely, so bit windows are word-unaligned
        as often as not; with ``cross`` the right rows live in a second store
        of the same family, checked against one store holding both row sets.
        """
        end = start + n_rounds * round_width
        n_hashes = (end // 32 + 1) * 32
        rng = np.random.default_rng(seed)
        n_mine, n_theirs = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        values = rng.integers(0, 2 if kind == "bits" else 4, size=(n_mine + n_theirs, n_hashes))

        def store(block):
            made = BitSignatures(len(block)) if kind == "bits" else IntSignatures(len(block))
            append = made.append_bits if kind == "bits" else made.append_values
            append(block[:, :32])  # two column chunks: reads may span both
            append(block[:, 32:])
            return made

        both, mine = store(values), store(values[:n_mine])
        theirs = store(values[n_mine:]) if cross else None
        n_pairs = int(rng.integers(0, 20))
        left = rng.integers(0, n_mine, size=n_pairs)
        right = rng.integers(0, n_theirs if cross else n_mine, size=n_pairs)
        counts = mine.count_matches_rounds(left, right, start, end, round_width, theirs)
        assert counts.shape == (n_pairs, n_rounds)
        offset = n_mine if cross else 0
        for r in range(n_rounds):
            lo, hi = start + r * round_width, start + (r + 1) * round_width
            expected = [both.count_matches(i, j + offset, lo, hi) for i, j in zip(left, right)]
            assert counts[:, r].tolist() == expected
