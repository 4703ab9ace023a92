"""Unit tests for the 2-byte Gaussian quantisation scheme (Section 4.3)."""

import warnings

import numpy as np
import pytest

from repro.hashing.quantization import (
    QuantizedGaussian,
    dequantize_floats,
    quantize_floats,
)


class TestQuantizeRoundTrip:
    def test_dtype(self):
        assert quantize_floats(np.zeros(4)).dtype == np.uint16

    def test_max_error_within_half_step(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(100_000)
        recovered = dequantize_floats(quantize_floats(values))
        max_error = np.max(np.abs(recovered - values))
        # mid-point decoding: error at most half the step size 16 / 2**16
        assert max_error <= 16 / (1 << 16) / 2 + 1e-12

    def test_paper_error_bound(self):
        # the paper quotes a maximum error of ~0.0001 for values in (-8, 8)
        rng = np.random.default_rng(1)
        values = rng.uniform(-7.99, 7.99, size=10_000)
        recovered = dequantize_floats(quantize_floats(values))
        assert np.max(np.abs(recovered - values)) < 1.3e-4

    def test_clipping_outside_range(self):
        codes = quantize_floats(np.array([-100.0, 100.0]))
        recovered = dequantize_floats(codes)
        assert recovered[0] == pytest.approx(-8.0, abs=1e-3)
        assert recovered[1] == pytest.approx(8.0, abs=1e-3)

    def test_values_near_the_float64_limit_clip_without_a_warning(self):
        values = np.array([1e308, -1e308, np.inf, -np.inf, np.finfo(np.float64).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = quantize_floats(values)
        np.testing.assert_array_equal(codes, [65535, 0, 65535, 0, 65535])

    def test_monotonicity(self):
        values = np.linspace(-7.9, 7.9, 1000)
        codes = quantize_floats(values)
        assert np.all(np.diff(codes.astype(np.int64)) >= 0)


class TestQuantizedGaussian:
    def test_lazy_growth_and_determinism(self):
        first = QuantizedGaussian(50, seed=3)
        chunk_a = first.columns(0, 10)
        chunk_b = first.columns(10, 20)
        fresh = QuantizedGaussian(50, seed=3)
        all_at_once = fresh.columns(0, 20)
        np.testing.assert_allclose(np.hstack([chunk_a, chunk_b]), all_at_once)

    @pytest.mark.parametrize("quantize", [True, False])
    def test_rows32_is_a_row_subset_of_columns32(self, quantize):
        rows = np.array([0, 7, 8, 49])
        subset = QuantizedGaussian(50, seed=3, quantize=quantize).rows32(rows, 4, 20)
        full = QuantizedGaussian(50, seed=3, quantize=quantize).columns32(4, 20)
        assert subset.dtype == np.float32
        np.testing.assert_array_equal(subset, full[rows])

    @pytest.mark.parametrize("quantize", [True, False])
    def test_growth_pattern_leaves_no_trace(self, quantize):
        # Columns land in a buffer that doubles; however the requests arrive,
        # the matrix, the generator position and what a reader already holds
        # are the same.
        stepwise = QuantizedGaussian(23, seed=9, quantize=quantize)
        held = stepwise.columns32(0, 3)
        before = held.copy()
        for n_columns in (3, 4, 40, 41, 130, 700):
            stepwise.columns(0, n_columns)
        at_once = QuantizedGaussian(23, seed=9, quantize=quantize)
        at_once.columns(0, 700)
        np.testing.assert_array_equal(held, before)
        assert stepwise.n_columns == at_once.n_columns == 700
        assert stepwise.nbytes == at_once.nbytes
        a, b = stepwise.state_dict(), at_once.state_dict()
        np.testing.assert_array_equal(a["matrix"], b["matrix"])
        assert a["rng_state"] == b["rng_state"]
        restored = QuantizedGaussian(23, seed=0, quantize=quantize)
        restored.restore_state(a)
        np.testing.assert_array_equal(restored.columns(690, 800), at_once.columns(690, 800))

    def test_different_seeds_differ(self):
        a = QuantizedGaussian(20, seed=0).columns(0, 5)
        b = QuantizedGaussian(20, seed=1).columns(0, 5)
        assert not np.allclose(a, b)

    def test_quantized_close_to_exact(self):
        quantized = QuantizedGaussian(200, seed=7, quantize=True).columns(0, 50)
        exact = QuantizedGaussian(200, seed=7, quantize=False).columns(0, 50)
        assert np.max(np.abs(quantized - exact)) < 2e-4

    def test_nbytes_savings(self):
        quantized = QuantizedGaussian(500, seed=0, quantize=True)
        exact = QuantizedGaussian(500, seed=0, quantize=False)
        quantized.columns(0, 64)
        exact.columns(0, 64)
        assert quantized.nbytes * 4 == exact.nbytes  # 2 bytes vs 8 bytes per entry

    def test_column_count_tracking(self):
        gaussian = QuantizedGaussian(10, seed=0)
        assert gaussian.n_columns == 0
        gaussian.columns(0, 8)
        assert gaussian.n_columns == 8
        gaussian.columns(0, 4)  # no shrink
        assert gaussian.n_columns == 8

    def test_invalid_ranges(self):
        gaussian = QuantizedGaussian(10, seed=0)
        with pytest.raises(ValueError):
            gaussian.columns(-1, 4)
        with pytest.raises(ValueError):
            gaussian.columns(5, 2)
        with pytest.raises(ValueError):
            QuantizedGaussian(-1)

    def test_gaussian_statistics(self):
        columns = QuantizedGaussian(2000, seed=11).columns(0, 20)
        assert abs(columns.mean()) < 0.02
        assert abs(columns.std() - 1.0) < 0.02
