"""Two-byte quantised storage of random Gaussian projections.

Section 4.3 of the paper ("Cheaper storage of hash functions"): the random
Gaussian vectors behind the cosine LSH family can occupy a lot of memory, so
each float is stored in 2 bytes by exploiting the fact that standard normal
samples essentially never fall outside ``(-8, 8)``:

    x' = floor((x + 8) * 2**16 / 16)

which is an integer in ``[0, 65535]`` reconstructed as
``x = x' * 16 / 2**16 - 8``.  The maximum absolute reconstruction error is
``16 / 2**16 = 0.000244``; the paper quotes 0.0001, which corresponds to the
mid-point decoding ``x = (x' + 0.5) * 16 / 2**16 - 8`` used here.

The sign of a projection can flip only when the dot product lies within the
accumulated quantisation error of zero, which is why this optimisation does
not measurably change the LSH collision statistics (covered by tests).
"""

from __future__ import annotations

import json
import threading

import numpy as np

__all__ = ["quantize_floats", "dequantize_floats", "QuantizedGaussian"]

_RANGE_LOW = -8.0
_RANGE_HIGH = 8.0
_RANGE_WIDTH = _RANGE_HIGH - _RANGE_LOW
_LEVELS = 1 << 16
_STEP = _RANGE_WIDTH / _LEVELS  # 0.000244140625
#: projection vectors drawn per generator call (bounds the float64 scratch)
_DRAW_COLUMNS = 32


def quantize_floats(values: np.ndarray) -> np.ndarray:
    """Quantise floats in ``(-8, 8)`` to ``uint16`` codes.

    Values outside the representable range are clipped; for standard normal
    samples this is an astronomically unlikely event (the paper makes the
    same assumption).
    """
    values = np.asarray(values, dtype=np.float64)
    # Single fused pass, bit-identical to the textbook
    # ``floor(clip(x, -8, 8) - low) / width * levels`` chain: the division by
    # the width and multiplication by the level count are both powers of two
    # (no rounding), so only the subtraction rounds in either formulation, and
    # clipping the scaled value is equivalent to clipping the input.  The
    # uint16 cast truncates, which equals floor for the non-negative clipped
    # scale; values at the top of the range pin to the highest level.  A
    # finite value near the float64 limit scales to +-inf, which clips like
    # any other out-of-range value, so the overflow is not worth a warning.
    with np.errstate(over="ignore"):
        scaled = (values - _RANGE_LOW) * (_LEVELS / _RANGE_WIDTH)
    return np.clip(scaled, 0.0, _LEVELS - 1, out=scaled).astype(np.uint16)


def dequantize_floats(codes: np.ndarray) -> np.ndarray:
    """Reconstruct floats from ``uint16`` codes (mid-point decoding)."""
    codes = np.asarray(codes, dtype=np.float64)
    return (codes + 0.5) * _STEP + _RANGE_LOW


class QuantizedGaussian:
    """A lazily-generated random Gaussian matrix stored in 2 bytes per entry.

    The matrix has shape ``(n_features, n_columns)`` where columns are added
    on demand (each column is one hash function's projection vector).
    Columns are generated from a seeded :class:`numpy.random.Generator`, so a
    given ``(seed, column index)`` always produces the same vector.

    Parameters
    ----------
    n_features:
        Dimensionality of the input vectors.
    seed:
        Seed of the generator used to draw the Gaussian entries.
    quantize:
        When False the exact float64 samples are kept (useful for testing the
        effect of quantisation); when True (default, the paper's setting)
        entries are stored as ``uint16`` codes and decoded on access.
    """

    def __init__(self, n_features: int, seed: int = 0, quantize: bool = True):
        if n_features < 0:
            raise ValueError(f"n_features must be non-negative, got {n_features}")
        self._n_features = int(n_features)
        self._seed = int(seed)
        self._quantize = bool(quantize)
        self._rng = np.random.default_rng(self._seed)
        self._codes = np.zeros((self._n_features, 0), dtype=np.uint16)
        self._exact = np.zeros((self._n_features, 0), dtype=np.float64)
        # One projection matrix is shared by every clone of a simhash family
        # (the serving layer's RNG-stream authority), so concurrent reader
        # threads lazily extending through different clones must serialise
        # their draws: an unguarded interleaved _grow would advance the RNG
        # stream twice for the same column range and corrupt determinism.
        # Readers need no lock — the columns of the matrix they hold are never
        # written again, and any replacement preserves all previously drawn
        # columns.
        self._grow_lock = threading.Lock()
        self._room = self._codes if self._quantize else self._exact

    @property
    def n_features(self) -> int:
        """Dimensionality of the vectors the projections act on."""
        return self._n_features

    @property
    def n_columns(self) -> int:
        """Number of projection vectors generated so far."""
        store = self._codes if self._quantize else self._exact
        return store.shape[1]

    @property
    def quantized(self) -> bool:
        """Whether entries are stored as 2-byte codes (the paper's setting)."""
        return self._quantize

    @property
    def nbytes(self) -> int:
        """Bytes used to store the projection matrix."""
        store = self._codes if self._quantize else self._exact
        return int(store.nbytes)

    def _grow(self, n_columns: int) -> None:
        if n_columns <= self.n_columns:
            return
        with self._grow_lock:
            have = self.n_columns  # re-check under the lock
            if n_columns <= have:
                return
            # The stored matrix is a view of the first columns of a buffer
            # whose width doubles when it runs out, and fresh columns are
            # written into the buffer's spare room.  Appending by copying the
            # whole matrix made the one request that first reaches a new
            # column pay for every column drawn before it (at 5000 features,
            # 40 MB and 90 ms for columns 1792-2047).
            store = self._codes if self._quantize else self._exact
            if n_columns > self._room.shape[1]:
                width = max(n_columns, 2 * self._room.shape[1])
                room = np.empty((self._n_features, width), dtype=store.dtype)
                room[:, :have] = store
                self._room = room
            # Drawn a few columns at a time: standard_normal fills C order, so
            # row i of a (columns, n_features) draw consumes exactly the same
            # generator stream as a separate per-column standard_normal(n_features)
            # call — a given (seed, column index) always yields the same
            # projection vector regardless of the growth pattern.
            for at in range(have, n_columns, _DRAW_COLUMNS):
                count = min(_DRAW_COLUMNS, n_columns - at)
                fresh = self._rng.standard_normal((count, self._n_features)).T
                self._room[:, at : at + count] = (
                    quantize_floats(fresh) if self._quantize else fresh
                )
            if self._quantize:
                self._codes = self._room[:, :n_columns]
            else:
                self._exact = self._room[:, :n_columns]

    def columns(self, start: int, end: int) -> np.ndarray:
        """Projection vectors ``start .. end-1`` as a float64 matrix ``(n_features, end-start)``."""
        if start < 0 or end < start:
            raise ValueError(f"invalid column range [{start}, {end})")
        self._grow(end)
        if self._quantize:
            return dequantize_floats(self._codes[:, start:end])
        return self._exact[:, start:end].copy()

    def column_subset(self, start: int, indices: np.ndarray) -> np.ndarray:
        """Float64 decode of the columns ``start + indices`` only.

        Equal to ``columns(start, end)[:, indices]`` without decoding (or
        copying) the columns that are not requested — used by the simhash
        sign-boundary recheck, which needs a handful of columns in float64.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.zeros((self._n_features, 0), dtype=np.float64)
        self._grow(int(start + indices.max()) + 1)
        if self._quantize:
            return dequantize_floats(self._codes[:, start + indices])
        return self._exact[:, start + indices].copy()

    def state_dict(self) -> dict:
        """Serialisable generator state (stored matrix + RNG stream position).

        Restoring this onto a fresh instance with the same constructor
        arguments reproduces both the columns already drawn and every column
        still to be drawn, bit for bit.
        """
        return {
            "matrix": (self._codes if self._quantize else self._exact).copy(),
            "quantize": self._quantize,
            "rng_state": json.dumps(self._rng.bit_generator.state),
        }

    def restore_state(self, state: dict) -> None:
        """Restore generator state captured by :meth:`state_dict`."""
        if bool(state["quantize"]) != self._quantize:
            raise ValueError(
                f"snapshot stores quantize={bool(state['quantize'])}, "
                f"this instance was built with quantize={self._quantize}"
            )
        matrix = np.asarray(state["matrix"])
        if matrix.shape[0] != self._n_features:
            raise ValueError(
                f"snapshot projections have {matrix.shape[0]} features, expected "
                f"{self._n_features}"
            )
        if self._quantize:
            self._room = self._codes = np.ascontiguousarray(matrix, dtype=np.uint16)
        else:
            self._room = self._exact = np.ascontiguousarray(matrix, dtype=np.float64)
        rng_state = state["rng_state"]
        if isinstance(rng_state, str):
            rng_state = json.loads(rng_state)
        self._rng.bit_generator.state = rng_state

    def columns32(self, start: int, end: int) -> np.ndarray:
        """Projection vectors as float32, equal to ``fl32(columns(start, end))``.

        Every mid-point decoded value ``(code + 0.5) * 2**-12 - 8`` is a dyadic
        rational with at most 17 significant bits, so for quantised storage the
        float32 decode is *exact* (identical to casting the float64 decode);
        unquantised storage rounds to float32 once.
        """
        return self.rows32(slice(None), start, end)

    def rows32(self, rows, start: int, end: int) -> np.ndarray:
        """``columns32(start, end)[rows]`` without decoding any other row.

        A collection that touches few features (one query vector, an inserted
        segment) needs only those features' entries of each projection vector.
        """
        if start < 0 or end < start:
            raise ValueError(f"invalid column range [{start}, {end})")
        self._grow(end)
        if self._quantize:
            codes = self._codes[rows, start:end].astype(np.float32)
            return (codes + np.float32(0.5)) * np.float32(_STEP) + np.float32(_RANGE_LOW)
        return self._exact[rows, start:end].astype(np.float32)
