"""Signed random projections (SimHash) — the LSH family for cosine similarity.

Each hash function ``h_i`` is associated with a random vector ``r_i`` whose
components are standard normal samples; ``h_i(x) = 1`` if ``dot(r_i, x) >= 0``
and 0 otherwise (Charikar, STOC 2002).  For two vectors ``x, y`` the collision
probability is

    Pr[h_i(x) == h_i(y)] = 1 - theta(x, y) / pi = r(x, y)

where ``theta`` is the angle between the vectors.  Note that this is *not*
the cosine similarity itself; the conversion functions
:func:`cosine_to_collision` (``c2r`` in the paper) and
:func:`collision_to_cosine` (``r2c``) translate between the two, and the
BayesLSH posterior for cosine similarity is expressed in terms of ``r`` and
mapped back to cosine at the end.

The projection vectors are stored with the paper's 2-byte quantisation scheme
(:mod:`repro.hashing.quantization`) by default.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.hashing.base import HashFamily
from repro.hashing.quantization import QuantizedGaussian
from repro.hashing.signatures import BitSignatures
from repro.similarity.vectors import VectorCollection

__all__ = ["SimHashFamily", "cosine_to_collision", "collision_to_cosine"]

#: number of hash functions generated per lazy extension request
_BLOCK = 256

#: fewest hash columns per sparse x dense product within a block
_PRODUCT_COLUMNS = 64
#: float32 scratch (rows x columns) one product may fill before it is split
_PRODUCT_BYTES = 1 << 18

#: unit roundoff of float32 (used by the sign-boundary error bound)
_EPS32 = 2.0**-24


def cosine_to_collision(cosine: float | np.ndarray) -> float | np.ndarray:
    """``c2r`` from the paper: map cosine similarity to collision probability.

    ``c2r(c) = 1 - arccos(c) / pi``; for non-negative data (cosine in [0, 1])
    the result lies in ``[0.5, 1]``.
    """
    clipped = np.clip(cosine, -1.0, 1.0)
    return 1.0 - np.arccos(clipped) / np.pi


def collision_to_cosine(collision: float | np.ndarray) -> float | np.ndarray:
    """``r2c`` from the paper: map collision probability back to cosine.

    ``r2c(r) = cos(pi * (1 - r))``.
    """
    return np.cos(np.pi * (1.0 - np.asarray(collision, dtype=np.float64)))


class SimHashFamily(HashFamily):
    """Signed-random-projection hash family producing one bit per hash.

    Parameters
    ----------
    collection:
        The vectors to hash.  Cosine similarity is scale-invariant so the
        collection does not need to be normalised first.
    seed:
        Seed for the random projection directions.
    quantize:
        Store projections with the 2-byte scheme of Section 4.3 (default
        True, the paper's setting).
    block_size:
        How many new hash functions to materialise per extension request;
        purely a performance knob.
    """

    name = "simhash"
    produces_bits = True

    def __init__(
        self,
        collection: VectorCollection,
        seed: int = 0,
        quantize: bool = True,
        block_size: int = _BLOCK,
    ):
        super().__init__(collection, seed=seed)
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self._block_size = int(block_size)
        self._projections = QuantizedGaussian(
            collection.n_features, seed=seed, quantize=quantize
        )
        self._matrix32: "object | None" = None
        self._features: "np.ndarray | slice" = slice(None)
        self._row_bound: np.ndarray | None = None

    @property
    def projections(self) -> QuantizedGaussian:
        """The (quantised) random projection matrix."""
        return self._projections

    def _make_store(self) -> BitSignatures:
        return BitSignatures(self._collection.n_vectors)

    def _extend(self, store: BitSignatures, n_new: int) -> None:
        # Round the request up to a multiple of the block size so the packed
        # word storage stays aligned (block sizes are multiples of 32).
        n_new = -(-n_new // self._block_size) * self._block_size
        start = store.n_hashes
        end = start + n_new
        # A few columns at a time: the float32 scratch of one product is then
        # a fraction of a block's (5 MB, not 21 MB, for 3000 rows x 5000
        # features) and the projection columns stay cache resident.  A batch
        # of few rows (a query, an insert) projects its whole block at once.
        step = max(_PRODUCT_COLUMNS, _PRODUCT_BYTES // (4 * max(1, store.n_vectors)))
        store.append_bits(
            np.hstack(
                [self._project_bits(at, min(at + step, end)) for at in range(start, end, step)]
            )
        )

    def _project_bits(self, start: int, end: int) -> np.ndarray:
        """Signs of the projection products for hash columns ``[start, end)``.

        The sparse x dense product is evaluated in float32 (half the memory
        traffic of the former float64 product — the kernel is bandwidth
        bound), and the bits are taken from the float32 signs wherever the
        product is safely away from zero.  Entries within the float32
        rounding-error bound of zero are recomputed with the original float64
        scipy kernel on a (rows x columns) sub-product, so every emitted bit
        is identical to the float64 path bit for bit.
        """
        matrix = self._collection.matrix
        if self._matrix32 is None:
            # With fewer entries than features (a query batch, an inserted
            # segment) most rows of the projection matrix meet only zeros, so
            # the product runs over the touched features alone.  The CSR
            # kernel accumulates a row's entries in storage order and the
            # renumbering keeps that order: every product is bit for bit the
            # one the full projection matrix gives.
            indices, n_touched = matrix.indices, matrix.shape[1]
            if matrix.nnz < matrix.shape[1]:
                self._features, renumbered = np.unique(matrix.indices, return_inverse=True)
                indices, n_touched = renumbered.astype(indices.dtype), len(self._features)
            self._matrix32 = sp.csr_matrix(
                (matrix.data.astype(np.float32), indices, matrix.indptr),
                shape=(matrix.shape[0], n_touched),
            )
            # Forward-error factor of a float32 dot product with nnz terms:
            # |fl32(x . d) - x . d| <= gamma_(nnz+2) * sum|x_i d_i| (input
            # rounding of both operands plus sequential accumulation), with a
            # 4x safety factor; sum|x_i d_i| is computed per entry below.
            row_nnz = self._collection.row_nnz.astype(np.float64)
            self._row_bound = (4.0 * (row_nnz + 4.0) * _EPS32).astype(np.float32)
        directions32 = self._projections.rows32(self._features, start, end)
        products32 = np.asarray(self._matrix32 @ directions32)
        bits = (products32 >= 0.0).astype(np.uint8)

        # Sign-boundary detection stays entirely in float32.  The companion
        # product A @ |D| (a collection's weights are non-negative, so A is
        # |A|) yields the exact first-order bound sum|x_i d_i| per entry (a
        # second cheap float32 GEMM); the 4x safety factor dwarfs the float32
        # rounding of the bound arithmetic itself.
        magnitudes = np.asarray(self._matrix32 @ np.abs(directions32))
        tau = self._row_bound[:, None] * magnitudes
        magnitude = np.abs(products32)
        unsure = (magnitude <= tau) | ~np.isfinite(magnitude)
        if np.any(unsure):
            rows, cols = np.nonzero(unsure)
            unique_rows, row_pos = np.unique(rows, return_inverse=True)
            unique_cols, col_pos = np.unique(cols, return_inverse=True)
            # Re-run scipy's own float64 CSR kernel on the flagged rows x
            # columns rectangle: per (row, column) the kernel's sequential
            # accumulation touches only that row's entries and that column's
            # direction values, so the sub-product entries are bit-identical
            # to the corresponding entries of the full float64 product.
            directions64 = self._projections.column_subset(start, unique_cols)
            sub = np.asarray(matrix[unique_rows] @ directions64)
            bits[rows, cols] = (sub[row_pos, col_pos] >= 0.0).astype(np.uint8)
        return bits

    def clone_for(self, collection: VectorCollection) -> "SimHashFamily":
        """A family over ``collection`` evaluating the *same* hash functions.

        The clone shares this family's projection matrix object, so both
        sides always see identical direction vectors — including columns
        drawn *after* the clone (see :meth:`HashFamily.clone_for`).
        """
        clone = SimHashFamily(
            collection,
            seed=self._seed,
            quantize=self._projections.quantized,
            block_size=self._block_size,
        )
        # Projections are collection-independent (they depend only on the
        # feature count and seed), so the clone shares the object: columns
        # drawn through either family extend one common matrix and both sides
        # always see identical direction vectors.
        clone._projections = self._projections
        return clone

    def state_dict(self) -> dict:
        """The projection matrix (quantised codes) plus the RNG position."""
        return self._projections.state_dict()

    def restore_state(self, state: dict) -> None:
        """Restore projections and RNG position captured by :meth:`state_dict`."""
        self._projections.restore_state(state)
        self._matrix32 = None
        self._features = slice(None)
        self._row_bound = None

    def collision_similarity(self, exact_similarity: float) -> float:
        """Collision probability for a pair with the given *cosine* similarity."""
        return float(cosine_to_collision(exact_similarity))
