"""Minwise hashing — the LSH family for Jaccard similarity.

Each hash function is (an approximation of) a random permutation of the
feature universe; the hash of a set is the minimum feature id under that
permutation (Broder et al., STOC 1998).  For two sets ``x, y``:

    Pr[h_i(x) == h_i(y)] = |x ∩ y| / |x ∪ y| = Jaccard(x, y)

so the collision probability *is* the similarity — no conversion is needed
(unlike the cosine family).

True minwise-independent permutations are impractical; we use the standard
universal-hash approximation ``pi(f) = (a * f + b) mod p`` with a large prime
``p`` and random odd ``a``, which is the same approximation used by every
practical minhash implementation (and by the paper's experimental code).
Each hash value is an integer below ``2^31``, so signatures are stored in an
:class:`~repro.hashing.signatures.IntSignatures` store as ``int32`` (4 bytes
per hash, versus 1 bit for the cosine family — the paper's experiments
account for this difference in their choice of 360 Jaccard hashes vs 2048
cosine bits).

Vectorisation contract
----------------------
Signature generation is a single batched kernel over the whole collection
rather than a per-row loop:

* the collection's supports are flattened once into a CSR-style layout with
  rows grouped by support size (cached per family); features in a dense id
  range are renumbered with a bool mask and its running count, not a sort;
* each extension request evaluates the universal hash on the *unique*
  features only, once, at the request's full width (a
  ``(n_unique_features, width)`` table).  The table is filled in L2-sized
  feature tiles with in-place ops: one shift-and-add fold of ``a * f + b``
  into ``uint32`` and one ``min(u, u - p)``;
* the table rows are then gathered per occurrence — a contiguous-row
  gather, which NumPy turns into per-occurrence ``memcpy`` — and each
  equal-length row group is reduced with a SIMD-friendly
  ``reshape(...).min(axis=1)``, fused per tile of occurrences sized in bytes
  (like :func:`~repro.hashing.signatures._tile_rows`) so the gathered block
  is still in cache when it is reduced.  Every width takes this one path;
* row minima are bit-identical to the per-row reference
  (:func:`repro.reference.minhash_signatures_reference`): the table holds
  exactly ``(a * f + b) mod p`` and ``min`` is order-independent.

Hash-function coefficients are drawn with one broadcast
``integers([1, 0], p, size=(missing, 2))`` call, which consumes the
generator stream exactly like the historical per-index interleaved scalar
draws (``a_i`` then ``b_i``), pinned by the growth-pattern tests.  A given
``(seed, hash index)`` therefore always yields the same ``(a, b)`` pair no
matter how the store grows, which is the determinism contract that lets an
indexed corpus and a single query vector agree on hash function ``i``.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from repro.hashing.base import HashFamily
from repro.hashing.signatures import IntSignatures, _tile_rows
from repro.similarity.vectors import VectorCollection

__all__ = ["MinHashFamily"]

#: Mersenne prime 2^31 - 1: with coefficients and feature ids below the prime,
#: ``a * f + b`` stays below 2^62 and int64 arithmetic is exact.
_PRIME = (1 << 31) - 1
_BLOCK = 64


def _permutation_table(
    features: np.ndarray, coef_a: np.ndarray, coef_b: np.ndarray
) -> np.ndarray:
    """The ``(n_features, width)`` int32 table of ``(a * f + b) mod p``.

    Computed in feature tiles of :func:`_tile_rows` rows so the int64 scratch
    stays L2-resident, with in-place ops only.  ``a * f + b <= (p - 1) * p``,
    so one shift-and-add fold ``(x & p) + (x >> 31)`` is congruent to ``x``
    and below ``2p`` (it fits ``uint32``); ``min(u, u - p)`` in wrapping
    ``uint32`` arithmetic is then the one conditional subtraction that gives
    exactly ``x mod p``.
    """
    n_features, width = len(features), len(coef_a)
    table = np.empty((n_features, width), dtype=np.uint32)
    step = _tile_rows(width * 8)
    product = np.empty((min(step, n_features), width), dtype=np.int64)
    high = np.empty_like(product)
    wrapped = np.empty(product.shape, dtype=np.uint32)
    prime = np.uint32(_PRIME)
    for lo in range(0, n_features, step):
        hi = min(lo + step, n_features)
        x, h, u, w = product[: hi - lo], high[: hi - lo], table[lo:hi], wrapped[: hi - lo]
        np.multiply(features[lo:hi, None], coef_a, out=x)
        x += coef_b
        np.right_shift(x, 31, out=h)
        x &= _PRIME
        np.add(x, h, out=u, casting="unsafe")
        np.subtract(u, prime, out=w)
        np.minimum(u, w, out=u)
    # Every value is below p < 2^31, so the int32 view is exact.
    return table.view(np.int32)


def _renumber(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(indices, return_inverse=True)``, without a sort when dense.

    Feature ids whose range is at most 3 times their count (any vocabulary
    in practice) are scattered into a bool mask over that range, whose
    running count is every id's rank: one O(nnz) pass.  A sparse id space
    (hashed features, say) takes the sort rather than a mask over its range.
    """
    if len(indices):
        low, high = int(indices.min()), int(indices.max())
        if high - low + 1 <= 3 * len(indices):
            shifted = indices - low
            used = np.zeros(high - low + 1, dtype=bool)
            used[shifted] = True
            rank = np.cumsum(used, dtype=np.intp) - 1
            return np.flatnonzero(used) + low, rank[shifted]
    return np.unique(indices, return_inverse=True)


class _SupportLayout:
    """Flattened, size-grouped, padded view of a collection's supports.

    Built once per family and reused by every extension request.  Rows are
    bucketed by the next power of two of their support size and padded *with
    repetitions of their own first feature* — duplicates are invisible to a
    minimum — so each bucket reduces with one contiguous
    ``reshape(...).min(axis=1)`` over equal-length segments (a handful of
    SIMD reductions instead of one reduction call per distinct row length).
    """

    def __init__(self, collection: VectorCollection):
        matrix = collection.matrix
        indices = matrix.indices
        indptr = matrix.indptr
        row_nnz = np.diff(indptr)
        unique, inverse = _renumber(indices)
        #: unique feature ids, already reduced modulo the prime
        self.unique_features = unique.astype(np.int64) % _PRIME
        self.empty_rows = np.flatnonzero(row_nnz == 0)
        nonempty = np.flatnonzero(row_nnz > 0)
        sizes = row_nnz[nonempty]
        # Pad small rows to the next power of two and larger rows to the next
        # multiple of 8: few distinct bucket lengths (few reduction calls)
        # at ~10% padding overhead.
        padded = np.where(
            sizes >= 8,
            ((sizes + 7) // 8) * 8,
            2 ** np.ceil(np.log2(sizes)).astype(np.int64),
        )
        order = np.argsort(padded, kind="stable")
        #: non-empty row ids grouped by padded size
        self.rows_sorted = nonempty[order]
        sizes_sorted = sizes[order]
        padded_sorted = padded[order]
        #: occurrence -> unique-feature index, size-grouped, padded row order
        starts = indptr[self.rows_sorted]
        total = int(padded_sorted.sum())
        segment_offsets = np.concatenate([[0], np.cumsum(padded_sorted)])
        flat = np.arange(total, dtype=np.int64)
        local = flat - np.repeat(segment_offsets[:-1], padded_sorted)
        # Padding positions (local >= row size) re-point at the row's first
        # occurrence; min over duplicates is unchanged.
        local = np.where(local < np.repeat(sizes_sorted, padded_sorted), local, 0)
        occurrence_positions = np.repeat(starts, padded_sorted) + local
        self.flat_inverse = inverse[occurrence_positions]
        self.segment_offsets = segment_offsets
        #: (padded size, first row position, last row position) per bucket
        group_sizes, group_starts = np.unique(padded_sorted, return_index=True)
        group_ends = np.append(group_starts[1:], len(padded_sorted))
        self.groups = [
            (int(size), int(first), int(last))
            for size, first, last in zip(group_sizes, group_starts, group_ends)
        ]

    def tiles(self, width: int) -> list[tuple[int, int, int, int, int]]:
        """Gather/reduce plan ``(size, row, row_end, o0, o1)`` for a table width.

        Each tile covers whole rows of one size group and about
        :func:`_tile_rows` occurrences of ``width`` int32 values, so the
        gathered block stays cache-resident between the gather and the
        row-minimum reduction (the full gather matrix would round-trip
        through DRAM).
        """
        occurrences = _tile_rows(width * 4)
        plan = []
        for size, first, last in self.groups:
            rows_per_tile = max(1, occurrences // size)
            for row in range(first, last, rows_per_tile):
                row_end = min(row + rows_per_tile, last)
                plan.append(
                    (
                        size,
                        row,
                        row_end,
                        int(self.segment_offsets[row]),
                        int(self.segment_offsets[row_end]),
                    )
                )
        return plan


class MinHashFamily(HashFamily):
    """Minwise hashing family producing one integer hash per function.

    Parameters
    ----------
    collection:
        Vectors to hash; only the *support* (set of non-zero feature ids) of
        each row matters.  Empty rows hash to a sentinel value distinct per
        row so that two empty rows never spuriously collide.
    seed:
        Seed for the random universal-hash parameters.
    block_size:
        Number of new hash functions generated per extension request.
    """

    name = "minhash"
    produces_bits = False

    def __init__(
        self,
        collection: VectorCollection,
        seed: int = 0,
        block_size: int = _BLOCK,
    ):
        super().__init__(collection, seed=seed)
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self._block_size = int(block_size)
        self._rng = np.random.default_rng(seed)
        self._coef_a = np.zeros(0, dtype=np.int64)
        self._coef_b = np.zeros(0, dtype=np.int64)
        self._layout: _SupportLayout | None = None
        # Serialises coefficient draws against concurrent reader threads
        # (coefficient arrays are replaced wholesale, prefix-preserving, so
        # reads outside the lock stay consistent).
        self._coef_lock = threading.Lock()

    def _grow_coefficients(self, n_hashes: int) -> None:
        if n_hashes <= len(self._coef_a):
            return
        with self._coef_lock:
            missing = n_hashes - len(self._coef_a)  # re-check under the lock
            if missing <= 0:
                return
            # One broadcast draw whose stream consumption matches the historical
            # per-index interleaved scalar draws (a_i, b_i, a_{i+1}, ...), so a
            # given (seed, hash index) always produces the same hash function
            # regardless of how the store grew — families built on different
            # collections (e.g. an indexed corpus and a single query vector) must
            # agree on hash function i.
            draws = self._rng.integers([1, 0], _PRIME, size=(missing, 2), dtype=np.int64)
            # Publish b before a: lock-free readers gate on len(_coef_a), so
            # once they see the grown a-array the matching b-array must
            # already be in place.
            self._coef_b = np.concatenate([self._coef_b, draws[:, 1]])
            self._coef_a = np.concatenate([self._coef_a, draws[:, 0]])

    def coefficients(self, n_hashes: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(a, b)`` coefficient arrays of hash functions ``0 .. n_hashes-1``.

        Exposed so that scalar reference implementations (and tests) can
        evaluate exactly the same hash functions the batched kernel uses.
        """
        self._grow_coefficients(n_hashes)
        return self._coef_a[:n_hashes].copy(), self._coef_b[:n_hashes].copy()

    def _make_store(self) -> IntSignatures:
        return IntSignatures(self._collection.n_vectors)

    def _support_layout(self) -> _SupportLayout:
        if self._layout is None:
            self._layout = _SupportLayout(self._collection)
        return self._layout

    def _extend(self, store: IntSignatures, n_new: int) -> None:
        n_new = -(-n_new // self._block_size) * self._block_size
        start = store.n_hashes
        end = start + n_new
        self._grow_coefficients(end)

        layout = self._support_layout()
        n_vectors = self._collection.n_vectors
        # Hash values live below 2^31 so int32 storage is exact; the empty-row
        # sentinel -(row + 1) also fits as long as the collection has fewer
        # than 2^31 rows.
        values = np.empty((n_vectors, n_new), dtype=np.int32)
        if len(layout.empty_rows):
            # Sentinel unique to the row so empty rows never collide.
            values[layout.empty_rows, :] = -(layout.empty_rows[:, None] + 1)

        # One permutation table at the request's full width (n_unique x n_new
        # int32, ~9 MB for 9k features at 256 hashes; one fold and one
        # conditional subtraction per value), then one fused gather +
        # row-minimum pass per tile of occurrences sized in bytes, whatever
        # the width.
        table = _permutation_table(
            layout.unique_features, self._coef_a[start:end], self._coef_b[start:end]
        )
        plan = layout.tiles(n_new)
        largest = max((o1 - o0 for *_, o0, o1 in plan), default=0)
        gather = np.empty((largest, n_new), dtype=np.int32)
        mins = np.empty((len(layout.rows_sorted), n_new), dtype=np.int32)
        for size, row, row_end, o0, o1 in plan:
            tile = gather[: o1 - o0]
            np.take(table, layout.flat_inverse[o0:o1], axis=0, out=tile)
            tile.reshape(row_end - row, size, n_new).min(axis=1, out=mins[row:row_end])
        values[layout.rows_sorted] = mins
        store.append_values(values)

    def clone_for(self, collection: VectorCollection) -> "MinHashFamily":
        """A family over ``collection`` evaluating the *same* hash functions.

        Drawn coefficients and the RNG position are copied, so hash function
        ``i`` of the clone is hash function ``i`` of this family and future
        lazy draws continue the identical deterministic stream (see
        :meth:`HashFamily.clone_for` for the contract).
        """
        clone = MinHashFamily(collection, seed=self._seed, block_size=self._block_size)
        clone._coef_a = self._coef_a.copy()
        clone._coef_b = self._coef_b.copy()
        clone._rng.bit_generator.state = self._rng.bit_generator.state
        return clone

    def state_dict(self) -> dict:
        """Drawn ``(a, b)`` coefficients plus the JSON-encoded RNG position."""
        return {
            "coef_a": self._coef_a.copy(),
            "coef_b": self._coef_b.copy(),
            "rng_state": json.dumps(self._rng.bit_generator.state),
        }

    def restore_state(self, state: dict) -> None:
        """Restore coefficients and RNG position captured by :meth:`state_dict`."""
        coef_a = np.asarray(state["coef_a"], dtype=np.int64)
        coef_b = np.asarray(state["coef_b"], dtype=np.int64)
        if coef_a.shape != coef_b.shape:
            raise ValueError("coefficient arrays must have matching shapes")
        self._coef_a = coef_a.copy()
        self._coef_b = coef_b.copy()
        rng_state = state["rng_state"]
        if isinstance(rng_state, str):
            rng_state = json.loads(rng_state)
        self._rng.bit_generator.state = rng_state

    def collision_similarity(self, exact_similarity: float) -> float:
        """Collision probability equals the Jaccard similarity itself."""
        return float(exact_similarity)
