"""Compact signature stores with prefix agreement counting.

BayesLSH repeatedly asks one question of the hashes: *how many of hashes
``start .. end-1`` agree between rows* ``i`` *and* ``j``?  The LSH candidate
generation index asks a second question: *give me the bytes of band* ``b``
*(hashes ``b*k .. (b+1)*k - 1``) of row* ``i`` so it can be used as a
hash-table key.

Two stores implement these operations:

* :class:`BitSignatures` — packed bit signatures (one bit per hash) for the
  signed-random-projection family, stored as ``uint32`` words so that the
  paper's batch size ``k = 32`` aligns with whole words.
* :class:`IntSignatures` — integer signatures (one integer per hash) for
  minwise hashing.

Both stores are append-only: more hash functions can be added later, which is
how the library reproduces the paper's "each point is hashed only as many
times as necessary" behaviour without re-hashing from scratch.  Their row
count is fixed at construction; hash columns are the only way they grow.

Batching layout
---------------
Appended blocks are kept as a list of column chunks and only concatenated
into one matrix when a read actually spans more than one chunk (lazy
consolidation).  The algorithms' access pattern — append a block of ``k``
hashes, then compare exactly that block for the still-active pairs — then
costs O(rows x k) per round instead of the O(rows x total) per round that
re-allocating a single growing matrix would cost.  Batched readers take
parallel index arrays so the per-pair work stays inside NumPy: one counting
kernel (:meth:`~SignatureStore.count_matches_rounds`, per-round agreement
counts within one store or against a second store of the same family) and
one band reader (:meth:`~SignatureStore.band_keys_many`).  The scalar
:meth:`~SignatureStore.count_matches` is the reference they are tested
against.
"""

from __future__ import annotations

import threading

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "SignatureStore",
    "BitSignatures",
    "IntSignatures",
    "count_packed_matches",
    "store_from_parts",
    "store_parts",
]

_WORD_BITS = 32

#: Soft cap on the live gather scratch of the counting kernel, in bytes per
#: buffer.  Large pair batches are processed in pair
#: tiles sized so the gathered left rows, right rows and comparison buffer of
#: one tile together stay resident in a per-core L2 cache (three buffers of
#: `_TILE_BYTES` plus source cache lines fit comfortably in 1 MiB); the wide
#: gather previously round-tripped every buffer through DRAM once per pass,
#: which is why super-blocked gathers used to *lose* at large active counts
#: (see ROADMAP).  Tiling splits only the pair axis — every per-pair value is
#: computed by the identical expressions, so results are bit-identical to the
#: untiled kernel for any tile size.
_TILE_BYTES = 1 << 18
#: minimum pairs per tile (keeps per-tile Python overhead negligible)
_MIN_TILE_ROWS = 256


def _tile_rows(span_bytes: int) -> int:
    """Pairs per tile so one gathered buffer stays within :data:`_TILE_BYTES`."""
    return max(_MIN_TILE_ROWS, _TILE_BYTES // max(1, span_bytes))


def count_packed_matches(
    left_words: np.ndarray, right_words: np.ndarray, lead: int, n_bits: int
) -> np.ndarray:
    """Agreeing bits between packed word rows, restricted to a bit window.

    ``left_words`` / ``right_words`` are parallel ``(n_pairs, n_words)``
    ``uint32`` arrays; the window covers bits ``[lead, lead + n_bits)`` of the
    flattened LSB-first bit stream of each row.  Bits outside the window are
    masked off the XOR words before the popcount, so unaligned windows cost
    two extra masked ANDs instead of a per-pair unpack loop.

    The word-unaligned path of :meth:`BitSignatures.count_matches_rounds`.
    """
    if n_bits <= 0:
        return np.zeros(len(left_words), dtype=np.int64)
    xor = np.bitwise_xor(left_words, right_words)
    if lead:
        xor[:, 0] &= np.uint32((0xFFFFFFFF << lead) & 0xFFFFFFFF)
    tail = xor.shape[1] * _WORD_BITS - (lead + n_bits)
    if tail:
        xor[:, -1] &= np.uint32(0xFFFFFFFF >> tail)
    disagreements = np.bitwise_count(xor).sum(axis=1, dtype=np.int64)
    return n_bits - disagreements


class SignatureStore(ABC):
    """Common interface of the two signature containers."""

    @property
    @abstractmethod
    def n_vectors(self) -> int:
        """Number of rows stored."""

    @property
    @abstractmethod
    def n_hashes(self) -> int:
        """Number of hash functions currently materialised."""

    @abstractmethod
    def count_matches(self, i: int, j: int, start: int, end: int) -> int:
        """Number of agreeing hashes between rows ``i`` and ``j`` in ``[start, end)``."""

    @abstractmethod
    def band_key(self, i: int, band: int, band_width: int) -> bytes:
        """Hashable key for the ``band``-th group of ``band_width`` hashes of row ``i``."""

    @abstractmethod
    def band_keys_many(self, rows: np.ndarray, band: int, band_width: int) -> np.ndarray:
        """Band contents for many rows at once, as a 2-D array.

        Rows whose returned rows compare equal element-wise belong to the same
        bucket; the array form lets callers group every band's rows with two
        sorts (:func:`~repro.candidates.lsh_index.group_bands_by_content`)
        instead of hashing per-row byte strings.
        """

    @abstractmethod
    def count_matches_rounds(
        self, left: np.ndarray, right: np.ndarray, start: int, end: int, round_width: int,
        other: "SignatureStore | None" = None,
    ) -> np.ndarray:
        """Per-round agreement counts over parallel arrays of row indices.

        The one batched counting kernel.  Splits ``[start, end)`` into
        consecutive rounds of ``round_width`` hashes and returns an
        ``(n_pairs, n_rounds)`` array whose entry ``[p, r]`` equals
        ``count_matches(left[p], right[p], start + r*w, start + (r+1)*w)``.
        With ``other``, ``right`` indexes the rows of that store instead —
        how a batch of queries is counted against an indexed corpus without
        merging the two; both stores must hold signatures drawn from the same
        hash functions (same family type and seed).  One fixed window is a
        single round: ``count_matches_rounds(l, r, 0, n, n)[:, 0]``.
        """

    def _rounds_in(
        self, start: int, end: int, round_width: int, other: "SignatureStore | None"
    ) -> int:
        """Validate a :meth:`count_matches_rounds` window; its number of rounds."""
        if other is not None and type(other) is not type(self):
            raise TypeError(f"cannot cross-count against {type(other).__name__}")
        span = end - start
        if span < 0 or round_width <= 0 or span % round_width:
            raise ValueError(
                f"[{start}, {end}) is not a whole number of rounds of width {round_width}"
            )
        if end > self.n_hashes or (other is not None and end > other.n_hashes):
            have = self.n_hashes if other is None else f"{self.n_hashes} / {other.n_hashes}"
            raise IndexError(f"hash index {end} out of range (have {have})")
        return span // round_width

    def agreement_fraction(self, i: int, j: int, n: int) -> float:
        """Fraction of the first ``n`` hashes that agree (the MLE estimator)."""
        if n <= 0:
            return 0.0
        return self.count_matches(i, j, 0, n) / n


class _ChunkedMatrix:
    """A matrix of signature columns grown by appending column blocks.

    Chunks are concatenated lazily: reads that stay inside one chunk (the
    overwhelmingly common case for the round-synchronous verifiers, which
    always read the newest block) never trigger a copy, while reads spanning
    chunks consolidate once and cache the result.
    """

    def __init__(self, n_rows: int):
        self._n_rows = int(n_rows)
        self._chunks: list[np.ndarray] = []
        self._offsets: list[int] = []  # starting column of each chunk
        self._n_columns = 0
        # Serialises the two mutations, column append and consolidation,
        # against each other.  Plain column reads stay lock-free: the row
        # count is fixed at construction, chunk contents are immutable once
        # appended, the chunk/offset lists only ever grow or get replaced
        # wholesale by the concatenation of the same chunks, and `_n_columns`
        # is published *after* its chunk — so a lock-free reader sees a
        # consistent prefix of the matrix.
        self._lock = threading.Lock()

    @property
    def n_columns(self) -> int:
        return self._n_columns

    def append(self, block: np.ndarray) -> None:
        with self._lock:
            self._offsets.append(self._n_columns)
            self._chunks.append(block)
            self._n_columns += block.shape[1]

    def consolidated(self) -> np.ndarray:
        """The full matrix; concatenates (and caches) the chunks on demand."""
        chunks = self._chunks
        if len(chunks) == 1:
            return chunks[0]
        with self._lock:
            if len(self._chunks) == 1:
                return self._chunks[0]
            if not self._chunks:
                return np.zeros((self._n_rows, 0), dtype=np.int64)
            merged = np.concatenate(self._chunks, axis=1)
            self._chunks = [merged]
            self._offsets = [0]
            return merged

    def columns(self, start: int, end: int) -> np.ndarray:
        """A view (or consolidated slice) of columns ``[start, end)``."""
        for offset, chunk in zip(self._offsets, self._chunks):
            if offset <= start and end <= offset + chunk.shape[1]:
                return chunk[:, start - offset : end - offset]
        return self.consolidated()[:, start:end]

    def columns_contiguous(self, start: int, end: int) -> np.ndarray:
        """Like :meth:`columns` but guaranteed C-contiguous.

        Batched row gathers from a contiguous block are per-row ``memcpy``s,
        whereas gathers from a column-sliced view degrade to per-element
        copies; the one-off column copy here is far cheaper than that.
        """
        columns = self.columns(start, end)
        if columns.flags.c_contiguous:
            return columns
        return np.ascontiguousarray(columns)


class BitSignatures(SignatureStore):
    """Packed one-bit-per-hash signatures (signed random projections).

    Bits are stored LSB-first inside ``uint32`` words: hash index ``h`` of row
    ``i`` lives at word ``h // 32``, bit ``h % 32``.
    """

    def __init__(self, n_vectors: int):
        self._n_vectors = int(n_vectors)
        self._matrix = _ChunkedMatrix(self._n_vectors)
        self._n_hashes = 0

    @classmethod
    def from_words(cls, words: np.ndarray, n_hashes: int) -> "BitSignatures":
        """Rebuild a store from its packed words (snapshot restore path)."""
        words = np.ascontiguousarray(words, dtype=np.uint32)
        if words.ndim != 2:
            raise ValueError(f"expected a 2-D word matrix, got shape {words.shape}")
        if not 0 <= n_hashes <= words.shape[1] * _WORD_BITS:
            raise ValueError(
                f"n_hashes={n_hashes} inconsistent with {words.shape[1]} words per row"
            )
        store = cls(words.shape[0])
        if words.shape[1]:
            store._matrix.append(words)
        store._n_hashes = int(n_hashes)
        return store

    @property
    def n_vectors(self) -> int:
        """Number of signature rows stored."""
        return self._n_vectors

    @property
    def n_hashes(self) -> int:
        """Number of hash bits materialised per row."""
        return self._n_hashes

    @property
    def words(self) -> np.ndarray:
        """The raw packed words, shape ``(n_vectors, n_words)``."""
        words = self._matrix.consolidated()
        if words.dtype != np.uint32:  # empty store placeholder
            return np.zeros((self._n_vectors, 0), dtype=np.uint32)
        return words

    def append_bits(self, bits: np.ndarray) -> None:
        """Append a block of new hash bits.

        Parameters
        ----------
        bits:
            Array of shape ``(n_vectors, n_new)`` with values in {0, 1}.  The
            number of already-stored hashes plus ``n_new`` must stay a
            multiple of 32 *unless* this is the final block; in practice every
            caller appends multiples of 32 which keeps words dense.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[0] != self._n_vectors:
            raise ValueError(
                f"expected bits of shape ({self._n_vectors}, n_new), got {bits.shape}"
            )
        n_new = bits.shape[1]
        if n_new == 0:
            return
        if self._n_hashes % _WORD_BITS != 0:
            raise ValueError(
                "cannot append to a store whose current size is not a multiple of 32"
            )
        # Pack LSB-first into little-endian uint32 words (the layout
        # ``get_bits`` unpacks), zero-padding the last word.
        n_words_new = -(-n_new // _WORD_BITS)
        padded = np.zeros((self._n_vectors, n_words_new * _WORD_BITS), dtype=np.uint8)
        padded[:, :n_new] = bits != 0
        packed = np.packbits(padded, axis=1, bitorder="little")
        self._matrix.append(packed.view("<u4").astype(np.uint32, copy=False))
        self._n_hashes += n_new

    def _word_columns(self, word_start: int, word_end: int) -> np.ndarray:
        return self._matrix.columns(word_start, word_end)

    def get_bits(self, i: int, start: int, end: int) -> np.ndarray:
        """Bits of row ``i`` for hash indices ``[start, end)`` as a uint8 array."""
        if end > self._n_hashes:
            raise IndexError(f"hash index {end} out of range (have {self._n_hashes})")
        word_start = start // _WORD_BITS
        word_end = -(-end // _WORD_BITS)
        words = np.ascontiguousarray(self._word_columns(word_start, word_end)[i])
        bits = np.unpackbits(
            words.view(np.uint8).reshape(-1, 4), axis=1, bitorder="little"
        ).ravel()
        offset = start - word_start * _WORD_BITS
        return bits[offset : offset + (end - start)]

    def count_matches(self, i: int, j: int, start: int, end: int) -> int:
        """Agreeing bits between rows ``i`` and ``j`` in hash window ``[start, end)``."""
        if end > self._n_hashes:
            raise IndexError(f"hash index {end} out of range (have {self._n_hashes})")
        if end <= start:
            return 0
        if start % _WORD_BITS == 0 and end % _WORD_BITS == 0:
            words = self._word_columns(start // _WORD_BITS, end // _WORD_BITS)
            xor = np.bitwise_xor(words[i], words[j])
            disagreements = int(np.bitwise_count(xor).sum())
            return (end - start) - disagreements
        bits_i = self.get_bits(i, start, end)
        bits_j = self.get_bits(j, start, end)
        return int(np.sum(bits_i == bits_j))

    def count_matches_rounds(
        self, left: np.ndarray, right: np.ndarray, start: int, end: int, round_width: int,
        other: "BitSignatures | None" = None,
    ) -> np.ndarray:
        """Super-block gather with cache-aware pair tiling.

        Gathers the whole ``[start, end)`` word range once per pair instead of
        once per round, processing pairs in tiles sized so one tile's gathered
        rows (left, XOR scratch) stay inside L2 — which is what makes the wide
        gather win at *large* active counts too, not only for small survivor
        tails (per-pair counts are bit-identical for any tile size).  Rounds
        on word boundaries reduce whole-word popcounts; word-unaligned rounds
        mask their partial edge words (:func:`count_packed_matches`).
        """
        n_rounds = self._rounds_in(start, end, round_width, other)
        n_pairs = len(left)
        if n_rounds == 0:
            return np.zeros((n_pairs, 0), dtype=np.int64)
        word_start = start // _WORD_BITS
        word_range = (word_start, -(-end // _WORD_BITS))
        words = self._matrix.columns_contiguous(*word_range)
        theirs = words if other is None else other._matrix.columns_contiguous(*word_range)
        left = np.asarray(left)
        right = np.asarray(right)
        aligned = start % _WORD_BITS == 0 and round_width % _WORD_BITS == 0
        counts = np.empty((n_pairs, n_rounds), dtype=np.int64)
        tile = _tile_rows(words.shape[1] * 4)
        for lo in range(0, n_pairs, tile):
            hi = min(lo + tile, n_pairs)
            mine_rows, their_rows = words[left[lo:hi]], theirs[right[lo:hi]]
            if aligned:
                per_word = np.bitwise_count(np.bitwise_xor(mine_rows, their_rows))
                counts[lo:hi] = per_word.reshape(hi - lo, n_rounds, -1).sum(
                    axis=2, dtype=np.int64
                )
                continue
            for r in range(n_rounds):
                first = start + r * round_width - word_start * _WORD_BITS
                cols = slice(first // _WORD_BITS, -(-(first + round_width) // _WORD_BITS))
                counts[lo:hi, r] = count_packed_matches(
                    mine_rows[:, cols], their_rows[:, cols], first % _WORD_BITS, round_width
                )
        if aligned:
            np.subtract(round_width, counts, out=counts)
        return counts

    def band_key(self, i: int, band: int, band_width: int) -> bytes:
        """Hashable bytes of band ``band`` (bits ``band*width .. (band+1)*width``) of row ``i``."""
        start = band * band_width
        end = start + band_width
        if start % _WORD_BITS == 0 and end % _WORD_BITS == 0:
            words = self._word_columns(start // _WORD_BITS, end // _WORD_BITS)
            return np.ascontiguousarray(words[i]).tobytes()
        return self.get_bits(i, start, end).tobytes()

    def band_keys_many(self, rows: np.ndarray, band: int, band_width: int) -> np.ndarray:
        """Band contents for many rows at once (packed words when word-aligned)."""
        start = band * band_width
        end = start + band_width
        if end > self._n_hashes:
            raise IndexError(f"hash index {end} out of range (have {self._n_hashes})")
        rows = np.asarray(rows, dtype=np.int64)
        word_start = start // _WORD_BITS
        word_end = -(-end // _WORD_BITS)
        words = np.ascontiguousarray(self._word_columns(word_start, word_end)[rows])
        if start % _WORD_BITS == 0 and end % _WORD_BITS == 0:
            return words
        bits = np.unpackbits(
            words.view(np.uint8).reshape(len(rows), (word_end - word_start) * 4),
            axis=1,
            bitorder="little",
        )
        offset = start - word_start * _WORD_BITS
        return np.ascontiguousarray(bits[:, offset : offset + band_width])


class IntSignatures(SignatureStore):
    """Integer signatures (minwise hashing), one integer per hash.

    The store keeps whatever signed integer dtype the producer appends (the
    minhash family appends ``int32`` — its values fit in 31 bits, which
    halves the memory and comparison traffic the paper's Section 4.3 worries
    about); generic callers appending plain Python/``int64`` data keep
    ``int64``.  Unsigned input is normalised to ``int64`` on append, so
    mixed-dtype consolidation only ever promotes between signed integer
    types and equality semantics never change.
    """

    def __init__(self, n_vectors: int):
        self._n_vectors = int(n_vectors)
        self._matrix = _ChunkedMatrix(self._n_vectors)
        # Thread-local: the reusable gather buffers are written by every
        # batched read, so concurrent reader threads each get their own set.
        self._scratch = threading.local()

    @classmethod
    def from_values(cls, values: np.ndarray) -> "IntSignatures":
        """Rebuild a store from its raw signature matrix (snapshot restore path)."""
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-D value matrix, got shape {values.shape}")
        store = cls(values.shape[0])
        store.append_values(values)
        return store

    @property
    def n_vectors(self) -> int:
        """Number of signature rows stored."""
        return self._n_vectors

    @property
    def n_hashes(self) -> int:
        """Number of integer hashes materialised per row."""
        return self._matrix.n_columns

    def _scratch_for(
        self, n_pairs: int, width: int, dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reusable gather/compare buffers for :meth:`count_matches_rounds`.

        The round-synchronous verifiers call with a shrinking pair count and a
        fixed width every round; reusing one allocation avoids repeated large
        allocations (and their page faults) in the hot loop.  Buffers are
        keyed by ``(width, dtype)`` because callers alternate between
        single-round and multi-round spans, and live in thread-local storage
        so concurrent reader threads never share (and clobber) them.
        """
        buffers = getattr(self._scratch, "buffers", None)
        if buffers is None:
            buffers = {}
            self._scratch.buffers = buffers
        key = (width, np.dtype(dtype))
        cached = buffers.get(key)
        if cached is not None and cached[0].shape[0] >= n_pairs:
            left_buf, right_buf, equal_buf = cached
            return left_buf[:n_pairs], right_buf[:n_pairs], equal_buf[:n_pairs]
        left_buf = np.empty((n_pairs, width), dtype=dtype)
        right_buf = np.empty((n_pairs, width), dtype=dtype)
        equal_buf = np.empty((n_pairs, width), dtype=np.bool_)
        buffers[key] = (left_buf, right_buf, equal_buf)
        return left_buf, right_buf, equal_buf

    @property
    def values(self) -> np.ndarray:
        """The raw signature matrix, shape ``(n_vectors, n_hashes)``."""
        return self._matrix.consolidated()

    def append_values(self, values: np.ndarray) -> None:
        """Append a block of new integer hashes of shape ``(n_vectors, n_new)``."""
        values = np.asarray(values)
        if not np.issubdtype(values.dtype, np.signedinteger):
            # Normalise floats and unsigned ints to int64: mixing uint64 with
            # signed chunks would promote to float64 on consolidation and
            # corrupt equality comparisons for values above 2^53.
            if values.size and np.issubdtype(values.dtype, np.unsignedinteger):
                if values.max() > np.iinfo(np.int64).max:
                    raise ValueError("hash values above int64 range are not supported")
            values = values.astype(np.int64)
        if values.ndim != 2 or values.shape[0] != self._n_vectors:
            raise ValueError(
                f"expected values of shape ({self._n_vectors}, n_new), got {values.shape}"
            )
        if values.shape[1] == 0:
            return
        self._matrix.append(np.ascontiguousarray(values))

    def count_matches(self, i: int, j: int, start: int, end: int) -> int:
        """Agreeing hashes between rows ``i`` and ``j`` in window ``[start, end)``."""
        if end > self.n_hashes:
            raise IndexError(f"hash index {end} out of range (have {self.n_hashes})")
        if end <= start:
            return 0
        columns = self._matrix.columns(start, end)
        return int(np.sum(columns[i] == columns[j]))

    def count_matches_rounds(
        self, left: np.ndarray, right: np.ndarray, start: int, end: int, round_width: int,
        other: "IntSignatures | None" = None,
    ) -> np.ndarray:
        """Super-block gather with cache-aware pair tiling.

        Long-surviving pairs are gathered once for several rounds' worth of
        signature columns (one wide ``memcpy`` per row) and the per-round
        counts are reduced from that single gather — the gather volume per
        round drops by the super-block factor.  Pairs are processed in tiles
        sized so one tile's gather/compare scratch stays L2-resident (see
        :data:`_TILE_BYTES`): small batches run in a single tile (the former
        behaviour), while large active sets no longer round-trip a
        ``n_pairs x span`` scratch through DRAM between the gather, the
        compare and the reduction passes.  Counts are bit-identical for any
        tile size — every per-pair value comes from the same expressions.
        """
        n_rounds = self._rounds_in(start, end, round_width, other)
        n_pairs = len(left)
        if n_rounds == 0:
            return np.zeros((n_pairs, 0), dtype=np.int64)
        span = end - start
        columns = self._matrix.columns_contiguous(start, end)
        theirs = columns if other is None else other._matrix.columns_contiguous(start, end)
        left = np.asarray(left)
        right = np.asarray(right)
        tile = _tile_rows(span * columns.dtype.itemsize)
        counts = np.empty((n_pairs, n_rounds), dtype=np.int64)
        for lo in range(0, n_pairs, tile):
            hi = min(lo + tile, n_pairs)
            left_rows, right_rows, equal = self._scratch_for(
                hi - lo, span, columns.dtype
            )
            np.take(columns, left[lo:hi], axis=0, out=left_rows)
            np.take(theirs, right[lo:hi], axis=0, out=right_rows)
            np.equal(left_rows, right_rows, out=equal)
            counts[lo:hi] = equal.reshape(hi - lo, n_rounds, round_width).sum(
                axis=2, dtype=np.int64
            )
        return counts

    def band_key(self, i: int, band: int, band_width: int) -> bytes:
        """Hashable bytes of band ``band`` of row ``i`` (``band_width`` hashes)."""
        start = band * band_width
        end = start + band_width
        if end > self.n_hashes:
            raise IndexError(f"hash index {end} out of range (have {self.n_hashes})")
        return np.ascontiguousarray(self._matrix.columns(start, end)[i]).tobytes()

    def band_keys_many(self, rows: np.ndarray, band: int, band_width: int) -> np.ndarray:
        """Band contents for many rows at once, as an integer matrix."""
        start = band * band_width
        end = start + band_width
        if end > self.n_hashes:
            raise IndexError(f"hash index {end} out of range (have {self.n_hashes})")
        columns = self._matrix.columns(start, end)
        return np.ascontiguousarray(columns[np.asarray(rows, dtype=np.int64)])


def store_parts(store: SignatureStore) -> tuple[str, np.ndarray, int]:
    """``(kind, matrix, n_hashes)`` of a store, for snapshots and worker hand-off."""
    if isinstance(store, BitSignatures):
        return "bits", store.words, store.n_hashes
    if isinstance(store, IntSignatures):
        return "ints", store.values, store.n_hashes
    raise TypeError(f"cannot serialise a {type(store).__name__} signature store")


def store_from_parts(kind: str, matrix: np.ndarray, n_hashes: int) -> SignatureStore:
    """Rebuild a signature store from its :func:`store_parts`."""
    if kind == "bits":
        return BitSignatures.from_words(matrix, int(n_hashes))
    if kind == "ints":
        store = IntSignatures.from_values(matrix)
        if store.n_hashes != int(n_hashes):
            raise ValueError(
                f"store parts declare {n_hashes} hashes but the matrix "
                f"holds {store.n_hashes}"
            )
        return store
    raise ValueError(f"unknown signature store kind {kind!r}")
