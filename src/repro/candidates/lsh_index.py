"""LSH banding index for candidate generation (Section 2 of the paper).

Each vector receives ``l`` signatures, each the concatenation of ``k`` hashes
from the measure's LSH family; every pair of vectors sharing at least one
signature becomes a candidate.  For a signature width ``k``, a similarity
threshold ``t`` and a target false-negative rate ``fn`` the number of
signatures is

    l = ceil( log(fn) / log(1 - p_t ** k) )

where ``p_t`` is the *collision probability* at the threshold — ``t`` itself
for Jaccard, ``1 - arccos(t)/pi`` for cosine (the paper's formula is stated
for the Jaccard case where the two coincide).

The hash family object is exposed so the verification phase can reuse the
very same hashes — the amortisation the paper highlights as advantage 3 of
BayesLSH.

Bucketing is array-based: each band's contents are fetched for all rows at
once (:meth:`SignatureStore.band_keys_many`), rows are grouped into buckets
with one lexicographic sort per band, and intra-bucket pairs are enumerated
with the ragged-array primitives in :mod:`repro.candidates.arrayops` — no
per-row dict or per-pair Python loop.  Pairs, collision counts and the
emitted candidate set are identical to the dict-of-buckets reference
(:func:`repro.reference.lsh_candidates_reference`).
"""

from __future__ import annotations

import math

import numpy as np

from typing import Iterator, Protocol

from repro.candidates.arrayops import pairs_within_groups, sorted_unique
from repro.candidates.base import (
    UNBOUNDED_BLOCK,
    BlockStream,
    CandidateGenerator,
    CandidateSet,
)
from repro.hashing.base import HashFamily, get_hash_family
from repro.hashing.signatures import SignatureStore
from repro.similarity.vectors import VectorCollection

__all__ = ["BandKeySource", "BandPostings", "LSHGenerator", "signatures_for_false_negative_rate"]


class BandKeySource(Protocol):
    """Anything band contents can be gathered from, addressed by row index.

    The postings deliberately depend only on this one operation, so they
    work over a plain :class:`~repro.hashing.signatures.SignatureStore` and
    equally over the serving layer's
    :class:`~repro.serving.segments.SegmentedCollection`, which routes the
    gather to per-segment stores (bit-identically, since band keys are
    row-local).
    """

    def band_keys_many(self, rows: np.ndarray, band: int, band_width: int) -> np.ndarray:
        """Band contents for many rows, one row of band content per input row."""
        ...


def _order_words(keys: np.ndarray) -> np.ndarray:
    """Each row of integer ``keys`` packed into ``uint64`` words that sort like it.

    Every value is made order-preserving unsigned (signed values get their
    sign bit flipped) and written big-endian, so a row's bytes compare
    lexicographically exactly as its values do; the bytes are zero-padded to
    a whole number of words and read back as big-endian ``uint64``.  Two rows
    are equal iff their words are, and ``lexsort`` over the words (first
    word most significant) orders rows as ``lexsort`` over the columns would.
    """
    keys = np.ascontiguousarray(keys)
    n_rows, width = keys.shape
    itemsize = keys.dtype.itemsize
    unsigned = keys.view(f"u{itemsize}")
    if keys.dtype.kind == "i":
        unsigned = unsigned ^ unsigned.dtype.type(1 << (8 * itemsize - 1))
    row_bytes = unsigned.astype(unsigned.dtype.newbyteorder(">")).view(np.uint8)
    n_words = -(-width * itemsize // 8)
    if n_words * 8 != width * itemsize:
        padded = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
        padded[:, : width * itemsize] = row_bytes
        row_bytes = padded
    return row_bytes.view(">u8").astype(np.uint64)


def group_by_band_content(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows whose band contents compare equal, with one sort.

    ``keys`` is a ``band_keys_many`` result (one row of band content per
    input row).  Returns ``(order, offsets)``: ``order`` permutes row
    positions so equal-content rows are consecutive (stable, so original
    order is preserved inside each group) and group ``g`` spans
    ``order[offsets[g]:offsets[g + 1]]``.  Shared by the all-pairs bucketing
    and the serving-layer postings so both group with literally the same
    procedure.  Groups come out in lexicographic order of their content
    (column 0 most significant).  The sort is one stable ``lexsort`` over
    :func:`_order_words` — ``ceil(bytes / 8)`` keys instead of one per column
    (a 4-minhash band is 2 keys, an 8-bit simhash band 1).
    """
    words = _order_words(keys)
    order = np.lexsort(words.T[::-1])
    if not len(order):
        return order, np.zeros(1, dtype=np.int64)
    changed = np.zeros(len(order) - 1, dtype=bool)
    for column in words[order].T:
        changed |= column[1:] != column[:-1]
    starts = np.flatnonzero(changed) + 1
    return order, np.concatenate([[0], starts, [len(order)]])


#: default signature widths (number of hashes concatenated per signature)
_DEFAULT_WIDTH = {"simhash": 8, "minhash": 4}
#: safety cap on the number of signatures
_MAX_SIGNATURES = 2000


def signatures_for_false_negative_rate(
    collision_probability: float, signature_width: int, false_negative_rate: float
) -> int:
    """Number of length-``k`` signatures needed for an expected false-negative rate.

    Implements ``l = ceil(log(fn) / log(1 - p ** k))`` with ``p`` the collision
    probability at the similarity threshold.
    """
    if not 0.0 < collision_probability < 1.0:
        raise ValueError(
            f"collision probability must lie in (0, 1), got {collision_probability}"
        )
    if signature_width <= 0:
        raise ValueError(f"signature_width must be positive, got {signature_width}")
    if not 0.0 < false_negative_rate < 1.0:
        raise ValueError(
            f"false_negative_rate must lie in (0, 1), got {false_negative_rate}"
        )
    miss_probability = 1.0 - collision_probability**signature_width
    if miss_probability <= 0.0:
        return 1
    if miss_probability >= 1.0:
        # Collisions at the threshold are so unlikely that no realistic number
        # of signatures reaches the target recall; return the cap.
        return _MAX_SIGNATURES
    needed = math.ceil(math.log(false_negative_rate) / math.log(miss_probability))
    return max(1, min(needed, _MAX_SIGNATURES))


class BandPostings:
    """Banded LSH postings supporting incremental inserts and batched probes.

    The query-serving counterpart of :class:`LSHGenerator`'s all-pairs
    bucketing: each band maps band content (as bytes) to the list of member
    rows holding that content.  Members are added in batches — initial build
    and every serving-layer ingest use the same vectorised path (one
    ``band_keys_many`` + :func:`group_by_band_content` sort per band) — and
    probing looks up a whole batch of query signatures at once.

    Deletions are *not* represented here: the owner tombstones rows and
    filters probe results, then rebuilds the postings from scratch once the
    tombstone fraction exceeds its staleness budget.  Rebuilding from the
    concatenated member sequence reproduces bucket lists in the exact order
    incremental adds created them (within one :meth:`add` call rows land in
    argument order, and consecutive calls append), which is what lets a
    snapshot serialise the postings as just that member sequence.

    Concurrency contract: *one* mutator at a time (the owning
    :class:`~repro.search.query.QueryIndex` serialises :meth:`add` and the
    staleness rebuild under its update lock — the rebuild builds a fresh
    instance and swaps the reference atomically), while :meth:`probe_many`
    may run concurrently from reader threads: probes only ``get`` bucket
    lists and read each exactly once (one atomic ``extend`` into the probe's
    own flat list), and :meth:`add` grows buckets with single atomic
    ``extend`` calls, so a concurrent probe observes each bucket either
    before or after a batch — never a torn list.
    """

    def __init__(self, n_bands: int, band_width: int):
        if n_bands <= 0:
            raise ValueError(f"n_bands must be positive, got {n_bands}")
        if band_width <= 0:
            raise ValueError(f"band_width must be positive, got {band_width}")
        self._n_bands = int(n_bands)
        self._band_width = int(band_width)
        self._buckets: list[dict[bytes, list[int]]] = [{} for _ in range(self._n_bands)]
        self._members: list[int] = []

    @classmethod
    def build(
        cls, store: BandKeySource, rows: np.ndarray, n_bands: int, band_width: int
    ) -> "BandPostings":
        """Postings over ``rows`` of ``store`` (order defines bucket order)."""
        postings = cls(n_bands, band_width)
        postings.add(store, rows)
        return postings

    @property
    def n_bands(self) -> int:
        """Number of independent LSH bands."""
        return self._n_bands

    @property
    def band_width(self) -> int:
        """Hashes concatenated per band."""
        return self._band_width

    @property
    def n_members(self) -> int:
        """Total member rows inserted (tombstoned members included)."""
        return len(self._members)

    @property
    def members(self) -> np.ndarray:
        """Member rows in insertion order (the serialisable postings state)."""
        return np.asarray(self._members, dtype=np.int64)

    def add(self, store: BandKeySource, rows) -> None:
        """Insert ``rows`` of ``store`` into every band's buckets."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        for band in range(self._n_bands):
            keys = store.band_keys_many(rows, band, self._band_width)
            order, offsets = group_by_band_content(keys)
            grouped = rows[order]
            bucket = self._buckets[band]
            for group in range(len(offsets) - 1):
                lo, hi = offsets[group], offsets[group + 1]
                key = keys[order[lo]].tobytes()
                bucket.setdefault(key, []).extend(grouped[lo:hi].tolist())
        self._members.extend(rows.tolist())

    def probe_many(
        self, query_store: SignatureStore, query_rows, n_vectors: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Member rows sharing at least one band with each query row.

        ``query_store`` holds the queries' signatures (drawn from the same
        hash functions as the member store).  Returns parallel
        ``(query position, member row)`` arrays — the union of all band hits,
        deduplicated and sorted lexicographically by ``(position, row)`` via
        the same integer-key encoding the streamed executor uses.

        ``n_vectors`` is only a *lower bound* on the encoding span: the span
        actually used is raised to cover the largest member row observed, so
        a concurrent ingest that appends members beyond the caller's
        snapshot mid-probe cannot corrupt the decode (any span above every
        member row yields the identical ``(position, row)`` sort order, so
        the result is span-independent — and hence identical to a
        race-free probe over the rows that were visible).
        """
        query_rows = np.asarray(query_rows, dtype=np.int64)
        if len(query_rows) == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        # Every hit bucket is chained into one flat list and converted once.
        # A hit's length is the growth of the flat list, so each bucket list
        # is read exactly once (the ``extend``): a concurrent ``add`` cannot
        # make the recorded length disagree with the members copied.
        hit_members: list[int] = []
        hit_positions: list[int] = []
        hit_lengths: list[int] = []
        for band in range(self._n_bands):
            keys = query_store.band_keys_many(query_rows, band, self._band_width)
            bucket = self._buckets[band]
            for position in range(len(query_rows)):
                members = bucket.get(keys[position].tobytes())
                if members is not None:
                    n_before = len(hit_members)
                    hit_members.extend(members)
                    hit_positions.append(position)
                    hit_lengths.append(len(hit_members) - n_before)
        if not hit_members:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        members = np.asarray(hit_members, dtype=np.int64)
        positions = np.repeat(np.asarray(hit_positions, dtype=np.int64), hit_lengths)
        span = max(int(n_vectors), int(members.max()) + 1)
        encoded = sorted_unique(positions * span + members)
        return encoded // span, encoded % span


class LSHGenerator(CandidateGenerator):
    """Banded LSH candidate generation.

    Parameters
    ----------
    measure:
        ``"cosine"``, ``"jaccard"`` or ``"binary_cosine"``.
    threshold:
        Similarity threshold ``t``.
    false_negative_rate:
        Target probability of missing a pair exactly at the threshold
        (0.03 in the paper's experiments).
    signature_width:
        Hashes per signature (``k`` in Section 2).  Defaults to 8 bits for
        the cosine family and 4 minhashes for Jaccard.
    seed:
        Seed for the hash family (ignored if ``family`` is supplied).
    family:
        Optionally, an existing :class:`HashFamily` to draw hashes from; this
        is how a BayesLSH verifier and the generator share signatures.
    """

    name = "lsh"

    def __init__(
        self,
        measure="cosine",
        threshold: float = 0.5,
        false_negative_rate: float = 0.03,
        signature_width: int | None = None,
        seed: int = 0,
        family: HashFamily | None = None,
    ):
        super().__init__(measure, threshold)
        if not 0.0 < false_negative_rate < 1.0:
            raise ValueError(
                f"false_negative_rate must lie in (0, 1), got {false_negative_rate}"
            )
        self._false_negative_rate = float(false_negative_rate)
        family_name = self.measure.lsh_family
        if signature_width is None:
            signature_width = _DEFAULT_WIDTH[family_name]
        if signature_width <= 0:
            raise ValueError(f"signature_width must be positive, got {signature_width}")
        self._signature_width = int(signature_width)
        self._seed = int(seed)
        self._family = family
        self._last_family: HashFamily | None = family

    @property
    def signature_width(self) -> int:
        """Hashes concatenated per signature (``k`` in Section 2)."""
        return self._signature_width

    @property
    def n_signatures(self) -> int:
        """Number of signatures ``l`` implied by the threshold and target recall."""
        collision = self.measure_collision_probability()
        return signatures_for_false_negative_rate(
            collision, self._signature_width, self._false_negative_rate
        )

    @property
    def family(self) -> HashFamily | None:
        """The hash family used in the most recent :meth:`generate` call."""
        return self._last_family

    def measure_collision_probability(self) -> float:
        """Collision probability of a single hash at the similarity threshold."""
        if self.measure.lsh_family == "minhash":
            return self._threshold
        from repro.hashing.simhash import cosine_to_collision

        return float(cosine_to_collision(self._threshold))

    def generate_blocks(self, collection: VectorCollection, block_size: int) -> BlockStream:
        """Stream raw collision pairs band by band.

        Each LSH band is bucketed independently, so its collision pairs form a
        natural block (split further to respect ``block_size``); no cross-band
        pair array is ever materialised.
        """
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        prepared = self.measure.prepare(collection)
        # A supplied family is used as is, so it must be the one built over
        # this collection (``SearchEngine.run`` refuses any other corpus).
        family = self._family
        if family is None:
            family = get_hash_family(self.measure.lsh_family, prepared, seed=self._seed)
        self._last_family = family

        n_signatures = self.n_signatures
        width = self._signature_width
        metadata = {
            "generator": self.name,
            "n_signatures": n_signatures,
            "signature_width": width,
            "n_raw_collisions": 0,
            "n_vectors": prepared.n_vectors,
        }

        def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            store = family.signatures(n_signatures * width)
            # Skip empty vectors: they share no features with anything.
            non_empty = np.flatnonzero(prepared.row_nnz > 0)
            for band in range(n_signatures if len(non_empty) else 0):
                # Group rows by band content with one sort per band instead
                # of a dict of per-row byte keys: rows whose band columns
                # compare equal land in the same group.
                keys = store.band_keys_many(non_empty, band, width)
                order, offsets = group_by_band_content(keys)
                bucket_rows = non_empty[order]
                earlier, later = pairs_within_groups(bucket_rows, offsets)
                metadata["n_raw_collisions"] += len(earlier)
                for start in range(0, len(earlier), block_size):
                    end = start + block_size
                    yield earlier[start:end], later[start:end]

        return BlockStream(blocks(), metadata)

    def generate(self, collection: VectorCollection) -> CandidateSet:
        """All banded-LSH collision pairs at once.

        Deterministic in ``(collection, seed)``: hash functions are pure
        functions of ``(seed, hash index)``, so repeated calls — or a
        streamed call with any block size — produce identical candidates.
        """
        return CandidateSet.from_stream(
            self.generate_blocks(collection, block_size=UNBOUNDED_BLOCK)
        )
