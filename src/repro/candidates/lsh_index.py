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

Bucketing is array-based: every band's contents are fetched for all rows
(:meth:`SignatureStore.band_keys_many`; one gather for an integer store),
every band is grouped into buckets by :func:`group_bands_by_content` — two
value sorts of position-tagged ``uint64`` keys over all bands at once — and
intra-bucket pairs are enumerated with the ragged-array primitives in
:mod:`repro.candidates.arrayops`: no per-row dict or per-pair Python loop.
Buckets come out in the order a dict of buckets is filled in, and pairs,
collision counts and the emitted candidate set are identical to the
dict-of-buckets reference (:func:`tests.reference.lsh_candidates_reference`).
"""

from __future__ import annotations

import math

import numpy as np

from typing import Iterator, Protocol

from repro.candidates.arrayops import block_slices, pairs_within_groups, sorted_unique
from repro.candidates.base import BlockStream, CandidateGenerator
from repro.hashing.base import HashFamily, get_hash_family
from repro.hashing.signatures import IntSignatures, SignatureStore
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


#: odd 64-bit multiplier of the band-content fingerprint (one multiply-xor per word)
_FINGERPRINT_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def group_bands_by_content(keys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group each band's rows by band content, every band in one pass.

    ``keys`` stacks every band's ``band_keys_many`` result as ``(bands, rows,
    width)``.  Returns one ``(order, offsets)`` per band: ``order`` permutes
    row positions so equal-content rows are consecutive, in argument order
    inside each group, and group ``g`` spans ``order[offsets[g]:offsets[g +
    1]]``.  Groups come out in first-occurrence order (by their smallest row
    position), the order a dict of buckets is filled in.  Shared by the
    all-pairs bucketing and the serving-layer postings so both group with
    literally the same procedure.

    Both sorts are value sorts of ``(bands, rows)`` ``uint64`` keys whose low
    ``ceil(log2 rows)`` bits hold the row position, which makes them stable
    by construction.  The high bits hold the band content itself when it fits
    (each value less the minimum, at the bits the values' range needs) and
    otherwise a multiply-xor fingerprint of the content (a minhash band is
    4 x 31 bits).  Fingerprint runs are confirmed by comparing neighbours'
    real contents; a run whose rows differ is regrouped exactly, over its own
    rows only.  The second sort is keyed on each row's group head (the
    group's smallest position), which orders the groups by first occurrence
    whatever the fingerprint.  Rows are assumed fewer than ``2**32``.
    """
    keys = np.asarray(keys)
    n_bands, n_rows, width = keys.shape
    if n_bands == 0 or n_rows == 0:
        return [(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64))] * n_bands
    shift = (n_rows - 1).bit_length()
    row_bits = np.uint64((1 << shift) - 1)
    low = int(keys.min())
    value_bits = (int(keys.max()) - low).bit_length()
    words = None
    if width * value_bits <= 64 - shift:
        sort_keys = _packed_content(keys, low, value_bits) << shift
    else:
        words = _content_words(keys)
        sort_keys = _fingerprint(words) & ~row_bits
    sort_keys |= np.arange(n_rows, dtype=np.uint64)
    sort_keys.sort(axis=1)
    flat = sort_keys.reshape(-1)
    starts = np.ones((n_bands, n_rows), dtype=bool)
    tags = sort_keys >> shift
    np.not_equal(tags[:, 1:], tags[:, :-1], out=starts[:, 1:])
    flat_starts = starts.reshape(-1)
    if words is not None:
        later = np.flatnonzero(~flat_starts)
        bands = later // n_rows
        later_rows = (flat[later] & row_bits).astype(np.intp)
        earlier_rows = (flat[later - 1] & row_bits).astype(np.intp)
        differ = np.zeros(len(later), dtype=bool)
        for column in range(words.shape[2]):
            plane = words[:, :, column]
            differ |= plane[bands, later_rows] != plane[bands, earlier_rows]
        if differ.any():
            _regroup_runs(words, flat, flat_starts, later[differ], n_rows, row_bits)

    # Every group is now consecutive and in position order, so its first row
    # is its head; sorting on (head, position) orders groups by first occurrence.
    group_starts = np.flatnonzero(flat_starts)
    rows = flat & row_bits
    by_head = np.repeat(rows[group_starts], np.diff(group_starts, append=len(flat)))
    by_head <<= shift
    by_head |= rows
    by_head = by_head.reshape(n_bands, n_rows)
    by_head.sort(axis=1)
    order = (by_head & row_bits).astype(np.int64)
    heads = by_head >> shift
    np.not_equal(heads[:, 1:], heads[:, :-1], out=starts[:, 1:])
    group_starts = np.flatnonzero(flat_starts)
    bounds = np.searchsorted(group_starts, np.arange(n_bands + 1) * n_rows)
    return [
        (order[band], np.append(group_starts[lo:hi] - band * n_rows, n_rows))
        for band, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def _packed_content(keys: np.ndarray, low: int, value_bits: int) -> np.ndarray:
    """Each row's values less ``low``, packed at ``value_bits`` apiece: ``(bands, rows)``."""
    offset = np.uint64(low % 2**64)
    packed = np.zeros(keys.shape[:2], dtype=np.uint64)
    for column in range(keys.shape[2]):
        packed <<= value_bits
        packed |= keys[:, :, column].astype(np.uint64) - offset
    return packed


def _content_words(keys: np.ndarray) -> np.ndarray:
    """``keys`` as ``(bands, rows, words)`` ``uint64``, rows zero-padded to whole words.

    Two rows' words are equal iff their values are.  A row of whole words
    with contiguous values (a 4 x ``int32`` minhash band) is a view.
    """
    per_word = 8 // keys.dtype.itemsize
    width = keys.shape[2]
    padded_width = -(-width // per_word) * per_word
    if padded_width != width or keys.strides[2] != keys.dtype.itemsize:
        padded = np.zeros((*keys.shape[:2], padded_width), dtype=keys.dtype)
        padded[:, :, :width] = keys
        keys = padded
    return keys.view(np.uint64)


def _fingerprint(words: np.ndarray) -> np.ndarray:
    """A multiply-xor hash of each row's words: ``(bands, rows)`` ``uint64``, C order."""
    fingerprint = np.ascontiguousarray(words[:, :, 0] * _FINGERPRINT_MULTIPLIER)
    for column in range(1, words.shape[2]):
        fingerprint ^= words[:, :, column]
        fingerprint *= _FINGERPRINT_MULTIPLIER
    return fingerprint


def _regroup_runs(
    words: np.ndarray, flat: np.ndarray, flat_starts: np.ndarray, mismatched: np.ndarray,
    n_rows: int, row_bits: np.uint64,
) -> None:
    """Group exactly, in place, the fingerprint runs holding the ``mismatched`` entries.

    ``flat`` / ``flat_starts`` are the sorted keys and group starts of every
    band end to end.  The runs' entries are reordered inside the runs by one
    stable lexsort on (run, content), so each group keeps position order.
    """
    run_ids = np.cumsum(flat_starts) - 1
    collided = np.zeros(run_ids[-1] + 1, dtype=bool)
    collided[run_ids[mismatched]] = True
    members = np.flatnonzero(collided[run_ids])
    runs = run_ids[members]
    contents = words[members // n_rows, (flat[members] & row_bits).astype(np.intp)]
    regrouped = np.lexsort((*contents.T[::-1], runs))
    flat[members] = flat[members[regrouped]]
    runs, contents = runs[regrouped], contents[regrouped]
    changed = (contents[1:] != contents[:-1]).any(axis=1)
    flat_starts[members[1:]] = changed | (runs[1:] != runs[:-1])


def _band_keys(
    source: BandKeySource, rows: np.ndarray, n_bands: int, band_width: int
) -> np.ndarray:
    """Every band's ``band_keys_many`` for ``rows``, stacked as ``(bands, rows, width)``.

    Each band's keys are exactly what ``band_keys_many`` returns for it alone
    (what :meth:`BandPostings.probe_many` looks up).  Integer bands are
    consecutive columns, so one gather holds them all; a bit store is gathered
    band by band, since a gather over several bands returns packed words
    whenever it is word-aligned, even where a single band is not.
    """
    if isinstance(source, IntSignatures):
        keys = source.band_keys_many(rows, 0, n_bands * band_width)
        return keys.reshape(len(rows), n_bands, band_width).transpose(1, 0, 2)
    return np.stack([source.band_keys_many(rows, band, band_width) for band in range(n_bands)])


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
    and every serving-layer ingest use the same vectorised path as the
    all-pairs bucketing (every band's keys stacked, one
    :func:`group_bands_by_content` over all bands) — and probing looks up a
    whole batch of query signatures at once.

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
        keys = _band_keys(store, rows, self._n_bands, self._band_width)
        for band, (order, offsets) in enumerate(group_bands_by_content(keys)):
            grouped = rows[order]
            bucket = self._buckets[band]
            for group in range(len(offsets) - 1):
                lo, hi = offsets[group], offsets[group + 1]
                key = keys[band, order[lo]].tobytes()
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
        the integer-key encoding ``CandidateSet.from_arrays`` uses.

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

    generate = CandidateGenerator.generate  # named here for benchmarks/e2e/trace.py to wrap

    def generate_blocks(
        self, collection: VectorCollection, block_size: int | None = None
    ) -> BlockStream:
        """Stream raw collision pairs band by band.

        Each LSH band is bucketed independently, so its collision pairs form a
        natural block (split further to respect ``block_size``); no cross-band
        pair array is ever materialised.  A pair colliding in several bands
        appears in several blocks.  Deterministic in ``(collection, seed)``:
        hash functions are pure functions of ``(seed, hash index)``, so
        repeated calls — or a streamed call with any block size — produce
        identical candidates.
        """
        if block_size is not None and block_size <= 0:
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
            if not len(non_empty):
                return
            keys = _band_keys(store, non_empty, n_signatures, width)
            for order, offsets in group_bands_by_content(keys):
                bucket_rows = non_empty[order]
                earlier, later = pairs_within_groups(bucket_rows, offsets)
                metadata["n_raw_collisions"] += len(earlier)
                for chunk in block_slices(len(earlier), block_size):
                    yield earlier[chunk], later[chunk]

        return BlockStream(blocks(), metadata)
