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
in one gather (:meth:`SignatureStore.band_keys_many`), every band is grouped
into buckets by :func:`group_bands_by_content` — two value sorts of
position-tagged ``uint64`` keys over all bands at once — and intra-bucket
pairs are enumerated with the ragged-array primitives in
:mod:`repro.candidates.arrayops`: no per-row dict or per-pair Python loop.
Buckets come out in the order a dict of buckets is filled in, and pairs,
collision counts and the emitted candidate set are identical to the
dict-of-buckets reference (:func:`tests.reference.lsh_candidates_reference`).
The serving layer's :class:`BandPostings` keeps the same band keys as
sealed sorted runs, probed exactly like a dict of buckets
(:func:`tests.reference.band_probe_reference`).
"""

from __future__ import annotations

import math

import numpy as np

from typing import Iterator, Protocol

from repro.candidates.arrayops import (
    block_slices,
    pairs_within_groups,
    ragged_arange,
    sorted_unique,
)
from repro.candidates.base import BlockStream, CandidateGenerator
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
    """Every band's contents for ``rows`` from one gather: ``(bands, rows, width)``.

    Band ``b`` is ``band_keys_many(rows, b, band_width)``, read as one gather
    over every band's hashes.  A bit store returns packed ``uint32`` words
    when that span is word-aligned, even where a single band is not (four
    8-bit bands), so words are unpacked to the bits a lone band returns.
    """
    keys = source.band_keys_many(rows, 0, n_bands * band_width)
    if keys.dtype == np.uint32:
        keys = np.unpackbits(keys.view(np.uint8), axis=1, bitorder="little")
    return keys.reshape(len(rows), n_bands, band_width).transpose(1, 0, 2)


def _run_keys(contents: np.ndarray) -> tuple[np.ndarray, bool]:
    """Each ``(band, row)``'s postings key, ``(bands, rows)`` ``uint64``, and whether it is exact.

    The band number fills the high bits.  Below it sits the band content
    packed at a fixed width per value (one bit for a bit store, the dtype's
    width for an integer store) when that fits, and otherwise the content's
    multiply-xor fingerprint, whose equal keys the caller must confirm
    against the real contents (a minhash band is 4 x 31 bits).
    """
    n_bands, _, width = contents.shape
    band_bits = n_bands.bit_length()
    if contents.dtype.kind == "u":
        low, value_bits = 0, 1
    else:
        low, value_bits = int(np.iinfo(contents.dtype).min), 8 * contents.dtype.itemsize
    exact = width * value_bits <= 64 - band_bits
    if exact:
        keys = _packed_content(contents, low, value_bits)
    else:
        keys = _fingerprint(_content_words(contents)) >> np.uint64(band_bits)
    keys |= np.arange(n_bands, dtype=np.uint64)[:, None] << np.uint64(64 - band_bits)
    return keys, exact


def _sorted_run(keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, rows)`` ordered by ``(key, row)``.

    One stable sort on the keys, which is a linear merge when the input is
    sorted runs laid end to end.  Equal keys then keep input order, which is
    row order for a batch of ascending rows and for runs whose rows all
    precede the next run's (an index only appends rows); anything else
    falls back to a two-key sort.
    """
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    if ((keys[1:] == keys[:-1]) & (rows[1:] < rows[:-1])).any():
        order = np.lexsort((rows, keys))
        keys, rows = keys[order], rows[order]
    return keys, rows


#: default signature widths (number of hashes concatenated per signature)
_DEFAULT_WIDTH = {"simhash": 8, "minhash": 4}
#: safety cap on the number of signatures
_MAX_SIGNATURES = 2000
#: a new postings run merges into the run before it while that one is at
#: most this many times its size
_MERGE_FACTOR = 2


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
    """Banded LSH postings: sealed sorted runs, grown by batches, probed in one pass.

    The query-serving counterpart of :class:`LSHGenerator`'s all-pairs
    bucketing.  Every ``(band, member row)`` is one entry keyed by
    :func:`_run_keys`: the band number in the high bits, the band content
    below it (a fingerprint of the content where it does not fit).  A *run*
    is a ``uint64`` key array and a parallel ``int64`` member-row array
    ordered by ``(key, row)``, so a run's bytes are a function of its member
    set alone.  Runs are never edited: :meth:`add` seals the batch as a new
    run from one gather of every band, then merges it with the run before
    it while that run holds at most ``_MERGE_FACTOR`` times its entries, so
    ingest stays O(batch) amortised and a probe touches O(log) runs.

    Deletions are the owner's: it tombstones rows and filters probe results.
    A merge drops the members tombstoned at that moment (the ``deleted``
    mask passed to :meth:`add`), and a compacted snapshot drops them all.

    Concurrency contract: *one* mutator at a time (the owning
    :class:`~repro.search.query.QueryIndex` calls :meth:`add` under its
    update lock), while :meth:`probe_many` may run concurrently from reader
    threads.  :meth:`add` publishes the new runs tuple with one attribute
    assignment and a probe reads that tuple once, so a probe racing an
    ``add`` answers exactly as before it or after it.
    """

    def __init__(self, n_bands: int, band_width: int, runs=()):
        if n_bands <= 0:
            raise ValueError(f"n_bands must be positive, got {n_bands}")
        if band_width <= 0:
            raise ValueError(f"band_width must be positive, got {band_width}")
        self._n_bands = int(n_bands)
        self._band_width = int(band_width)
        self._runs: tuple[tuple[np.ndarray, np.ndarray], ...] = tuple(runs)

    @classmethod
    def build(
        cls, store: BandKeySource, rows: np.ndarray, n_bands: int, band_width: int
    ) -> "BandPostings":
        """Postings over ``rows`` of ``store``, sealed as one run."""
        postings = cls(n_bands, band_width)
        postings.add(store, rows)
        return postings

    @property
    def runs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The sealed ``(keys, rows)`` runs, oldest first (the serialisable state)."""
        return self._runs

    def add(self, store: BandKeySource, rows, deleted: np.ndarray | None = None) -> None:
        """Seal ``rows`` of ``store`` as a run and merge it into the runs before it.

        A merge drops every member ``deleted`` (a tombstone mask indexed by
        row) marks; the new rows themselves are always kept.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        keys, _ = _run_keys(_band_keys(store, rows, self._n_bands, self._band_width))
        run = _sorted_run(keys.reshape(-1), np.tile(rows, self._n_bands))
        runs = list(self._runs)
        while runs and len(runs[-1][0]) <= _MERGE_FACTOR * len(run[0]):
            earlier_keys, earlier_rows = runs.pop()
            keys = np.concatenate([earlier_keys, run[0]])
            members = np.concatenate([earlier_rows, run[1]])
            if deleted is not None:
                alive = ~deleted[members]
                keys, members = keys[alive], members[alive]
            run = _sorted_run(keys, members)
        runs.append(run)
        self._runs = tuple(runs)

    def compacted(self, alive: np.ndarray) -> "BandPostings":
        """One run of the members ``alive`` keeps, renumbered to ``alive``'s rank.

        Row ``r`` becomes the number of alive rows before it, the row map of
        a compacted snapshot.
        """
        renumber = np.cumsum(alive, dtype=np.int64) - 1
        keys = np.concatenate([np.zeros(0, dtype=np.uint64), *(k for k, _ in self._runs)])
        rows = np.concatenate([np.zeros(0, dtype=np.int64), *(r for _, r in self._runs)])
        keep = alive[rows]
        run = _sorted_run(keys[keep], renumber[rows[keep]])
        return BandPostings(self._n_bands, self._band_width, [run])

    def probe_many(
        self, query_store: SignatureStore, query_rows, store: BandKeySource
    ) -> tuple[np.ndarray, np.ndarray]:
        """Member rows sharing at least one band with each query row.

        ``query_store`` holds the queries' signatures (drawn from the same
        hash functions as the member store ``store``).  Returns parallel
        ``(query position, member row)`` arrays — the union of all band hits,
        deduplicated and sorted lexicographically by ``(position, row)`` via
        the integer-key encoding ``CandidateSet.from_arrays`` uses.

        Every run is searched once for all query rows' keys of all bands: one
        pair of ``searchsorted`` calls and one ragged gather.  Fingerprint
        keys are confirmed against the members' real band contents, gathered
        from ``store``, so the probe is exact whatever collides.
        """
        query_rows = np.asarray(query_rows, dtype=np.int64)
        runs = self._runs
        empty = np.zeros(0, dtype=np.int64)
        if len(query_rows) == 0 or not runs:
            return empty, empty
        contents = _band_keys(query_store, query_rows, self._n_bands, self._band_width)
        keys, exact = _run_keys(contents)
        keys = keys.reshape(-1)  # entry = band * len(query_rows) + position
        order = np.argsort(keys)  # sorted needles search faster
        keys = keys[order]
        entries, members = [], []
        for run_keys, run_rows in runs:
            first = np.searchsorted(run_keys, keys, side="left")
            counts = np.searchsorted(run_keys, keys, side="right") - first
            entries.append(np.repeat(order, counts))
            members.append(run_rows[ragged_arange(first, counts)])
        entries, members = np.concatenate(entries), np.concatenate(members)
        positions = entries % len(query_rows)
        if not exact and len(members):
            bands = entries // len(query_rows)
            distinct = sorted_unique(members)
            member_contents = _band_keys(store, distinct, self._n_bands, self._band_width)
            member_contents = member_contents[bands, np.searchsorted(distinct, members)]
            same = (member_contents == contents[bands, positions]).all(axis=1)
            positions, members = positions[same], members[same]
        if not len(members):
            return empty, empty
        span = int(members.max()) + 1
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
