"""Segmented, ingest-friendly storage of an indexed collection.

The serving layer's original design held the corpus as one monolithic CSR
matrix plus one monolithic signature store, so every ``insert`` paid an
O(N) re-concatenation and re-preparation of the whole collection.  This
module replaces that with a *log-structured* layout: the collection is an
ordered list of immutable, sealed **segments**, and ingest appends a new
segment instead of rewriting the old ones — ``insert`` cost becomes
O(batch).

A :class:`CollectionSegment` bundles everything one ingest batch needs:

* the raw :class:`~repro.similarity.vectors.VectorCollection` slice,
* the measure's *prepared* view of it (normalised / binarised),
* a :class:`~repro.hashing.base.HashFamily` clone evaluating the index's
  hash functions on exactly these rows, and
* the segment's own :class:`~repro.hashing.signatures.SignatureStore`,
  extended lazily and independently of the other segments.

:class:`SegmentedCollection` presents the segments as one logical
collection addressed by **global row index**: segment ``s`` owns rows
``[offset_s, offset_s + n_s)``.  The batched kernels the serving layer
needs — band-key gathers for the LSH postings, cross-store hash-agreement
counts for BayesLSH verification, exact cross-similarities — are routed
segment-wise: global rows are grouped by owning segment with one
``searchsorted`` against the offset table, each segment runs the exact
same kernel the monolithic path ran (with local row indices), and results
are scattered back into pair order.

Bit-identity contract
---------------------
Every kernel routed through this class is **row-local**: a hash value, a
band key, an agreement count or an exact similarity depends only on the
vector(s) involved and on the hash functions, never on which rows happen
to share a matrix.  Hash functions themselves are deterministic in
``(seed, hash index)`` (the hashing layer's contract), so hashing a batch
inside its own segment produces the same signature rows a monolithic
re-hash would.  Consequently a segmented index answers every query
bit-identically to a monolithic scratch rebuild over the same rows —
enforced by ``tests/property/test_query_serving.py``.

RNG-stream authority
--------------------
The :attr:`SegmentedCollection.family` is the **master** family: it is
bound to an empty collection (it never hashes anything itself) and serves
as the single authority for hash-function state.  Per-segment families and
per-query-batch families are clones of it; a clone re-draws any
coefficients it is missing from the same seeded stream, which by the
determinism contract yields identical hash functions on every clone.
Snapshots serialise only the master's state.

Concurrency
-----------
The serving contract is *many reader threads, one writer thread*: queries may
run concurrently with each other and with one ``insert``/``delete`` stream.
Mutation points are guarded — lazy signature-store extension serialises
inside the hash families (see :meth:`CollectionSegment.ensure_hashes`), and
segment publication orders the offsets table after the segment list so any
global row a reader can observe already routes to a live segment.  Batched
reads are lock-free (per-store gather scratch is thread-local).  Stressed by
``tests/serving/test_concurrency.py``.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.hashing.base import HashFamily, get_hash_family
from repro.hashing.signatures import SignatureStore
from repro.similarity.measures import SimilarityMeasure
from repro.similarity.vectors import VectorCollection
from repro.verification.base import cross_similarities_for_pairs

__all__ = ["CollectionSegment", "SegmentedCollection"]


class CollectionSegment:
    """One sealed, immutable slice of a segmented collection.

    Segments are created by :meth:`SegmentedCollection.append` (ingest) or
    :meth:`SegmentedCollection.append_restored` (snapshot load) and are
    never mutated afterwards, except for lazily extending the signature
    store with more hash *columns* (never rows) via :meth:`ensure_hashes`.

    Restored segments are built **deferred** (``prepared``/``family``
    passed as ``None`` with the measure and master family in ``deferred``):
    the prepared view and the family clone are then derived on first access
    instead of at load time.  Both are deterministic functions of the raw
    collection and the master's state — a clone taken later re-draws the
    same hash functions by the determinism contract — so deferral changes
    *when* the O(nnz) preparation cost is paid (first query touching the
    segment), never what any kernel computes.  This is what makes a
    memory-mapped snapshot load a millisecond cold start: nothing faults
    the raw vectors in until a query actually needs them.
    """

    def __init__(
        self,
        collection: VectorCollection,
        prepared: VectorCollection | None,
        family: HashFamily | None,
        store: SignatureStore,
        offset: int,
        ids: np.ndarray,
        deferred: tuple[SimilarityMeasure, HashFamily] | None = None,
    ):
        if (prepared is None or family is None) and deferred is None:
            raise ValueError(
                "a segment without a prepared view/family clone needs the "
                "(measure, master family) pair to derive them from"
            )
        self.collection = collection
        self._prepared = prepared
        self._family = family
        self._deferred = deferred
        self._materialize_lock = threading.Lock()
        self.store = store
        self.offset = int(offset)
        self.ids = ids

    @property
    def prepared(self) -> VectorCollection:
        """The measure's prepared view of this segment (derived on first use)."""
        prepared = self._prepared
        if prepared is None:
            self._materialize()
            prepared = self._prepared
        return prepared

    @property
    def family(self) -> HashFamily:
        """This segment's hash-family clone (derived on first use)."""
        family = self._family
        if family is None:
            self._materialize()
            family = self._family
        return family

    def _materialize(self) -> None:
        """Derive the deferred prepared view and family clone, exactly once.

        Thread-safe: concurrent readers serialise on the segment's
        materialisation lock, and the family is published after the prepared
        view so a lock-free reader of either attribute always sees it fully
        built.  The clone attaches the segment's restored store, resuming
        lazy hash extension exactly where the snapshot left off.
        """
        with self._materialize_lock:
            if self._family is not None:
                return
            measure, master = self._deferred
            prepared = measure.prepare(self.collection)
            family = master.clone_for(prepared)
            family.attach_store(self.store)
            self._prepared = prepared
            self._family = family

    @property
    def n_vectors(self) -> int:
        """Number of rows this segment owns."""
        return self.collection.n_vectors

    @property
    def rows(self) -> np.ndarray:
        """The global row indices this segment owns, in order."""
        return np.arange(self.offset, self.offset + self.n_vectors, dtype=np.int64)

    def ensure_hashes(self, n_hashes: int) -> SignatureStore:
        """Extend this segment's store to hold at least ``n_hashes`` hashes.

        Extension draws hash functions through the segment's family clone;
        by the hashing layer's determinism contract the drawn functions are
        identical on every clone, so segments extended at different times
        (or after a snapshot round trip) still agree on hash function ``i``.

        Thread-safe: concurrent reader threads extending the same segment
        serialise inside :meth:`~repro.hashing.base.HashFamily.signatures`
        (and the shared simhash projection matrix serialises its own draws),
        so the store grows exactly once per missing column block.
        """
        if self.store.n_hashes < n_hashes:
            self.family.signatures(n_hashes)
        return self.store

    def __repr__(self) -> str:
        return (
            f"CollectionSegment(offset={self.offset}, n_vectors={self.n_vectors}, "
            f"n_hashes={self.store.n_hashes})"
        )


class SegmentedCollection:
    """An append-only sequence of segments behaving as one logical collection.

    Parameters
    ----------
    measure:
        The similarity measure whose ``prepare`` defines each segment's
        prepared view and whose ``lsh_family`` names the hash family.
    n_features:
        The fixed feature space every segment must live in.
    seed:
        Seed of the master hash family (ignored when ``family`` is given).
    family:
        Optionally a pre-built master family (the snapshot loader passes a
        restored one); it must be bound to an empty collection.
    family_kwargs:
        Extra constructor arguments for the master family (currently the
        simhash quantisation flag).

    Determinism contract: all mutating operations are appends; global row
    indices, once assigned, never change, and every batched read kernel
    (:meth:`band_keys_many`, :meth:`count_matches_cross`,
    :meth:`cross_similarities`) returns values bit-identical to the same
    kernel run over a monolithic concatenation of the segments.
    """

    def __init__(
        self,
        measure: SimilarityMeasure,
        n_features: int,
        seed: int = 0,
        family: HashFamily | None = None,
        family_kwargs: dict | None = None,
    ):
        self._measure = measure
        self._n_features = int(n_features)
        if family is None:
            empty = VectorCollection(
                sp.csr_matrix((0, self._n_features), dtype=np.float64)
            )
            family = get_hash_family(
                measure.lsh_family,
                measure.prepare(empty),
                seed=seed,
                **(family_kwargs or {}),
            )
        self._family = family
        self._segments: list[CollectionSegment] = []
        #: cumulative row offsets; entry s is the first global row of segment s
        self._offsets = np.zeros(1, dtype=np.int64)
        # Memoised concatenations, keyed by the segment count they were built
        # from: a reader racing an ingest can at worst publish an entry for
        # the *old* segment count, which the key check discards instead of
        # serving it as current (lock-free readers, single writer).
        self._row_nnz_cache: tuple[int, np.ndarray] | None = None
        self._ids_cache: tuple[int, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def measure(self) -> SimilarityMeasure:
        """The similarity measure shared by every segment."""
        return self._measure

    @property
    def family(self) -> HashFamily:
        """The master hash family (RNG/coefficient authority; hashes nothing)."""
        return self._family

    @property
    def segments(self) -> Sequence[CollectionSegment]:
        """The sealed segments in append order (do not mutate)."""
        return self._segments

    @property
    def n_segments(self) -> int:
        """Number of sealed segments."""
        return len(self._segments)

    @property
    def n_vectors(self) -> int:
        """Total rows across all segments."""
        return int(self._offsets[-1])

    @property
    def n_features(self) -> int:
        """The fixed feature space every segment lives in."""
        return self._n_features

    @property
    def row_nnz(self) -> np.ndarray:
        """Per-row non-zero counts of the *prepared* views, globally indexed."""
        cached = self._row_nnz_cache
        segments = self._segments[: len(self._segments)]
        if cached is not None and cached[0] == len(segments):
            return cached[1]
        if segments:
            values = np.concatenate([segment.prepared.row_nnz for segment in segments])
        else:
            values = np.zeros(0, dtype=np.int64)
        self._row_nnz_cache = (len(segments), values)
        return values

    @property
    def ids(self) -> np.ndarray:
        """External identifiers, one per global row."""
        cached = self._ids_cache
        segments = self._segments[: len(self._segments)]
        if cached is not None and cached[0] == len(segments):
            return cached[1]
        if segments:
            values = np.concatenate([np.asarray(segment.ids) for segment in segments])
        else:
            values = np.zeros(0, dtype=np.int64)
        self._ids_cache = (len(segments), values)
        return values

    @property
    def max_store_hashes(self) -> int:
        """The widest signature store across segments (0 when empty)."""
        if not self._segments:
            return 0
        return max(segment.store.n_hashes for segment in self._segments)

    def __len__(self) -> int:
        return self.n_vectors

    def __repr__(self) -> str:
        return (
            f"SegmentedCollection(n_segments={self.n_segments}, "
            f"n_vectors={self.n_vectors}, n_features={self.n_features})"
        )

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _seal(
        self,
        collection: VectorCollection,
        prepared: VectorCollection | None,
        family: HashFamily | None,
        store: SignatureStore,
        ids,
        deferred: tuple | None = None,
    ) -> CollectionSegment:
        ids = np.asarray(ids if ids is not None else collection.ids)
        if len(ids) != collection.n_vectors:
            raise ValueError(
                f"ids has length {len(ids)} but the segment has "
                f"{collection.n_vectors} rows"
            )
        segment = CollectionSegment(
            collection,
            prepared,
            family,
            store,
            offset=self.n_vectors,
            ids=ids,
            deferred=deferred,
        )
        # Publication order matters for lock-free readers: the offsets table
        # (which defines n_vectors and hence which global rows exist) is
        # replaced only after the owning segment is appended, so any global
        # row a reader can see routes to a segment that is already there.
        new_offsets = np.append(self._offsets, self.n_vectors + segment.n_vectors)
        self._segments.append(segment)
        self._offsets = new_offsets
        return segment

    def append(
        self, collection: VectorCollection, n_hashes: int, ids=None
    ) -> CollectionSegment:
        """Seal ``collection`` as a new segment hashed to ``n_hashes`` hashes.

        The cost is O(batch): the new rows are prepared and hashed in
        isolation; no existing segment is touched.  ``ids`` defaults to the
        collection's own identifiers.  Returns the sealed segment (its
        :attr:`~CollectionSegment.rows` are the assigned global indices).
        """
        if collection.n_features != self._n_features:
            raise ValueError(
                f"segment has {collection.n_features} features, collection "
                f"holds {self._n_features}"
            )
        prepared = self._measure.prepare(collection)
        family = self._family.clone_for(prepared)
        store = family.signatures(n_hashes)
        return self._seal(collection, prepared, family, store, ids)

    def append_restored(
        self, collection: VectorCollection, store: SignatureStore, ids=None
    ) -> CollectionSegment:
        """Re-attach a deserialised segment (snapshot load path).

        ``store`` already holds this segment's signature rows.  The O(nnz)
        preparation and the family clone, which adopts ``store`` and keeps
        extending it lazily from where it left off, are postponed to the
        segment's first use (see :class:`CollectionSegment`) — the reason a
        memory-mapped snapshot load need not touch the raw vectors at all.
        """
        if collection.n_features != self._n_features:
            raise ValueError(
                f"segment has {collection.n_features} features, collection "
                f"holds {self._n_features}"
            )
        return self._seal(
            collection, None, None, store, ids, deferred=(self._measure, self._family)
        )

    # ------------------------------------------------------------------ #
    # segment routing
    # ------------------------------------------------------------------ #
    def segment_of(self, rows: np.ndarray) -> np.ndarray:
        """The owning segment index for each global row."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n_vectors):
            raise IndexError(
                f"global row indices must lie in [0, {self.n_vectors})"
            )
        return np.searchsorted(self._offsets, rows, side="right") - 1

    def _grouped(self, rows: np.ndarray) -> Iterable[tuple[CollectionSegment, np.ndarray]]:
        """Yield ``(segment, positions-into-rows)`` for each involved segment.

        One stable argsort groups equal segment ids into contiguous runs, so
        the routing cost is O(P log P) in the pair count and independent of
        how many segments exist (a per-segment mask scan would be O(P x S)).
        """
        if len(rows) == 0:
            return
        segment_ids = self.segment_of(rows)
        order = np.argsort(segment_ids, kind="stable")
        boundaries = np.flatnonzero(np.diff(segment_ids[order])) + 1
        for positions in np.split(order, boundaries):
            yield self._segments[segment_ids[positions[0]]], positions

    def ensure_hashes(self, n_hashes: int) -> None:
        """Extend every segment's store to at least ``n_hashes`` hashes."""
        for segment in self._segments:
            segment.ensure_hashes(n_hashes)

    # ------------------------------------------------------------------ #
    # batched kernels (segment-routed, bit-identical to monolithic)
    # ------------------------------------------------------------------ #
    def band_keys_many(
        self, rows: np.ndarray, band: int, band_width: int
    ) -> np.ndarray:
        """Band contents for global ``rows``, stitched across segments.

        The segment-routed twin of
        :meth:`~repro.hashing.signatures.SignatureStore.band_keys_many`:
        every segment gathers its own rows with the store kernel, and the
        parts are scattered back into argument order.  Because band keys
        are row-local, the result equals a monolithic store's gather bit
        for bit — which is what lets :class:`~repro.candidates.lsh_index.BandPostings`
        build and probe over a segmented store unchanged (this object is
        duck-typed as the postings' store).
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not self._segments:
            raise ValueError(
                "cannot gather band keys from a segmented collection with no segments"
            )
        if len(rows) == 0:
            # Delegate to a segment so the empty gather has the store's real
            # shape and dtype (packed words for bit stores, ints for minhash).
            segment = self._segments[0]
            segment.ensure_hashes((band + 1) * band_width)
            return segment.store.band_keys_many(rows, band, band_width)
        result: np.ndarray | None = None
        for segment, positions in self._grouped(rows):
            segment.ensure_hashes((band + 1) * band_width)
            part = segment.store.band_keys_many(
                rows[positions] - segment.offset, band, band_width
            )
            if result is None:
                result = np.empty((len(rows), part.shape[1]), dtype=part.dtype)
            result[positions] = part
        assert result is not None
        return result

    def count_matches_cross(
        self,
        other_store: SignatureStore,
        other_rows: np.ndarray,
        rows: np.ndarray,
        start: int,
        end: int,
        round_width: int,
    ) -> np.ndarray:
        """Per-round hash agreements between ``other_store`` rows and global ``rows``.

        The segment-offset-aware form of
        :meth:`~repro.hashing.signatures.SignatureStore.count_matches_rounds`
        with ``other``: entry ``[p, r]`` counts the hashes of round ``r`` (of
        ``round_width`` hashes from ``start``) on which row ``other_rows[p]``
        of ``other_store`` (typically a query batch's store) agrees with
        global row ``rows[p]`` of this collection.  The result holds the
        first round of ``[start, end)`` and as many more as ``other_store``
        and every involved segment have *already materialised* — only the
        first round ever extends a store, and only segments that actually own
        pairs are extended, so the round-lazy hashing pattern of the BayesLSH
        verifier carries over per segment.  Counts are per-pair and
        row-local, hence independent of the segment layout.
        """
        other_rows = np.asarray(other_rows, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        groups = list(self._grouped(rows))
        depth = min(
            [other_store.n_hashes] + [segment.store.n_hashes for segment, _ in groups]
        )
        end = start + max(1, (min(depth, end) - start) // round_width) * round_width
        result = np.zeros((len(rows), (end - start) // round_width), dtype=np.int64)
        for segment, positions in groups:
            store = segment.ensure_hashes(end)
            local = rows[positions] - segment.offset
            result[positions] = store.count_matches_rounds(
                local, other_rows[positions], start, end, round_width, other_store
            )
        return result

    def cross_similarities(
        self,
        query_prepared: VectorCollection,
        query_rows: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Exact similarities between query rows and global collection rows.

        Segment-routed :func:`~repro.verification.base.cross_similarities_for_pairs`:
        each segment runs the vectorised cross kernel on its own prepared
        view with local row indices.  Exact similarities are row-local, so
        the values equal the monolithic kernel's bit for bit.
        """
        query_rows = np.asarray(query_rows, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        result = np.zeros(len(rows), dtype=np.float64)
        for segment, positions in self._grouped(rows):
            result[positions] = cross_similarities_for_pairs(
                query_prepared,
                segment.prepared,
                self._measure,
                query_rows[positions],
                rows[positions] - segment.offset,
            )
        return result

    # ------------------------------------------------------------------ #
    # consolidation
    # ------------------------------------------------------------------ #
    def to_collection(self) -> VectorCollection:
        """The segments merged into one monolithic :class:`VectorCollection`.

        This is the O(N) operation ingest no longer performs; it exists for
        interoperability (handing the corpus to the all-pairs pipelines,
        compaction) and is never on the serving hot path.
        """
        if not self._segments:
            return VectorCollection(
                sp.csr_matrix((0, self._n_features), dtype=np.float64)
            )
        if len(self._segments) == 1:
            only = self._segments[0]
            return VectorCollection(only.collection.matrix, ids=self.ids)
        matrix = sp.vstack(
            [segment.collection.matrix for segment in self._segments], format="csr"
        )
        return VectorCollection(matrix, ids=self.ids)
