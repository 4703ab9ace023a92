"""AllPairs candidate generation (Bayardo, Ma & Srikant, WWW 2007).

AllPairs is an exact inverted-index algorithm for cosine similarity over
non-negative vectors.  The key ideas reproduced here:

* vectors are L2-normalised and processed in **decreasing order of their
  maximum weight**;
* features (dimensions) are processed in **decreasing order of density**
  (number of vectors containing the feature), which concentrates the
  "unindexed" portion of each vector on the densest dimensions and keeps the
  inverted index small;
* while indexing a vector, features are added to the inverted index only once
  the accumulated upper bound ``b = sum x[f] * min(maxweight_dim(f),
  maxweight(x))`` reaches the threshold — the prefix of the vector before
  that point can never by itself push a similarity above ``t`` against
  *later* (smaller max-weight) vectors, so it is left unindexed;
* candidate generation for a new vector scans the inverted lists of its
  features, accumulating partial dot products; every vector with a non-zero
  accumulated score becomes a candidate.

The partial-indexing bound is the part of AllPairs that matters for this
reproduction: it is what keeps the candidate set complete (no true pair is
missed) while still producing the large false-positive counts the paper
reports (e.g. 5e9 candidates versus a 2.2e5-pair result set on
WikiWords100K).  The further Find-Matches heuristics of All-Pairs-1/2
(remscore, minsize) only shave constants off candidate generation and are
not reproduced.  Combined with
:class:`~repro.verification.exact.ExactVerifier` this generator gives the
exact AllPairs baseline; combined with BayesLSH it gives ``AP+BayesLSH``.

Only the cosine measures are supported — the algorithm's bounds rely on the
dot-product form of the similarity.  For binary cosine the binary view of the
data is used, matching the paper's binary-cosine experiments.

Array-based implementation
--------------------------
The classic formulation interleaves probing and indexing in one sequential
pass with per-feature Python lists.  The implementation here exploits the
fact that whether vector ``x`` indexes feature ``f`` depends only on ``x``
itself (its own cumulative bound) and global statistics — never on the other
vectors.  All index entries are therefore computed up front (one vectorised
cumulative-weight pass per vector), laid out as a flat posting array sorted
by ``(feature, processing position)``, and the sequential "only vectors
processed before ``x``" semantics is recovered by slicing each feature's
posting list at ``x``'s processing position with one ``searchsorted``.
Per-vector work is then a handful of NumPy calls; candidate pairs, counters
and the emitted pair set are identical to the sequential reference
(:func:`repro.reference.allpairs_candidates_reference`), because every score
accumulation the reference performs corresponds to exactly one gathered
posting entry here (all stored weights are strictly positive).
"""

from __future__ import annotations

import numpy as np

from typing import Iterator

from repro.candidates.arrayops import budgeted_batches, ragged_arange, sorted_unique
from repro.candidates.base import (
    UNBOUNDED_BLOCK,
    BlockStream,
    CandidateGenerator,
    CandidateSet,
)
from repro.similarity.vectors import VectorCollection

__all__ = ["AllPairsGenerator"]

#: cap on gathered posting hits materialised per probe batch
_HIT_BATCH = 4_000_000


class AllPairsGenerator(CandidateGenerator):
    """Inverted-index candidate generation with AllPairs' indexing bounds.

    Parameters
    ----------
    measure:
        ``"cosine"`` or ``"binary_cosine"`` (Jaccard search uses PPJoin or
        LSH in the paper).
    threshold:
        Cosine similarity threshold ``t``.
    """

    name = "allpairs"

    def __init__(self, measure="cosine", threshold: float = 0.5):
        super().__init__(measure, threshold)
        if self.measure.name not in ("cosine", "binary_cosine"):
            raise ValueError(
                "AllPairs supports cosine and binary_cosine only; "
                f"got {self.measure.name!r}"
            )

    def generate_blocks(self, collection: VectorCollection, block_size: int) -> BlockStream:
        """Stream candidate pairs probe-batch by probe-batch.

        The inverted-index probe over all entries proceeds in hit-budgeted
        batches (the budget scales with ``block_size``); each batch's pairs
        are deduplicated within the batch and yielded in ``block_size``
        chunks, so the peak pair-array footprint is bounded by the batch
        budget instead of the total candidate count.
        """
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        hit_budget = int(min(_HIT_BATCH, max(block_size, 4096)))
        return self._stream(collection, hit_budget, block_size)

    def generate(self, collection: VectorCollection) -> CandidateSet:
        """All candidate pairs at once (the streamed path with one unbounded block).

        Deterministic in the collection alone: the index-then-probe sweep
        involves no randomness, so repeated calls yield identical pairs,
        counts and metadata.
        """
        return CandidateSet.from_stream(
            self._stream(collection, _HIT_BATCH, UNBOUNDED_BLOCK)
        )

    def _stream(
        self, collection: VectorCollection, hit_budget: int, block_size: int
    ) -> BlockStream:
        prepared = self.measure.prepare(collection).normalized()
        n_vectors = prepared.n_vectors
        if n_vectors < 2:
            return BlockStream(iter(()), {"generator": self.name})

        matrix = prepared.matrix
        n_features = prepared.n_features
        threshold = self._threshold

        # Feature order: decreasing density.  feature_rank[f] = position in order.
        feature_counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
        feature_order = np.argsort(-feature_counts, kind="stable")
        feature_rank = np.empty(n_features, dtype=np.int64)
        feature_rank[feature_order] = np.arange(n_features)

        # Per-dimension maximum weight over the whole dataset.
        max_weight_dim = np.zeros(n_features, dtype=np.float64)
        coo = matrix.tocoo()
        np.maximum.at(max_weight_dim, coo.col, coo.data)

        # Vector order: decreasing maximum weight; position = processing index.
        vector_order = np.argsort(-prepared.max_weights, kind="stable")
        position = np.empty(n_vectors, dtype=np.int64)
        position[vector_order] = np.arange(n_vectors)

        # Flat row-major entry layout with features rank-sorted inside each
        # row (the same order the sequential algorithm visits them in).
        indptr = matrix.indptr
        row_nnz = prepared.row_nnz
        rows_of_entries = np.repeat(np.arange(n_vectors, dtype=np.int64), row_nnz)
        entry_order = np.lexsort((feature_rank[matrix.indices], rows_of_entries))
        sorted_features = matrix.indices[entry_order].astype(np.int64)
        sorted_weights = matrix.data[entry_order]

        # ---------------- phase 1: the partial-indexing bound ----------------
        # b = cumsum(w * min(maxweight_dim(f), maxweight(x))) per row; entry
        # (x, f) is indexed once the running bound reaches the threshold.
        # np.cumsum accumulates left to right, so each row's bound sequence is
        # bit-identical to the sequential scalar accumulation.
        terms = sorted_weights * np.minimum(
            max_weight_dim[sorted_features], np.repeat(prepared.max_weights, row_nnz)
        )
        indexed_flat = np.zeros(len(sorted_features), dtype=bool)
        for x in range(n_vectors):
            start, end = indptr[x], indptr[x + 1]
            if end > start:
                indexed_flat[start:end] = np.cumsum(terms[start:end]) >= threshold

        # ---------------- phase 2: posting lists ----------------------------
        # Flat inverted index over the indexed entries, grouped by feature and
        # ordered by processing position inside each group, so "the vectors
        # indexed before x" is the prefix of a feature's postings below
        # position[x].
        indexed_positions = np.flatnonzero(indexed_flat)
        posting_feature = sorted_features[indexed_positions]
        posting_row = rows_of_entries[indexed_positions]
        posting_position = position[posting_row]
        posting_order = np.lexsort((posting_position, posting_feature))
        posting_row = posting_row[posting_order]
        posting_feature = posting_feature[posting_order]
        posting_position = posting_position[posting_order]
        feature_offsets = np.searchsorted(
            posting_feature, np.arange(n_features + 1, dtype=np.int64)
        )
        # Composite key (feature, position) for one-shot prefix boundaries.
        posting_key = posting_feature * n_vectors + posting_position

        # ---------------- phase 3: candidate generation ----------------------
        # One batched probe over every entry: the postings visible to entry
        # (x, f) are the prefix of f's posting group below x's processing
        # position, located with a single searchsorted over all entries.
        # Gathered hits are materialised in budget-bounded batches; duplicate
        # (x, y) pairs across batches are removed by from_arrays.
        prefix_starts = feature_offsets[sorted_features]
        prefix_ends = np.searchsorted(
            posting_key, sorted_features * n_vectors + position[rows_of_entries]
        )
        hit_counts = prefix_ends - prefix_starts
        n_score_accumulations = int(hit_counts.sum())
        metadata = {
            "generator": self.name,
            "n_score_accumulations": n_score_accumulations,
            "index_entries": int(len(indexed_positions)),
        }

        def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            for entry_start, entry_end in budgeted_batches(hit_counts, hit_budget):
                batch = slice(entry_start, entry_end)
                gathered = ragged_arange(prefix_starts[batch], hit_counts[batch])
                if not len(gathered):
                    continue
                ys = posting_row[gathered]
                xs = np.repeat(rows_of_entries[batch], hit_counts[batch])
                pair_keys = sorted_unique(xs * n_vectors + ys)
                for start in range(0, len(pair_keys), block_size):
                    chunk = pair_keys[start : start + block_size]
                    yield chunk // n_vectors, chunk % n_vectors

        return BlockStream(blocks(), metadata)
