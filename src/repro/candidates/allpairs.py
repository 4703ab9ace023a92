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
vectors — so the whole sweep is a few passes over the flat entry arrays,
with no per-vector Python loop:

1. *Entry order.*  One ``argsort`` of ``row * n_features + feature rank``
   lays every row's entries out in the order the sequential algorithm visits
   them (the key is unique per entry, so sort stability never matters).
2. *Indexing bound.*  Rows are grouped by length rounded up to a power of
   two, and each group's bound terms are accumulated in one zero-padded 2-D
   ``cumsum(axis=1)``.  Accumulation along an axis is sequential, so every
   prefix — and every ``>= t`` decision — is bit-identical to the scalar
   running sum.
3. *Postings and probes.*  One ``argsort`` of ``feature * n + processing
   position`` over *all* entries.  In that order the indexed entries are the
   posting lists, grouped by feature and ordered by position, and a running
   count of indexed entries gives every entry both ends of its probe: the
   count at its feature's first slot is where the feature's postings begin,
   and its own count is where "the vectors indexed before ``x``" end.
4. *Gather.*  The probe prefixes are gathered in batches of whole rows
   within a hit budget, and each batch's canonical pair keys
   ``min * n + max`` are deduplicated by
   :func:`~repro.candidates.arrayops.sorted_unique`, so every block is
   ``left < right`` in ascending order.

Candidate pairs, their order, the counters and the emitted pair set are
identical to the sequential reference
(:func:`tests.reference.allpairs_candidates_reference`), because every score
accumulation the reference performs corresponds to exactly one gathered
posting entry here (all stored weights are strictly positive).
"""

from __future__ import annotations

import numpy as np

from typing import Iterator

from repro.candidates.arrayops import (
    block_slices, budgeted_batches, hit_budget, ragged_arange, sorted_unique,
)
from repro.candidates.base import BlockStream, CandidateGenerator
from repro.similarity.vectors import VectorCollection

__all__ = ["AllPairsGenerator"]


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

    generate = CandidateGenerator.generate  # named here for benchmarks/e2e/trace.py to wrap

    def generate_blocks(
        self, collection: VectorCollection, block_size: int | None = None
    ) -> BlockStream:
        """Stream candidate pairs probe-batch by probe-batch.

        The inverted-index probe proceeds in batches of whole rows within a
        hit budget that scales with ``block_size``
        (:func:`~repro.candidates.arrayops.hit_budget`); each batch's pairs
        are deduplicated within the batch and yielded in ``block_size``
        chunks, so the peak pair-array footprint is bounded by the budget
        (or by one row's hits, where a row alone exceeds it) instead of the
        total candidate count.  A pair is found only from its
        later-processed row, so no pair appears in two blocks.
        Deterministic in the collection alone: the index-then-probe sweep
        involves no randomness.
        """
        budget = hit_budget(block_size)
        prepared = self.measure.prepare(collection).normalized()
        n_vectors = prepared.n_vectors
        if n_vectors < 2:
            metadata = {"generator": self.name, "n_score_accumulations": 0, "index_entries": 0}
            return BlockStream(iter(()), metadata)

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
        # row (the same order the sequential algorithm visits them in).  The
        # key is unique per entry, so the sort's stability never matters.
        row_nnz = prepared.row_nnz
        rows_of_entries = np.repeat(np.arange(n_vectors, dtype=np.int64), row_nnz)
        entry_order = np.argsort(rows_of_entries * n_features + feature_rank[matrix.indices])
        sorted_features = matrix.indices[entry_order].astype(np.int64)
        sorted_weights = matrix.data[entry_order]

        # ---------------- phase 1: the partial-indexing bound ----------------
        # b = cumsum(w * min(maxweight_dim(f), maxweight(x))) per row; entry
        # (x, f) is indexed once the running bound reaches the threshold.
        terms = sorted_weights * np.minimum(
            max_weight_dim[sorted_features], np.repeat(prepared.max_weights, row_nnz)
        )
        indexed = _running_sum_reaches(terms, matrix.indptr, threshold)

        # ---------------- phase 2: postings and probe prefixes ---------------
        # Every entry sorted by (feature, processing position): the indexed
        # ones, in this order, are the posting lists.  ``before`` counts the
        # indexed slots ahead of each slot, so the postings visible to entry
        # (x, f) — f's postings of vectors processed before x — run from the
        # count at f's first slot to x's own count.
        by_feature = np.argsort(sorted_features * n_vectors + position[rows_of_entries])
        indexed_by_feature = indexed[by_feature]
        posting_row = rows_of_entries[by_feature[indexed_by_feature]]
        before = np.cumsum(indexed_by_feature) - indexed_by_feature
        features_by_feature = sorted_features[by_feature]
        first_slot = np.ones(len(by_feature), dtype=bool)
        np.not_equal(features_by_feature[1:], features_by_feature[:-1], out=first_slot[1:])
        # ``before`` never decreases, so the running maximum of its values at
        # first slots is the value at each slot's own first slot.
        group_start = np.maximum.accumulate(np.where(first_slot, before, 0))
        prefix_starts = np.empty_like(before)
        prefix_starts[by_feature] = group_start
        hit_counts = np.empty_like(before)
        hit_counts[by_feature] = before - group_start

        metadata = {
            "generator": self.name,
            "n_score_accumulations": int(hit_counts.sum()),
            "index_entries": len(posting_row),
        }

        # ---------------- phase 3: candidate generation ----------------------
        # Gathered hits are materialised in batches of whole rows within the
        # hit budget and deduplicated on canonical keys ``min * n + max``.  A
        # pair is only ever found from its later-processed row, so
        # canonicalising before deduplication merges nothing extra, no pair
        # reaches two batches, and the blocks come out as ``left < right``
        # ascending — one batch is already the sorted set from_arrays would
        # build.
        def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            for entry_start, entry_end in budgeted_batches(hit_counts, budget, rows_of_entries):
                batch = slice(entry_start, entry_end)
                gathered = ragged_arange(prefix_starts[batch], hit_counts[batch])
                if not len(gathered):
                    continue
                ys = posting_row[gathered]
                xs = np.repeat(rows_of_entries[batch], hit_counts[batch])
                pair_keys = sorted_unique(
                    np.minimum(xs, ys) * n_vectors + np.maximum(xs, ys)
                )
                for chunk in block_slices(len(pair_keys), block_size):
                    yield np.divmod(pair_keys[chunk], n_vectors)

        return BlockStream(blocks(), metadata)


def _running_sum_reaches(terms: np.ndarray, indptr: np.ndarray, threshold: float) -> np.ndarray:
    """``np.cumsum(terms[row]) >= threshold`` for every CSR row, one pass per width class.

    Rows are grouped by their length rounded up to a power of two, so no row
    is padded to more than twice its length (one grid for every row would
    pad each to the longest hub row).  A class's terms are laid out
    zero-padded in a 2-D grid and accumulated with one ``cumsum(axis=1)``.
    Accumulation along an axis is sequential, so every prefix is
    bit-identical to the row's own ``np.cumsum``, and the padding only ever
    follows a row's real entries.
    """
    starts = indptr[:-1].astype(np.int64)
    lengths = np.diff(indptr).astype(np.int64)
    reached = np.zeros(len(terms), dtype=bool)
    rows = np.flatnonzero(lengths)
    # frexp's exponent of ``length - 1`` is its bit length: 2**e >= length
    widths = np.frexp(lengths[rows] - 1.0)[1]
    for exponent in np.flatnonzero(np.bincount(widths)):
        class_rows = rows[widths == exponent]
        width = 1 << int(exponent)
        class_lengths = lengths[class_rows]
        entries = ragged_arange(starts[class_rows], class_lengths)
        slots = entries + np.repeat(
            np.arange(len(class_rows), dtype=np.int64) * width - starts[class_rows], class_lengths
        )
        grid = np.zeros(len(class_rows) * width, dtype=terms.dtype)
        grid[slots] = terms[entries]
        running = np.cumsum(grid.reshape(len(class_rows), width), axis=1).ravel()
        reached[entries] = running[slots] >= threshold
    return reached
