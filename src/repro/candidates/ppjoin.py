"""PPJoin / PPJoin+ style candidate generation (Xiao et al., WWW 2008).

PPJoin+ is an exact set-similarity join for **binary** vectors; the paper uses
it as a baseline for the binary Jaccard and binary cosine experiments.  The
algorithm's filters are reproduced here:

* **prefix filter** — records are sorted by a global token ordering (rarest
  token first); two records can only reach the similarity threshold if their
  *prefixes* (first ``|x| - ceil(alpha) + 1`` tokens, where ``alpha`` is the
  minimum required overlap) share a token;
* **length filter** — for Jaccard, ``t * |x| <= |y| <= |x| / t``; for binary
  cosine, ``t^2 * |x| <= |y| <= |x| / t^2``;
* **positional filter** — when a prefix token matches at positions ``p`` in
  ``x`` and ``q`` in ``y``, the overlap is at most
  ``1 + min(|x| - p - 1, |y| - q - 1)``, which must still reach ``alpha``.

The suffix filter of PPJoin+ (binary probing of the suffixes) is implemented
in a simplified single-level form and can be switched off to obtain plain
PPJoin behaviour.

As with the other generators, only the candidate pairs are produced here;
pair them with :class:`~repro.verification.exact.ExactVerifier` to obtain the
exact PPJoin+ baseline the paper times.

Array-based implementation
--------------------------
A record's probing prefix depends only on the record itself, so all prefix
entries are computed up front and laid out as a flat posting array sorted by
``(token, processing position)``; the sequential "only records processed
before ``x``" semantics is one ``searchsorted`` per probe.  For each record
the matching posting entries ("hits") are gathered into parallel arrays and
the length/positional/suffix filters are evaluated vectorised.  The
sequential algorithm stops examining a candidate once it is accepted, so the
filter counters are reproduced by finding each candidate's *first* passing
hit and discounting hits after it — pair set and counters are identical to
the scalar reference (:func:`tests.reference.ppjoin_candidates_reference`).
"""

from __future__ import annotations

import math

import numpy as np

from typing import Iterator

from repro.candidates.arrayops import block_slices, budgeted_batches, hit_budget, ragged_arange
from repro.candidates.base import BlockStream, CandidateGenerator
from repro.similarity.vectors import VectorCollection

__all__ = ["PPJoinGenerator"]


def _minimum_overlap(measure_name: str, threshold: float, size_x: int, size_y: int) -> float:
    """Minimum overlap ``alpha`` two sets need to reach the similarity threshold."""
    if measure_name == "jaccard":
        return threshold / (1.0 + threshold) * (size_x + size_y)
    # binary cosine
    return threshold * math.sqrt(size_x * size_y)


class PPJoinGenerator(CandidateGenerator):
    """Prefix-filtering candidate generation for binary vectors.

    Parameters
    ----------
    measure:
        ``"jaccard"`` or ``"binary_cosine"`` — PPJoin+ is defined for sets.
    threshold:
        Similarity threshold ``t``.
    use_positional_filter:
        Apply the positional filter (PPJoin).  Default True.
    use_suffix_filter:
        Apply the simplified suffix filter (PPJoin+).  Default True.
    """

    name = "ppjoin"

    def __init__(
        self,
        measure="jaccard",
        threshold: float = 0.5,
        use_positional_filter: bool = True,
        use_suffix_filter: bool = True,
    ):
        super().__init__(measure, threshold)
        if self.measure.name not in ("jaccard", "binary_cosine"):
            raise ValueError(
                f"PPJoin supports jaccard and binary_cosine only; got {self.measure.name!r}"
            )
        self._use_positional_filter = bool(use_positional_filter)
        self._use_suffix_filter = bool(use_suffix_filter)

    def generate_blocks(
        self, collection: VectorCollection, block_size: int | None = None
    ) -> BlockStream:
        """Stream candidate pairs probe-batch by probe-batch.

        Probe batches hold whole records (the accept-skip accounting needs a
        record's hits together) within a hit budget that scales with
        ``block_size`` (:func:`~repro.candidates.arrayops.hit_budget`);
        accepted pairs are yielded in ``block_size`` chunks.  A pair is
        accepted only while probing its later-processed record, so no pair
        appears in two blocks.  Deterministic in the collection alone — no
        randomness is involved, and the accept-skip accounting makes the
        counters exact.
        """
        budget = hit_budget(block_size)
        prepared = self.measure.prepare(collection)
        n_vectors = prepared.n_vectors
        if n_vectors < 2:
            return BlockStream(iter(()), {"generator": self.name})

        # Global token order: increasing document frequency (rarest first).
        binary = prepared.binarized().matrix
        token_counts = np.asarray(binary.sum(axis=0)).ravel()
        token_rank = np.argsort(np.argsort(token_counts, kind="stable"), kind="stable")
        n_features = prepared.n_features
        #: sentinel larger than every token rank (for "no next token")
        no_token = np.int64(n_features)

        # Flat records: ranked tokens sorted ascending inside each row.
        matrix = prepared.matrix
        indptr = matrix.indptr
        row_nnz = prepared.row_nnz
        sizes = row_nnz.astype(np.int64)
        rows_of_entries = np.repeat(np.arange(n_vectors, dtype=np.int64), row_nnz)
        entry_order = np.lexsort((token_rank[matrix.indices], rows_of_entries))
        tokens = token_rank[matrix.indices][entry_order].astype(np.int64)

        # Record processing order: by size (stable), as in the reference.
        processing_order = np.argsort(sizes, kind="stable")
        processing_position = np.empty(n_vectors, dtype=np.int64)
        processing_position[processing_order] = np.arange(n_vectors)

        # Per-record prefix lengths (empty records produce nothing).
        t = self._threshold
        if self.measure.name == "jaccard":
            min_overlap_self = np.ceil(t * sizes)
        else:
            min_overlap_self = np.ceil(t * t * sizes)
        prefix_lengths = np.maximum(1, sizes - min_overlap_self.astype(np.int64) + 1)
        prefix_lengths[sizes == 0] = 0

        # Per-entry helpers for the suffix filter: the token after each
        # position, and each record's last token.
        total = len(tokens)
        local_positions = (
            np.arange(total, dtype=np.int64) - np.repeat(indptr[:-1], row_nnz)
        )
        next_tokens = np.full(total, no_token, dtype=np.int64)
        has_next = local_positions + 1 < sizes[rows_of_entries]
        next_tokens[has_next] = tokens[np.flatnonzero(has_next) + 1]
        last_tokens = np.full(n_vectors, no_token, dtype=np.int64)
        nonempty = sizes > 0
        last_tokens[nonempty] = tokens[indptr[1:][nonempty] - 1]

        # Prefix postings sorted by (token, processing position): the entries
        # visible to record x probing token tk are the prefix of tk's posting
        # group below x's processing position.
        in_prefix = local_positions < prefix_lengths[rows_of_entries]
        prefix_entries = np.flatnonzero(in_prefix)
        entry_tokens = tokens[prefix_entries]
        entry_rows = rows_of_entries[prefix_entries]
        posting_order = np.lexsort(
            (processing_position[entry_rows], entry_tokens)
        )
        posting_token = entry_tokens[posting_order]
        posting_row = entry_rows[posting_order]
        posting_local = local_positions[prefix_entries][posting_order]
        posting_next = next_tokens[prefix_entries][posting_order]
        posting_position = processing_position[entry_rows][posting_order]
        token_offsets = np.searchsorted(
            posting_token, np.arange(n_features + 1, dtype=np.int64)
        )
        posting_key = posting_token * n_vectors + posting_position

        use_positional = self._use_positional_filter
        use_suffix = self._use_suffix_filter
        measure_name = self.measure.name

        # One batched probe over every prefix entry.  Entries are in row-major
        # order, so each record's hits stay contiguous and ordered by probing
        # position (major) and posting order (minor) — the reference's
        # examination order, which the accept-skip accounting below relies on.
        probe_starts = token_offsets[entry_tokens]
        probe_ends = np.searchsorted(
            posting_key, entry_tokens * n_vectors + processing_position[entry_rows]
        )
        hit_counts = probe_ends - probe_starts
        entry_local = local_positions[prefix_entries]

        metadata = {
            "generator": self.name,
            "n_prefix_collisions": 0,
            "n_filtered_positional": 0,
            "n_filtered_suffix": 0,
        }

        def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            # Batch on record boundaries (a record's hits must be examined
            # together) with a bound on gathered hits per batch.
            for entry_start, entry_end in budgeted_batches(hit_counts, budget, entry_rows):
                batch = slice(entry_start, entry_end)
                gathered = ragged_arange(probe_starts[batch], hit_counts[batch])
                n_hits = len(gathered)
                if n_hits == 0:
                    continue

                x = np.repeat(entry_rows[batch], hit_counts[batch])
                position_x = np.repeat(entry_local[batch], hit_counts[batch])
                y = posting_row[gathered]
                position_y = posting_local[gathered]
                size_x = sizes[x]
                size_y = sizes[y]

                # Length filter (y was indexed earlier so size_y <= size_x; it
                # must still be large enough).
                if measure_name == "jaccard":
                    lower = t * size_x
                    alpha = t / (1.0 + t) * (size_x + size_y)
                else:
                    lower = t * t * size_x
                    alpha = t * np.sqrt((size_x * size_y).astype(np.float64))
                passes_length = size_y >= lower
                if use_positional:
                    overlap_bound = 1 + np.minimum(
                        size_x - position_x - 1, size_y - position_y - 1
                    )
                    passes_positional = overlap_bound >= alpha
                else:
                    passes_positional = np.ones(n_hits, dtype=bool)
                if use_suffix:
                    suffix_x_lengths = size_x - position_x - 1
                    suffix_y_lengths = size_y - position_y - 1
                    x_first = next_tokens[indptr[x] + position_x]
                    x_last = last_tokens[x]
                    y_first = posting_next[gathered]
                    y_last = last_tokens[y]
                    disjoint = (x_last < y_first) | (y_last < x_first)
                    suffix_bound = np.where(
                        (suffix_x_lengths == 0) | (suffix_y_lengths == 0),
                        0,
                        np.where(
                            disjoint, 0, np.minimum(suffix_x_lengths, suffix_y_lengths)
                        ),
                    )
                    passes_suffix = 1 + suffix_bound >= alpha
                else:
                    passes_suffix = np.ones(n_hits, dtype=bool)

                passes_all = passes_length & passes_positional & passes_suffix

                # The reference stops examining y once (x, y) is accepted:
                # only hits up to (and including) the pair's first passing hit
                # count towards the counters; later hits are skipped.
                # Correctness relies only on batch-global hit indices
                # preserving the reference's examination order *within each
                # record's contiguous hit range* (probing position major,
                # posting order minor) — a pair's hits may be interleaved
                # with other pairs' hits, and the first_pass/counted
                # comparison never assumes otherwise.
                pair_keys = x * n_vectors + y
                unique_pairs, inverse = np.unique(pair_keys, return_inverse=True)
                first_pass = np.full(len(unique_pairs), n_hits, dtype=np.int64)
                passing_hits = np.flatnonzero(passes_all)
                if len(passing_hits):
                    np.minimum.at(first_pass, inverse[passing_hits], passing_hits)
                counted = np.arange(n_hits, dtype=np.int64) <= first_pass[inverse]
                examined = passes_length & counted
                metadata["n_prefix_collisions"] += int(np.count_nonzero(examined))
                if use_positional:
                    metadata["n_filtered_positional"] += int(
                        np.count_nonzero(examined & ~passes_positional)
                    )
                if use_suffix:
                    metadata["n_filtered_suffix"] += int(
                        np.count_nonzero(examined & passes_positional & ~passes_suffix)
                    )

                accepted = unique_pairs[first_pass < n_hits]
                for chunk in block_slices(len(accepted), block_size):
                    yield np.divmod(accepted[chunk], n_vectors)

        return BlockStream(blocks(), metadata)
