"""Query-centric similarity search: a persistent, updatable serving index.

The paper focuses on the *all-pairs* problem, but its introduction frames the
general similarity-search problem ("given a query q, retrieve all objects
with s(x, q) > t"), and BayesLSH applies to that setting unchanged: the
candidate generation index is built once over the collection, and each query
is verified against its candidates with the same Bayesian pruning.

:class:`QueryIndex` packages that workflow as a serving subsystem:

* the collection lives in a **segmented store**
  (:class:`~repro.serving.segments.SegmentedCollection`): ``insert(vectors)``
  seals the batch as a new segment — prepared, hashed and indexed in
  isolation, O(batch) — instead of re-concatenating and re-preparing the
  whole corpus; candidate generation, verification and exact scoring route
  global rows to their owning segments and run the same kernels with local
  indices, bit-identically to a monolithic rebuild;
* ``query_many(matrix, ...)`` / ``top_k_many(matrix, k)`` serve a *batch* of
  queries: the whole batch is hashed in one kernel call, band probes are
  unioned array-wise, and all (query, candidate) pairs are verified together
  through the vectorised cross-store kernels — bit-identical to calling the
  singular ``query(vector, ...)`` / ``top_k(vector, k)`` per row;
* ``n_workers > 1`` additionally opens a worker pool
  (:class:`~repro.search.executor.ServingPool`) for the duration of the
  call and shards exact scoring across it — bit-identical to the serial
  batch for every worker count, with the parent as sole hash/RNG
  authority and the only place bands are probed and hash agreements are
  counted;
  ``start_pool`` keeps the same pool attached across calls instead (see
  ``docs/serving.md`` for when the fork overhead pays off);
* under ``verification="bayes"`` a ``query`` runs the hybrid: candidates are
  pruned and estimated over one hash block, and a pair still undecided then
  is scored exactly (``QueryHits.exact`` says which values are which);
* ``top_k_many(..., rank_by="estimate")`` runs Algorithm 1 instead: it never
  touches the raw vectors and ranks survivors by the posterior MAP estimates
  computed during pruning — the estimate-driven path trades exact scores for
  latency (see ``docs/serving.md`` for the measured trade-off);
* ``delete(rows)`` tombstones rows (filtered from every result immediately,
  dropped from the band postings when their run next merges);
* ``save(path)`` / ``load(path)`` round-trip the entire index — segments,
  hash-family state (drawn coefficients/projections *and* RNG stream
  position), per-segment signature stores, band postings and tombstones —
  through a versioned flat-layout snapshot (:mod:`repro.serving.snapshot`),
  bit-identically: a loaded index answers every query exactly like the
  instance that saved it.  ``save(path, compact=True)`` additionally merges
  all segments into one and drops tombstoned rows (renumbering the survivors
  while preserving their external ids).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from repro.candidates.arrayops import sorted_unique
from repro.candidates.lsh_index import BandPostings, signatures_for_false_negative_rate
from repro.core.params import BayesLSHParams
from repro.core.posteriors import make_posterior
from repro.core.rounds import ESTIMATE_BUDGET, RoundTables
from repro.search.engine import as_collection
from repro.search.executor import ServingPool, ServingTask, serial_verify_bayes
from repro.search.results import QueryHits, ScoredPair
from repro.serving.segments import SegmentedCollection
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection

__all__ = ["QueryIndex"]


class QueryIndex:
    """An LSH index over a collection supporting threshold and top-k queries.

    Parameters
    ----------
    data:
        The collection to index (anything ``as_collection`` accepts).
    measure:
        ``"cosine"``, ``"jaccard"`` or ``"binary_cosine"``.
    threshold:
        Default similarity threshold for queries (also controls how many
        signatures the index builds for the target recall).
    false_negative_rate:
        Target probability of missing an object exactly at the threshold.
    signature_width:
        Hashes per signature band; defaults to the measure's standard width.
    verification:
        ``"bayes"`` (default) verifies candidates with BayesLSH pruning and
        returns similarity estimates, or exact values for the pairs the
        terminal rule scored; ``"exact"`` computes exact similarities for
        every candidate.
    epsilon, delta, gamma, k, max_hashes, on_budget:
        BayesLSH parameters used when ``verification="bayes"`` (see
        :class:`~repro.core.params.BayesLSHParams`); ``on_budget`` is the
        terminal rule of ``query``/``query_many`` — ``rank_by="estimate"``
        always runs ``"estimate"``.
    seed:
        Seed for the hash family.

    Determinism contract: for a fixed ``(seed, measure, parameters)``, query
    answers are a pure function of the *logical* collection — independent of
    the batch size queries arrive in, of how the corpus was segmented by
    ``insert`` history, and of ``save``/``load`` round trips.
    """

    def __init__(
        self,
        data,
        measure: str = "cosine",
        threshold: float = 0.7,
        false_negative_rate: float = 0.03,
        signature_width: int | None = None,
        verification: str = "bayes",
        epsilon: float = 0.03,
        delta: float = 0.05,
        gamma: float = 0.03,
        k: int = 32,
        max_hashes: int | None = None,
        on_budget: str = "exact",
        seed: int = 0,
    ):
        if verification not in ("bayes", "exact"):
            raise ValueError(f"verification must be 'bayes' or 'exact', got {verification!r}")
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        self._measure = get_measure(measure)
        initial = as_collection(data)
        self._threshold = float(threshold)
        self._false_negative_rate = float(false_negative_rate)
        self._verification = verification
        self._params = BayesLSHParams(
            threshold, epsilon, delta, gamma, k, max_hashes, on_budget=on_budget
        )
        self._seed = int(seed)
        self._segments = SegmentedCollection(
            self._measure, initial.n_features, seed=self._seed
        )
        self._family = self._segments.family

        if signature_width is None:
            signature_width = 8 if self._measure.lsh_family == "simhash" else 4
        self._signature_width = int(signature_width)
        collision = (
            self._threshold
            if self._measure.lsh_family == "minhash"
            else self._family.collision_similarity(self._threshold)
        )
        self._n_signatures = signatures_for_false_negative_rate(
            collision, self._signature_width, false_negative_rate
        )

        first = self._segments.append(initial, self._banding_hashes)
        self._next_default_id = self._initial_next_default_id()
        self._deleted = np.zeros(first.n_vectors, dtype=bool)
        non_empty = np.flatnonzero(first.prepared.row_nnz > 0)
        self._postings = BandPostings.build(
            self._segments, non_empty, self._n_signatures, self._signature_width
        )
        self._wire_tables()
        self._update_lock = threading.Lock()
        self._epoch = 0
        self._resident = None
        self._wire_durability()

    def _wire_durability(self) -> None:
        """Initialise the (detached) write-ahead-log and replay state."""
        self._wal = None
        self._wal_position: int | None = None
        self._mutations = 0
        self._replaying = False
        self._replay_counters = {
            "replayed_records": 0,
            "replayed_inserts": 0,
            "replayed_deletes": 0,
            "last_replayed_seq": 0,
        }

    @property
    def _banding_hashes(self) -> int:
        """Hashes every segment is materialised to at ingest (the band probe span)."""
        return self._n_signatures * self._signature_width

    def _initial_next_default_id(self) -> int:
        """First default id :meth:`insert` may assign, derived from current ids.

        Computed once per build/load (an O(N) scan) and maintained as a
        running counter afterwards, so default-id inserts stay O(batch).
        Integer ids advance the counter past their maximum; non-integer ids
        fall back to the row-count floor (the historical row-index default).
        """
        existing = self._segments.ids
        if len(existing) and np.issubdtype(np.asarray(existing).dtype, np.integer):
            return max(int(existing.max()) + 1, self._segments.n_vectors)
        return self._segments.n_vectors

    def _wire_tables(self, defer: bool = False) -> None:
        """(Re)initialise the BayesLSH decision machinery shared across queries.

        The posterior, the min-matches pruning table and the concentration
        cache are deterministic functions of the index parameters, so
        snapshots never serialise them.  With ``defer=True`` (the snapshot
        load path) even the computation is postponed to the first query —
        the tables cost tens of milliseconds regardless of corpus size,
        which would otherwise dominate a memory-mapped cold start.
        """
        self._tables_lock = threading.Lock()
        self._tables: RoundTables | None = None
        if not defer:
            self._round_tables()

    def _round_tables(self) -> RoundTables:
        """The decision tables, materialised exactly once (thread-safe)."""
        tables = self._tables
        if tables is None:
            with self._tables_lock:
                if self._tables is None:
                    # one set of tables serves both terminal rules, built to
                    # the deeper of their budgets (rank_by="estimate")
                    self._tables = RoundTables(
                        make_posterior(self._measure.name), self._params, depth=ESTIMATE_BUDGET
                    )
                tables = self._tables
        return tables

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_indexed(self) -> int:
        """Number of vector slots in the index (including tombstoned rows)."""
        return self._segments.n_vectors

    @property
    def n_alive(self) -> int:
        """Number of indexed vectors that have not been deleted."""
        return int(self._segments.n_vectors - self._deleted.sum())

    @property
    def n_deleted(self) -> int:
        """Number of tombstoned rows still occupying index slots."""
        return int(self._deleted.sum())

    @property
    def n_segments(self) -> int:
        """Number of sealed collection segments (1 after a build or compaction)."""
        return self._segments.n_segments

    @property
    def ids(self) -> np.ndarray:
        """External identifiers, one per indexed row (stable under compaction)."""
        return self._segments.ids

    @property
    def n_signatures(self) -> int:
        """Number of LSH bands (signatures) the candidate index probes."""
        return self._n_signatures

    @property
    def signature_width(self) -> int:
        """Hashes concatenated per band."""
        return self._signature_width

    @property
    def verification(self) -> str:
        """The verification mode: ``"bayes"`` or ``"exact"``."""
        return self._verification

    @property
    def threshold(self) -> float:
        """The index-level similarity threshold."""
        return self._threshold

    def as_collection(self) -> VectorCollection:
        """The indexed corpus merged into one monolithic collection.

        Tombstoned rows are *included* (they still occupy index slots); this
        is the O(N) consolidation ingest avoids, intended for handing the
        corpus to the all-pairs pipelines or for tests that rebuild an
        equivalent index from scratch.
        """
        return self._segments.to_collection()

    # ------------------------------------------------------------------ #
    # query coercion
    # ------------------------------------------------------------------ #
    def _queries_collection(self, queries) -> VectorCollection:
        """Coerce a query batch into a prepared collection in the index's space."""
        collection = as_collection(queries, n_features=self._segments.n_features)
        return self._measure.prepare(collection)

    def _single_query_batch(self, vector):
        """Wrap one query vector as a 1-row batch for the batched kernels."""
        if isinstance(vector, (set, frozenset, dict)):
            return [vector]
        if sp.issparse(vector):
            return vector
        if (
            isinstance(vector, (list, tuple))
            and vector
            and isinstance(vector[0], (int, np.integer))
        ):
            return [vector]
        return np.atleast_2d(np.asarray(vector, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # candidate generation
    # ------------------------------------------------------------------ #
    def _hash_queries(self, query_prepared: VectorCollection):
        """Hash the non-empty query rows once, for probing and the first rounds.

        Returns ``(query rows, family, store)``; the store holds the banding
        hashes and the first hash block, so neither the probe nor the rounds
        of a ``query`` hash again.  The family is the batch's clone of the
        master (``rank_by="estimate"`` later extends it — and hence the same
        hash stream — past that).  Empty query vectors share no features with
        anything and their hashes are degenerate, so only non-empty rows
        participate.
        """
        query_rows = np.flatnonzero(query_prepared.row_nnz > 0)
        if len(query_rows) == 0:
            return query_rows, None, None
        query_family = self._family.clone_for(query_prepared)
        n_hashes = self._banding_hashes
        if self._verification == "bayes":
            n_hashes = max(n_hashes, self._round_tables().posterior.exact_budget)
        query_store = query_family.signatures(n_hashes)
        return query_rows, query_family, query_store

    def _fork_pool(self, n_workers: int, round_timeout) -> ServingPool:
        """Fork a :class:`~repro.search.executor.ServingPool` on the current state.

        Holds the update lock so a concurrent ``insert`` cannot commit a
        segment between the fork-time snapshot and the worker forks — every
        worker inherits the same segment list (writers block for the few
        milliseconds of forking; other readers are unaffected).
        """
        with self._update_lock:
            return ServingPool(
                n_workers,
                ServingTask(segments=self._segments),
                round_timeout=round_timeout,
                epoch=self._epoch,
            )

    @contextmanager
    def _serving_pool(self, n_workers, query_prepared, round_timeout):
        """Lease the pool serving this call; yields ``None`` for the serial path.

        ``n_workers=None`` uses the attached pool (serial when there is
        none), ``1`` is serial, and ``> 1`` forks a pool whose lifetime is
        this call.  Leasing first runs the epoch check under the update
        lock, re-forking the pool if segment churn outdated its
        copy-on-write view.  A pool that was closed under us (a reader
        racing :meth:`close`) refuses the lease and the call runs serially.
        On exit the batch is ended and a call-scoped pool is closed, on
        every path, so neither the lease nor a worker outlives the call.
        """
        if n_workers is None:
            pool = self._resident
        else:
            pool = self._fork_pool(n_workers, round_timeout) if n_workers > 1 else None

        def refresh():
            with self._update_lock:
                if pool.epoch != self._epoch:
                    pool.refresh(ServingTask(segments=self._segments), self._epoch)

        leased = False
        try:
            leased = pool is not None and pool.lease(
                query_prepared, round_timeout=round_timeout, refresh=refresh
            )
            yield pool if leased else None
        finally:
            if leased:
                pool.end_batch()
            if pool is not None and n_workers is not None:
                pool.close()

    def _scored_candidates(self, queries, on_budget: str | None, n_workers, round_timeout):
        """Probe and score one query batch: the body of every query call.

        Returns ``(n queries, query rows, collection rows, values, exact)``
        with the pairs sorted by ``(query row, collection row)``.  Only
        non-empty query rows probe, and tombstoned collection rows are
        filtered out.  ``on_budget=None`` scores every candidate exactly;
        otherwise the candidates run the BayesLSH rounds under that terminal
        rule (NaN for pruned pairs) and only the pairs ``"exact"`` leaves
        undecided reach the exact kernel; ``exact`` marks exact values.  The
        probe and the rounds run here; with a pool, exact scoring is sharded
        by pair slice, and the merge is bit-identical to the serial kernel.
        The probe precedes the pool's lease, so the workers' fork-inherited
        segments hold every row it returns.
        """
        if n_workers is not None:
            n_workers = int(n_workers)
            if n_workers < 1:
                raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        query_prepared = self._queries_collection(queries)
        query_rows, query_family, query_store = self._hash_queries(query_prepared)
        empty = np.zeros(0, dtype=np.int64)
        if query_family is None:
            return query_prepared.n_vectors, empty, empty, np.zeros(0), np.zeros(0, dtype=bool)
        positions, rows = self._postings.probe_many(query_store, query_rows, self._segments)
        keep = ~self._deleted[rows]
        query_rows, rows = query_rows[positions[keep]], rows[keep]
        with self._serving_pool(n_workers, query_prepared, round_timeout) as pool:
            def score(queries_of: np.ndarray, rows_of: np.ndarray) -> np.ndarray:
                if pool is not None:
                    return pool.map_exact(queries_of, rows_of)
                return self._segments.cross_similarities(query_prepared, queries_of, rows_of)

            if on_budget is None:
                values = score(query_rows, rows) if len(rows) else np.zeros(0)
                exact = np.ones(len(rows), dtype=bool)
            else:
                # Every prune/emit decision depends only on the pair's own
                # (m, n), so a pair's outcome is independent of which other
                # pairs share the batch and of how the corpus is segmented.
                values, exhausted = serial_verify_bayes(
                    self._segments, self._round_tables(), query_family, query_rows, rows, on_budget
                )
                if pool is not None:
                    pool.rounds_ended()
                exact = exhausted & (on_budget == "exact")
                if exact.any():
                    values[exact] = score(query_rows[exact], rows[exact])
        return query_prepared.n_vectors, query_rows, rows, values, exact

    @staticmethod
    def _group_pairs(
        n_queries: int, query_rows: np.ndarray, rows: np.ndarray, values: np.ndarray, exact: np.ndarray
    ) -> list[QueryHits]:
        """Split sorted (query, row, value) triples into per-query result lists."""
        results = [QueryHits() for _ in range(n_queries)]
        for q, j, value in zip(query_rows.tolist(), rows.tolist(), values.tolist()):
            results[q].append(ScoredPair(-1, j, value))
        # query rows arrive sorted, so each query's flags are one slice
        bounds = np.searchsorted(query_rows, np.arange(n_queries + 1))
        flags = exact.tolist()
        for hits, lo, hi in zip(results, bounds[:-1].tolist(), bounds[1:].tolist()):
            hits.exact = tuple(flags[lo:hi])
        return results

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query_many(
        self,
        queries,
        threshold: float | None = None,
        n_workers: int | None = None,
        round_timeout: float | None = None,
    ) -> list[list[ScoredPair]]:
        """Threshold queries for a whole batch at once.

        ``queries`` is anything ``as_collection`` accepts — typically a dense
        or CSR matrix with one query per row, or a list of token sets /
        feature dicts.  Returns one result list per query row, each exactly
        equal to ``self.query(row)``: the batch is hashed in one kernel call
        and verified through the same vectorised kernels, and every per-pair
        decision is independent of the rest of the batch.

        Result entries are :class:`ScoredPair` values whose ``i`` field is
        always -1 (the query is not part of the collection) and whose ``j``
        field is the index of the matching row.  Under
        ``verification="bayes"`` a similarity is the posterior estimate of a
        pair that concentrated within the hash budget or (``on_budget="exact"``,
        the default) the exact value of one that did not — each per-query
        list's ``exact`` flags say which; under ``"exact"`` every value is exact.  Only
        pairs whose reported similarity exceeds the (per-call) threshold are
        returned.  Note that the Bayesian pruning
        tables stay tuned to the *index* threshold: overriding per call
        filters the estimates, but a threshold far below the index's cannot
        recover pairs the index-level pruning already discarded.

        ``n_workers > 1`` opens a worker pool scoped to this call (forked,
        leased for the one batch, closed) and shards exact scoring across
        it; bands are probed and hash agreements counted here, in the
        calling process — results are bit-identical to the serial batch for every
        worker count (see ``docs/serving.md`` for when the fork overhead
        pays off).  Leaving ``n_workers`` unset runs on the index's resident
        pool when :meth:`start_pool` attached one (serial otherwise).  Worker
        loss degrades gracefully: failed shards re-execute serially in the
        parent with the same kernels, still bit-identical; ``round_timeout``
        bounds how long a silent-but-alive worker stalls the call before it
        is declared hung (``None`` waits forever; see "Operational
        robustness" in ``docs/serving.md``).
        """
        threshold = self._threshold if threshold is None else float(threshold)
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        n_queries, query_rows, rows, values, exact = self._scored_candidates(
            queries,
            self._params.on_budget if self._verification == "bayes" else None,
            n_workers,
            round_timeout,
        )
        keep = values > threshold  # NaN (a pruned pair) compares False
        return self._group_pairs(
            n_queries, query_rows[keep], rows[keep], values[keep], exact[keep]
        )

    def query(
        self,
        vector,
        threshold: float | None = None,
        n_workers: int | None = None,
        round_timeout: float | None = None,
    ) -> list[ScoredPair]:
        """All indexed objects with similarity to ``vector`` above the threshold.

        Equivalent to ``query_many([vector])[0]`` — the singular entry point
        simply runs the batched kernels on a batch of one.
        """
        return self.query_many(
            self._single_query_batch(vector),
            threshold=threshold,
            n_workers=n_workers,
            round_timeout=round_timeout,
        )[0]

    def top_k_many(
        self,
        queries,
        k: int = 10,
        floor_threshold: float = 0.1,
        rank_by: str = "exact",
        n_workers: int | None = None,
        round_timeout: float | None = None,
    ) -> list[list[ScoredPair]]:
        """The ``k`` most similar indexed objects for each query in a batch.

        Returns one list per query row, each exactly equal to
        ``self.top_k(row, k, floor_threshold, rank_by)`` — the batch is
        bit-identical to the per-query loop.  With an LSH index tuned for
        ``threshold`` the result is approximate in the same sense as the
        underlying index: objects the index misses cannot be returned.

        ``rank_by`` selects the scoring path:

        * ``"exact"`` (default) — candidates from the band postings are
          scored with the exact cross-collection similarity kernel; the
          best ``k`` above ``floor_threshold`` are returned in decreasing
          order of (exact) similarity.
        * ``"estimate"`` — candidates are run through Algorithm 1's rounds
          (requires ``verification="bayes"``; ``on_budget="estimate"``
          whatever the index's own terminal rule) and ranked by the
          posterior MAP estimates those rounds computed; no exact
          similarity is ever evaluated.  Estimates wobble within the
          ``epsilon``/``delta``/``gamma`` accuracy envelope, and candidates
          the pruning discards as below the *index* threshold cannot appear
          even when ``floor_threshold`` is lower — the trade-off is latency:
          ranking reuses hash agreements instead of touching the raw
          vectors (measured in ``benchmarks/test_bench_serving.py`` and
          documented in ``docs/serving.md``).

        ``n_workers > 1`` opens a worker pool scoped to this call and shards
        exact ranking across it (the probe and estimate ranking's hash
        counts stay in the calling process), bit-identically to the serial
        batch (see ``docs/serving.md``);
        leaving it unset runs on the resident pool when :meth:`start_pool`
        attached one (serial otherwise).  Worker loss degrades gracefully —
        failed shards re-execute on the serial path in the parent, still
        bit-identically — and ``round_timeout`` bounds how long a hung
        worker may stall the call (see "Operational robustness" in
        ``docs/serving.md``).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if np.isnan(floor_threshold):  # every comparison with NaN is False
            raise ValueError("floor_threshold must be a number, got nan")
        if rank_by not in ("exact", "estimate"):
            raise ValueError(f"rank_by must be 'exact' or 'estimate', got {rank_by!r}")
        if rank_by == "estimate" and self._verification != "bayes":
            raise ValueError(
                "rank_by='estimate' requires verification='bayes' "
                "(the exact index computes no posterior estimates)"
            )
        n_queries, query_rows, rows, values, exact = self._scored_candidates(
            queries, "estimate" if rank_by == "estimate" else None, n_workers, round_timeout
        )
        # Rank on the arrays; ScoredPairs are built only for returned rows.
        # NaN estimates (pruned pairs) compare False and drop out here too.
        keep = values > floor_threshold
        query_rows, rows, values = query_rows[keep], rows[keep], values[keep]
        # Stable, so equal similarities keep ascending collection-row order.
        order = np.lexsort((-values, query_rows))
        query_rows, rows, values = query_rows[order], rows[order], values[order]
        first = np.searchsorted(query_rows, np.arange(n_queries))
        top = np.arange(len(query_rows)) - first[query_rows] < k
        return self._group_pairs(
            n_queries, query_rows[top], rows[top], values[top], exact[keep][order][top]
        )

    def top_k(
        self,
        vector,
        k: int = 10,
        floor_threshold: float = 0.1,
        rank_by: str = "exact",
        n_workers: int | None = None,
        round_timeout: float | None = None,
    ) -> list[ScoredPair]:
        """The ``k`` indexed objects most similar to ``vector``.

        Equivalent to ``top_k_many([vector], k, floor_threshold, rank_by)[0]``.
        """
        return self.top_k_many(
            self._single_query_batch(vector),
            k=k,
            floor_threshold=floor_threshold,
            rank_by=rank_by,
            n_workers=n_workers,
            round_timeout=round_timeout,
        )[0]

    # ------------------------------------------------------------------ #
    # resident pool lifecycle
    # ------------------------------------------------------------------ #
    def start_pool(
        self,
        n_workers: int = 2,
        round_timeout: float | None = None,
    ):
        """Attach a resident, self-healing worker pool to this index.

        Once attached, every ``query``/``query_many``/``top_k``/
        ``top_k_many`` call that leaves ``n_workers`` unset runs on the pool
        — paying a per-batch control message instead of a per-call fork —
        and stays bit-identical to the serial path.  The workers score
        exactly; this process hashes, probes, counts agreements and decides.
        An explicit ``n_workers`` is unaffected (``1`` forces serial,
        ``> 1`` opens a second pool scoped to that call).  Concurrent callers share the
        pool; their batches serialise on its lease.

        ``round_timeout`` is the default hung-worker deadline per gather
        (overridable per call).  A crash-looping worker slot is quarantined,
        and failed slots otherwise respawn at batch boundaries after a
        capped exponential backoff — the module constants of
        :mod:`repro.search.executor` and
        :class:`~repro.search.executor.ServingPool` say how long and how
        often.

        Returns the pool (handy for :meth:`pool_stats`-style inspection).
        The pool must be shut down with :meth:`close` — or use the index as
        a context manager.  Only one resident pool may be attached at a
        time; ``insert`` is safe while it runs (the epoch mechanism
        refreshes the pool before its next batch).
        """
        if self._resident is not None:
            raise RuntimeError(
                "a resident pool is already attached; close() it before "
                "starting another"
            )
        self._resident = self._fork_pool(n_workers, round_timeout)
        return self._resident

    def close(self) -> None:
        """Deterministically shut down the resident pool, if one is attached.

        Waits for an in-flight batch and stops every worker.  Idempotent;
        the index remains fully usable afterwards on the serial path (or a
        fresh :meth:`start_pool`) — including for a reader thread that
        picked the pool up just before it closed, whose lease is refused and
        whose batch runs serially.
        """
        resident = self._resident
        self._resident = None
        if resident is not None:
            resident.close()

    def pool_stats(self) -> dict | None:
        """Resident-pool health (see ``ServingPool.stats``), or ``None``.

        Exposes ``live_workers``, ``quarantined``, ``respawns``, ``epoch``
        and batch counters — the dict the serving daemon's ``stats``
        endpoint reports under ``"pool"``.
        """
        resident = self._resident
        return None if resident is None else resident.stats()

    def __enter__(self) -> "QueryIndex":
        """Context-manager entry; pairs with the :meth:`close` at exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close` the resident pool."""
        self.close()

    # ------------------------------------------------------------------ #
    # durability: write-ahead logging and crash recovery
    # ------------------------------------------------------------------ #
    @property
    def wal(self):
        """The attached :class:`~repro.serving.wal.WriteAheadLog`, or ``None``."""
        return self._wal

    @property
    def replaying(self) -> bool:
        """True while :meth:`recover` is re-applying WAL records.

        The serving daemon's ``health``/``ready`` endpoints degrade to
        not-ready while this is set — a recovering index is consistent at
        every point (each replayed batch commits atomically under the
        update lock) but not yet caught up to its acknowledged state.
        """
        return self._replaying

    def attach_wal(self, wal) -> None:
        """Start write-ahead logging every mutation to ``wal``.

        ``wal`` is a :class:`~repro.serving.wal.WriteAheadLog` or a
        directory path for one (opened with its default ``fsync="always"``
        policy).  From this call on, ``insert``/``delete`` append a framed
        record — under the update lock, before mutating any in-memory
        state — so an acknowledged mutation is recoverable by
        :meth:`load` with ``wal=`` (or :meth:`recover`) after a crash.
        Attach either to a fresh index (log from the start) or right after
        a snapshot load/recovery; attaching an out-of-sync log is the
        caller's error and will surface as a replay mismatch.
        """
        from repro.serving.wal import WriteAheadLog

        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        self._wal = wal

    def wal_stats(self) -> dict | None:
        """The attached WAL's durability counters (see
        :meth:`~repro.serving.wal.WriteAheadLog.stats`), or ``None``."""
        wal = self._wal
        return None if wal is None else wal.stats()

    def replay_stats(self) -> dict:
        """Counters from the last :meth:`recover` run (zeros if never run)."""
        return dict(self._replay_counters)

    def recover(self, wal) -> "QueryIndex":
        """Replay ``wal``'s tail on top of this freshly loaded snapshot.

        Re-applies every record from the snapshot's checkpoint position
        (the ``wal_segment`` its meta recorded at save time) through the
        same ``insert``/``delete`` code paths the original mutations took —
        with the logged *resolved* ids — so the recovered index is
        bit-identical to the uncrashed one: same segment layout, same
        hash-family RNG position, same answers.  A torn trailing record
        (the residue of a crash mid-append) is truncated away; interior
        corruption raises
        :class:`~repro.serving.snapshot.SnapshotCorruptError`.  The WAL is
        attached afterwards, so new mutations continue the same log.

        Only meaningful on an index that has not been mutated since it was
        loaded; an index whose snapshot carries no WAL position refuses a
        non-empty log (replaying from an unknown offset could double-apply
        mutations the snapshot already contains).  Sets :attr:`replaying`
        for the duration; returns ``self``.
        """
        from repro.serving.wal import WriteAheadLog
        from repro.testing import faults as _faults

        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        if self._wal is not None:
            raise RuntimeError("a write-ahead log is already attached")
        if self._mutations:
            raise ValueError(
                "this index has been mutated since it was loaded — recover() "
                "replays on top of a pristine snapshot, or it would interleave "
                "logged and unlogged mutations"
            )
        start_segment = self._wal_position
        if start_segment is None:
            if wal.has_records():
                raise ValueError(
                    "this snapshot carries no WAL position but the log has "
                    "records — replaying could double-apply mutations the "
                    "snapshot already contains"
                )
            start_segment = wal.active_segment
        counters = {
            "replayed_records": 0,
            "replayed_inserts": 0,
            "replayed_deletes": 0,
            "last_replayed_seq": 0,
        }
        self._replaying = True
        try:
            for seq, kind, arrays in wal.records(start_segment=start_segment):
                if kind == "insert":
                    collection = wal.replay_collection(arrays)
                    self.insert(collection, ids=collection.ids)
                    counters["replayed_inserts"] += 1
                else:
                    self.delete(arrays["rows"])
                    counters["replayed_deletes"] += 1
                counters["replayed_records"] += 1
                counters["last_replayed_seq"] = seq
                _faults.fire("wal_replay", index=self, seq=seq)
        finally:
            self._replaying = False
            self._replay_counters = counters
        self._wal = wal
        self._wal_position = wal.active_segment
        return self

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def insert(self, data, ids=None) -> np.ndarray:
        """Append new vectors to the index without rebuilding it.

        The batch is sealed as a fresh collection segment: prepared, hashed
        with the *same* hash functions as the existing corpus (the family's
        determinism contract guarantees hash function ``i`` agrees across
        collections) and added to the band postings — all in O(batch), no
        existing segment is touched.  Returns the row indices assigned to
        the new vectors.

        ``ids`` optionally supplies external identifiers for the new rows.
        The default continues after the largest existing integer id — equal
        to the row indices on an index that never had custom ids, but still
        collision-free after a compacted snapshot load, where surviving rows
        keep ids larger than their (renumbered) row indices.

        Mutators (``insert``/``delete``) serialise on the index's update
        lock; *reader* threads may run concurrently
        with one ingest stream (state is published in an order that keeps
        every observable row consistent — see
        :mod:`repro.serving.segments` and
        ``tests/serving/test_concurrency.py``).
        """
        new_collection = as_collection(data, n_features=self._segments.n_features)
        with self._update_lock:
            n_new = new_collection.n_vectors
            n_before = self._segments.n_vectors
            new_rows = np.arange(n_before, n_before + n_new, dtype=np.int64)
            if n_new == 0:
                return new_rows
            if ids is None:
                ids = np.arange(
                    self._next_default_id, self._next_default_id + n_new, dtype=np.int64
                )
            else:
                ids = np.asarray(list(ids))
                if len(ids) != n_new:
                    raise ValueError(
                        f"ids has length {len(ids)} but {n_new} rows were inserted"
                    )
            # Write-ahead: the batch (with its *resolved* ids) is logged and
            # made durable before any in-memory state changes — a failure
            # here aborts the insert with the index untouched, and a crash
            # after this line replays to exactly the state being built below.
            if self._wal is not None:
                self._wal.append_insert(new_collection, ids)
            self._mutations += 1
            if len(ids) and np.issubdtype(ids.dtype, np.integer):
                self._next_default_id = max(self._next_default_id, int(ids.max()) + 1)
            self._next_default_id = max(self._next_default_id, n_before + n_new)
            segment = self._segments.append(new_collection, self._banding_hashes, ids=ids)
            # Publication order keeps concurrent readers consistent: the
            # tombstone mask must cover every row before that row can appear
            # in a probe result, so extend it before the postings learn the
            # new rows.
            self._deleted = np.concatenate([self._deleted, np.zeros(n_new, dtype=bool)])
            self._postings.add(
                self._segments, new_rows[segment.prepared.row_nnz > 0], self._deleted
            )
            # Segment churn invalidates forked resident workers (they serve
            # a copy-on-write view of the pre-insert corpus); the epoch bump
            # makes the pool refresh before it admits another batch.
            self._epoch += 1
            return new_rows

    def delete(self, rows) -> int:
        """Tombstone indexed rows (by row index); returns how many were live.

        Deleted rows stay in the signature store and (until their postings
        run next merges) in the band postings, but are filtered from every
        query result immediately.  Deleting an already deleted row is a
        no-op.  Tombstoned rows are physically dropped only by
        ``save(path, compact=True)``.
        """
        rows = sorted_unique(np.asarray(rows, dtype=np.int64).ravel())
        with self._update_lock:
            if len(rows) and (rows[0] < 0 or rows[-1] >= self._segments.n_vectors):
                raise IndexError(
                    f"row indices must lie in [0, {self._segments.n_vectors}), got "
                    f"[{rows[0]}, {rows[-1]}]"
                )
            # Write-ahead: log the validated row set before the tombstones
            # land (delete is idempotent, so replaying the full set — not
            # just the not-yet-deleted survivors — is equivalent).
            if self._wal is not None:
                self._wal.append_delete(rows)
            self._mutations += 1
            fresh = rows[~self._deleted[rows]]
            self._deleted[fresh] = True
            return len(fresh)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_snapshot(
        cls,
        *,
        segments_data: list,
        n_features: int,
        meta: dict,
        family_state: dict,
        deleted: np.ndarray,
        postings_runs: tuple,
    ) -> "QueryIndex":
        """Rewire an index from deserialised snapshot state.

        ``segments_data`` is a list of ``(collection, store, ids)`` triples,
        one per sealed segment, and ``postings_runs`` the band postings'
        sealed ``(keys, rows)`` runs, adopted as they are (memory-mapped ones
        stay mapped).  The prepared views, hash family clones and BayesLSH
        decision tables are deterministic functions of that state and are
        rebuilt here (see :mod:`repro.serving.snapshot` for the format).
        """
        index = cls.__new__(cls)
        index._measure = get_measure(meta["measure"])
        index._threshold = float(meta["threshold"])
        index._false_negative_rate = float(meta["false_negative_rate"])
        index._verification = meta["verification"]
        index._params = BayesLSHParams(
            threshold=float(meta["threshold"]),
            epsilon=float(meta["epsilon"]),
            delta=float(meta["delta"]),
            gamma=float(meta["gamma"]),
            k=int(meta["k"]),
            max_hashes=None if meta["max_hashes"] is None else int(meta["max_hashes"]),
            # a snapshot from before the terminal rule existed ran Algorithm 1
            on_budget=meta.get("on_budget", "estimate"),
        )
        index._seed = int(meta["seed"])
        index._signature_width = int(meta["signature_width"])
        index._n_signatures = int(meta["n_signatures"])
        index._segments = SegmentedCollection(
            index._measure,
            int(n_features),
            seed=index._seed,
            family_kwargs=meta.get("family_kwargs", {}),
        )
        index._family = index._segments.family
        index._family.restore_state(family_state)
        for collection, store, ids in segments_data:
            index._segments.append_restored(collection, store, ids=ids)
        if len(deleted) != index._segments.n_vectors:
            raise ValueError(
                f"tombstone mask covers {len(deleted)} rows, collection has "
                f"{index._segments.n_vectors}"
            )
        index._next_default_id = index._initial_next_default_id()
        index._deleted = deleted
        index._postings = BandPostings(
            index._n_signatures, index._signature_width, postings_runs
        )
        index._wire_tables(defer=True)
        index._update_lock = threading.Lock()
        index._epoch = 0
        index._resident = None
        index._wire_durability()
        # The WAL segment this snapshot checkpointed at (None for snapshots
        # saved without a WAL attached); recover() replays from here.
        position = meta.get("wal_segment")
        index._wal_position = None if position is None else int(position)
        return index

    def save(self, path, compact: bool = False, layout: str | None = None):
        """Write a versioned snapshot of the index to ``path``.

        See :mod:`repro.serving.snapshot` for the format; loading the result
        with :meth:`load` reproduces this index bit for bit — including the
        hash family's RNG position, so even hash functions drawn *after* the
        round trip are identical on both sides.

        The snapshot is a flat-layout directory (``.flat`` is appended to
        ``path`` unless it already ends in it) of raw array files plus a
        CRC-manifested header that :meth:`load` can memory-map for a
        millisecond cold start, written crash-safely (data files first,
        then the manifest via temp + fsync + atomic rename).  ``layout``
        accepts only ``None`` or ``"flat"``.

        With ``compact=True`` the snapshot is written in **compacted** form:
        all segments are merged into one and tombstoned rows are physically
        dropped.  Surviving rows are renumbered (their relative order and
        external ids are preserved), so a loaded compacted index returns the
        same ``(id, similarity)`` answers the uncompacted index returns with
        tombstones filtered.  The in-memory index is not modified.
        """
        from repro.serving.snapshot import save_query_index

        return save_query_index(self, path, compact=compact, layout=layout)

    @classmethod
    def load(cls, path, storage: str = "ram", wal=None) -> "QueryIndex":
        """Load an index previously written by :meth:`save`.

        ``storage`` picks the backend: ``"ram"`` (default) reads every
        array into memory and verifies the full per-array CRCs, ``"mmap"``
        memory-maps the files read-only so pages fault in on demand
        (out-of-core serving, millisecond cold start).  Either way the
        loaded index is bit-identical.

        ``wal`` (a :class:`~repro.serving.wal.WriteAheadLog` or its
        directory path) additionally replays the log's tail on top of the
        snapshot and attaches it for continued logging — see
        :meth:`recover` for the crash-recovery semantics and the
        bit-identity guarantee.
        """
        from repro.serving.snapshot import load_query_index

        return load_query_index(path, storage=storage, wal=wal)
