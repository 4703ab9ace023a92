"""Sharded, block-streamed execution of the candidate/verify pipeline.

Everything here exists to run the *same* computation as the serial paths on
more cores or in less memory.  Three ideas carry the module:

**Workers probe and score, the parent counts and decides.**  BayesLSH prunes
because comparing hashes costs far less than scoring a pair exactly, and
shipping signature columns to another process costs more than counting them
where they live.  So every hash agreement is counted in the parent by the
serial kernels — ``BayesLSH.verify`` through
``SignatureStore.count_matches_rounds``, :func:`serial_verify_bayes` through
``SegmentedCollection.count_matches_cross`` — and every prune/emit decision
is made there by the one block-replaying driver
(:func:`~repro.core.rounds.replay_rounds`).  A pool worker answers stateless
requests over the state it inherited through the fork: ``"exact"`` (both
pools) scores a shard of pairs exactly, ``"probe"`` (serving) probes the band
postings for a slice of query rows.  No signature column leaves the parent.

**One pool mechanism.**  :class:`_WorkerPool` is the process/queue plumbing
with worker supervision.  The offline engine (:class:`StreamExecutor`, used
by :meth:`SearchEngine.run` when ``block_size``/``n_workers`` is set) forks
it on the verifier; the serving layer wraps it in :class:`ServingPool`,
which ``QueryIndex.start_pool`` keeps attached across calls and
``query_many(..., n_workers=k)`` opens and closes around a single call.  The
parent extends the hash families, so the RNG stream consumption is identical
to the serial path.

**The serial path is the fallback.**  Worker loss is survivable, not fatal.
The pool *supervises* its workers: every gather polls worker liveness (a
SIGKILLed or crashed worker surfaces through its exit code) and, when a
``round_timeout`` is configured, applies a per-gather deadline after which a
live-but-silent worker is declared hung and SIGKILLed.  The failed worker is
retired and its shard of that one request is recomputed in the parent with
the kernel the serial path uses (:meth:`_WorkerPool.map_shards` is the one
scatter / gather / recompute-lost-shards helper).  The parent is the sole
RNG/extension authority and the sole decision maker, so results after any
single- or multi-worker loss are bit-identical to the all-serial run
(enforced by ``tests/faults/``).  :class:`WorkerFailure` (naming the workers
and the task tag) is what the supervisor raises to ``map_shards``, and each
retirement is logged with the same two.  Shutdown is unconditional: every
call site tears its pool down under ``try``/``finally`` and
:meth:`~_WorkerPool.shutdown` force-kills stragglers, so no exception path
leaves a worker behind.

Streaming
---------
The serial :meth:`SearchEngine.run` path materialises every candidate pair
in one array and verifies it on one core.  The streamed engine instead has:

* **Streamed generation** — candidate generators yield raw pair blocks
  (:meth:`CandidateGenerator.generate_blocks`); the executor canonicalises
  and deduplicates them *incrementally* against a compact sorted key set
  (8 bytes per unique pair), so the peak pair-array footprint is bounded by
  the block size plus the deduplicated key set instead of the raw collision
  count (for LSH the raw count is often many times the unique count).
* **Blocked verification** — the deduplicated pairs are verified in
  ``block_size`` slices (:class:`PairBlockSource`), so the per-pair
  verification state is bounded by the block size.  Per-block outputs are
  combined with :meth:`~repro.core.bayeslsh.VerificationOutput.merge`.

Determinism contract
--------------------
For every pipeline, every ``block_size`` and every ``n_workers``:

* the output pair set, its order, and every estimate are bit-identical to the
  serial path (workers run the same NumPy/scipy kernels on the same inputs);
* ``n_candidates`` / ``n_pruned`` / ``hash_comparisons`` /
  ``exact_computations`` and the per-round trace are identical (the parent
  keeps them; blocks merge round by round);
* hash families are extended by the parent only, in the same order as the
  serial path, so a given ``(seed, hash index)`` yields the same hash
  function everywhere

(enforced by ``tests/property/test_execution_invariance.py`` and
``tests/property/test_query_serving.py``).
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.candidates.arrayops import sorted_unique
from repro.core.rounds import RoundTables, replay_rounds
from repro.hashing.signatures import store_from_parts, store_parts
from repro.testing import faults as _faults

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "PairBlockSource",
    "PoolDegradedWarning",
    "ServingPool",
    "ServingTask",
    "StreamExecutor",
    "WorkerFailure",
]

_LOGGER = logging.getLogger("repro.search.executor")

#: default number of candidate pairs per verification block
DEFAULT_BLOCK_SIZE = 65536

#: most signature bytes one replayed block of serving rounds gathers per side
_BLOCK_BYTES = 1 << 15


# --------------------------------------------------------------------- #
# incremental pair deduplication
# --------------------------------------------------------------------- #
class _PairKeyAccumulator:
    """Incrementally deduplicated candidate pairs as sorted ``int64`` keys.

    A pair ``(i, j)`` with ``i < j`` is encoded as ``i * n_vectors + j``;
    keys sort in the same lexicographic ``(i, j)`` order that
    :meth:`CandidateSet.from_arrays` produces, so decoding the final key
    array yields exactly the serial candidate arrays.  Incoming blocks are
    buffered and merged amortised (when the pending volume reaches the
    consolidated size), keeping the total cost at ``O(N log N)`` over any
    number of blocks.
    """

    def __init__(self, n_vectors: int):
        if n_vectors >= 1 << 31:
            raise NotImplementedError(
                "streamed deduplication supports up to 2**31 - 1 vectors "
                "(pair keys must fit in int64); use the monolithic path"
            )
        self._span = int(n_vectors)
        self._sorted = np.zeros(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._pending_total = 0

    def add(self, left: np.ndarray, right: np.ndarray) -> None:
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        keep = left != right
        low = np.minimum(left[keep], right[keep])
        high = np.maximum(left[keep], right[keep])
        if not len(low):
            return
        self._pending.append(sorted_unique(low * self._span + high))
        self._pending_total += len(self._pending[-1])
        if self._pending_total >= max(len(self._sorted), 1 << 16):
            self._consolidate()

    def _consolidate(self) -> None:
        if not self._pending:
            return
        self._sorted = sorted_unique(np.concatenate([self._sorted, *self._pending]))
        self._pending = []
        self._pending_total = 0

    def finalize(self) -> np.ndarray:
        self._consolidate()
        return self._sorted


class PairBlockSource:
    """Deduplicated candidate pairs, readable in contiguous sorted blocks.

    Also acts as a lazy pair sequence (``len`` / indexing by position or by
    an array of positions), which is what the Jaccard prior fitting samples
    from — the sampled positions and hence the fitted prior are identical to
    the serial path's, which samples from the same pairs in the same sorted
    order.
    """

    def __init__(self, keys: np.ndarray, n_vectors: int, block_size: int):
        self._keys = keys
        self._span = int(n_vectors)
        self._block_size = int(block_size)

    @property
    def block_size(self) -> int:
        """Pairs per verification slice (the executor's memory bound)."""
        return self._block_size

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, positions) -> tuple[np.ndarray, np.ndarray]:
        keys = self._keys[positions]
        return keys // self._span, keys % self._span

    def all_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The full (sorted, deduplicated) pair arrays."""
        return self._keys // self._span, self._keys % self._span

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(left, right)`` slices of at most ``block_size`` pairs."""
        for start in range(0, len(self._keys), self._block_size):
            chunk = self._keys[start : start + self._block_size]
            yield chunk // self._span, chunk % self._span


# --------------------------------------------------------------------- #
# worker supervision
# --------------------------------------------------------------------- #
class WorkerFailure(RuntimeError):
    """One or more pool workers died, hung or errored during a gather.

    Attributes
    ----------
    failed:
        ``{worker id: reason}`` for every worker that failed this gather
        (died with an exit code, exceeded the hung-worker deadline, or
        replied with an error).
    replies:
        The replies successfully collected from the surviving workers —
        recovery paths reuse them so only the failed shards are recomputed.
    tag:
        The task tag being gathered (``"batch"``, ``"probe"``, ``"exact"``).
    """

    def __init__(self, failed: dict, replies: dict, tag: str):
        self.failed = dict(failed)
        self.replies = dict(replies)
        self.tag = tag
        details = "; ".join(
            f"worker {wid}: {reason}" for wid, reason in sorted(self.failed.items())
        )
        super().__init__(f"worker(s) {sorted(self.failed)} failed during {tag!r} — {details}")


class PoolDegradedWarning(UserWarning):
    """A resident pool permanently lost serving capacity.

    Emitted (via :mod:`warnings`) when a crash-looping worker slot is
    quarantined — the pool continues with fewer workers — and again when the
    last slot is gone and the pool degrades to the serial path.  Results
    stay bit-identical throughout (degradation only changes *who* executes
    the shards); the warning is the operational signal that throughput
    headroom was lost and the process should be inspected or recycled.
    """


# --------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------- #
def _worker_main(worker_id: int, handlers: dict, task_queue, result_queue) -> None:
    """Every pool worker's loop: answer each request with its tag's handler.

    The process is forked, so ``handlers`` — bound methods of the state the
    pool was forked on (the all-pairs verifier, a :class:`ServingTask`) —
    run against the worker's inherited copy of that state; only shard index
    arrays, the serving batch message and the replies travel through the
    queues.  Every request is stateless apart from ``"batch"``, and the
    worker decides nothing.
    """
    while True:
        message = task_queue.get()
        tag = message[0]
        if tag == "stop":
            break
        if tag == "_fault_sleep":  # injected by the fault harness only
            time.sleep(message[1])
            continue
        handler = handlers.get(tag)
        if handler is None:
            result_queue.put(("error", worker_id, f"unknown task {tag!r}"))
            continue
        try:
            result_queue.put(("ok", worker_id, handler(*message[1:])))
        except Exception:
            result_queue.put(("error", worker_id, traceback.format_exc()))


# --------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------- #
class _WorkerPool:
    """A pool of forked workers answering sharded requests, under supervision.

    Generic process/queue plumbing shared by the two call sites:
    ``handlers`` maps each request tag a worker answers to the callable that
    answers it (``{"exact": verifier.exact_similarities}`` for the all-pairs
    engine, :meth:`ServingTask.handlers` for the serving layer).  They are
    inherited through the fork, never pickled — the pool always uses the
    ``fork`` start method.

    Supervision: every gather checks worker liveness, and ``round_timeout``
    (seconds, ``None`` = wait forever) bounds how long a *live* worker may
    stay silent before it is declared hung and SIGKILLed.  Failed workers
    are retired — excluded from every later :meth:`scatter`/:meth:`send` —
    and the gather raises :class:`WorkerFailure` carrying the survivors'
    replies, so callers can re-execute just the failed shards serially.
    """

    def __init__(self, n_workers: int, handlers: dict, round_timeout: float | None = None):
        # Retained so a resident pool can re-fork a replacement process into
        # a retired slot (see :meth:`respawn`).
        self._context = multiprocessing.get_context("fork")
        self._handlers = handlers
        self._n_workers = int(n_workers)
        self._round_timeout = None if round_timeout is None else float(round_timeout)
        #: optional ``(worker id, reason) -> decision`` hook a supervisor
        #: (the resident pool) installs; the returned decision string is
        #: appended to the retirement warning so operators see respawn /
        #: quarantine outcomes next to the failure itself.
        self._on_retire = None
        # One result queue *per worker*, each with a single writer: a worker
        # SIGKILLed mid-reply can die holding its queue's write lock, and with
        # a shared queue that poisoned lock would silently stall every
        # survivor's replies (alive-but-silent forever).  Per-worker queues
        # confine the damage to the dead worker, whose queue is never read
        # again once the liveness sweep retires it.
        self._result_queues: list = [None] * self._n_workers
        self._task_queues: list = [None] * self._n_workers
        self._processes: list = [None] * self._n_workers
        self._dead: dict[int, str] = {}
        for wid in range(self._n_workers):
            self._start_worker(wid)
        _faults.fire("pool_start", pool=self)

    def _start_worker(self, wid: int) -> None:
        """Fork a worker process into slot ``wid``, on fresh queues."""
        self._task_queues[wid] = self._context.Queue()
        self._result_queues[wid] = self._context.Queue()
        self._processes[wid] = self._context.Process(
            target=_worker_main,
            args=(wid, self._handlers, self._task_queues[wid], self._result_queues[wid]),
            daemon=True,
        )
        self._processes[wid].start()

    @property
    def live_workers(self) -> list[int]:
        """Worker ids not yet retired by the supervisor, in worker order."""
        return [wid for wid in range(self._n_workers) if wid not in self._dead]

    # ----------------------------- plumbing ----------------------------- #
    def _retire(self, wid: int, reason: str, tag: str) -> None:
        """Record a worker as failed and make sure its process is gone.

        SIGKILL (not SIGTERM) so that SIGSTOPped/hung workers die too.  The
        warning names the worker and the task tag being gathered; when a
        supervisor installed an ``_on_retire`` hook, its respawn/quarantine
        decision is appended.
        """
        self._dead[wid] = reason
        process = self._processes[wid]
        if process.is_alive():
            process.kill()
        process.join(timeout=10)
        decision = ""
        if self._on_retire is not None:
            try:
                decision = self._on_retire(wid, reason) or ""
            except Exception:  # the hook must never mask the retirement
                _LOGGER.exception("retire hook failed for worker %d", wid)
        _LOGGER.warning(
            "pool worker %d %s during %r; its shard is re-executed serially in the parent%s",
            wid,
            reason,
            tag,
            f" — {decision}" if decision else "",
        )

    def respawn(self, wid: int) -> None:
        """Fork a fresh process into retired slot ``wid``, reviving it.

        The replacement forks from the parent's *current* state.  Both
        queues are replaced: the old ones may hold undrained frames
        addressed to the dead process, or be torn mid-write by its SIGKILL.
        """
        if wid not in self._dead:
            raise RuntimeError(f"worker {wid} is not retired; cannot respawn")
        for queue in (self._task_queues[wid], self._result_queues[wid]):
            try:
                queue.cancel_join_thread()
                queue.close()
            except Exception:
                pass
        self._start_worker(wid)
        del self._dead[wid]

    def set_round_timeout(self, round_timeout: float | None) -> None:
        """Re-arm the hung-worker deadline for the gathers that follow.

        A resident pool serves batches with per-request deadlines; each
        batch installs its own bound here before dispatching.
        """
        self._round_timeout = None if round_timeout is None else float(round_timeout)

    def collect(self, worker_ids, tag: str) -> dict:
        """Gather one reply per worker id, supervising liveness and deadlines.

        Keeps collecting from the remaining workers after a failure so the
        survivors' replies are never lost; if any worker failed (died,
        exceeded the hung-worker deadline, or replied with an error) the
        gather ends by raising :class:`WorkerFailure` naming each failed
        worker and the task tag, with the survivors' replies attached for
        shard-level recovery.
        """
        import queue as queue_module

        replies: dict[int, object] = {}
        failed: dict[int, str] = {}
        pending: set[int] = set()
        for wid in worker_ids:
            if wid in self._dead:
                failed[wid] = self._dead[wid]
            else:
                pending.add(wid)
        deadline = (
            time.monotonic() + self._round_timeout
            if self._round_timeout is not None
            else None
        )
        while pending:
            progressed = False
            for wid in sorted(pending):
                message = None
                try:
                    message = self._result_queues[wid].get(timeout=0.05)
                except queue_module.Empty:
                    continue
                except Exception as exc:
                    # A worker SIGKILLed mid-write can tear its queue frame;
                    # the liveness sweep below attributes the loss to it.
                    _LOGGER.warning(
                        "result-queue read for worker %d failed (%s); checking liveness",
                        wid,
                        exc,
                    )
                    continue
                try:
                    status, reply_wid, payload = message
                except Exception:
                    continue  # garbled frame from a killed writer
                if reply_wid != wid:
                    continue  # torn frame from a killed writer
                progressed = True
                if status == "error":
                    self._retire(wid, f"raised in-task:\n{payload}", tag)
                    failed[wid] = self._dead[wid]
                else:
                    replies[wid] = payload
                pending.discard(wid)
            if not pending:
                break
            if not progressed:
                for wid in sorted(pending):
                    process = self._processes[wid]
                    if not process.is_alive():
                        self._retire(
                            wid, f"died without replying (exit code {process.exitcode})", tag
                        )
                        failed[wid] = self._dead[wid]
                        pending.discard(wid)
            if pending and deadline is not None and time.monotonic() >= deadline:
                for wid in sorted(pending):
                    self._retire(
                        wid,
                        f"hung (no reply within round_timeout={self._round_timeout}s)",
                        tag,
                    )
                    failed[wid] = self._dead[wid]
                pending.clear()
        if failed:
            raise WorkerFailure(failed, replies, tag)
        return replies

    def scatter(self, tag: str, arrays: tuple) -> list[tuple[int, int, int]]:
        """Shard parallel arrays contiguously over the *live* workers.

        Cuts balanced contiguous slices across the surviving workers (empty
        slices are skipped) and enqueues ``(tag, *slices)`` on each
        recipient's queue.  Returns the issued ``(worker id, start, end)``
        triples in worker order — slice order is preserved on merge, so the
        concatenated replies are independent of how many workers survive.
        An empty return with non-empty input means every worker is retired
        and the caller must fall back serially.
        """
        live = self.live_workers
        if not live:
            return []
        bounds = np.linspace(0, len(arrays[0]), len(live) + 1).astype(np.int64)
        issued: list[tuple[int, int, int]] = []
        for slot, wid in enumerate(live):
            lo, hi = int(bounds[slot]), int(bounds[slot + 1])
            if hi > lo:
                self._task_queues[wid].put((tag, *(array[lo:hi] for array in arrays)))
                issued.append((wid, lo, hi))
        return issued

    def send(self, worker_ids, message) -> None:
        """Enqueue the same message on each listed (non-retired) worker's queue."""
        for wid in worker_ids:
            if wid not in self._dead:
                self._task_queues[wid].put(message)

    def map_shards(self, tag: str, arrays: tuple, fallback) -> list:
        """Scatter ``arrays``, gather one reply per shard, recover lost shards.

        ``fallback(*slices)`` computes a shard in the parent with the serial
        kernel; it runs for the whole input when no worker survives, and for
        exactly the failed shards when some do, so the result is independent
        of how many workers were lost.  Returns ``(start offset, reply)`` per
        shard in shard order.
        """
        issued = self.scatter(tag, arrays)
        if not issued:
            return [(0, fallback(*arrays))]
        try:
            replies = self.collect([wid for wid, _, _ in issued], tag)
        except WorkerFailure as failure:
            replies = failure.replies
            for wid, lo, hi in issued:
                if wid in failure.failed:
                    replies[wid] = fallback(*(array[lo:hi] for array in arrays))
        return [(lo, replies[wid]) for wid, lo, _ in issued]

    def map_exact(self, left: np.ndarray, right: np.ndarray, fallback) -> np.ndarray:
        """Sharded exact similarities (see :meth:`map_shards` for recovery)."""
        shards = self.map_shards("exact", (left, right), fallback)
        return np.concatenate([reply for _, reply in shards])

    def shutdown(self) -> None:
        """Stop every worker.

        Unconditional teardown: best-effort stop messages, bounded joins,
        then SIGKILL for stragglers (covers hung/SIGSTOPped workers) —
        called under ``try``/``finally`` at every call site so no exception
        path leaves a worker behind.
        """
        for queue in self._task_queues:
            try:
                queue.put_nowait(("stop",))
            except Exception:
                pass
        for process in self._processes:
            try:
                process.join(timeout=5)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5)
            except Exception:
                pass
        # A queue whose reader was SIGKILLed can strand its feeder thread
        # blocked on a full pipe; the queue's atexit finalizer would then
        # join that thread forever and hang interpreter shutdown.  Cancel
        # the exit-time join before closing — nothing reads these queues
        # again, so dropping their buffered frames is safe.
        for queue in (*self._task_queues, *self._result_queues):
            try:
                queue.cancel_join_thread()
                queue.close()
            except Exception:
                pass


# --------------------------------------------------------------------- #
# parallel serving (QueryIndex.query_many / top_k_many)
# --------------------------------------------------------------------- #
@dataclass
class ServingTask:
    """Everything a serving worker inherits through the fork, and its requests.

    Built by :class:`~repro.search.query.QueryIndex` (under its update lock)
    each time a pool forks or refreshes: the workers read the postings and
    the prepared segments from their forked copy of this object.  The query
    batch is the only per-batch state — each batch installs it with one
    ``"batch"`` message carrying the prepared query rows and the query
    signatures as hashed for banding.  The same methods answer the workers'
    requests and recompute a lost shard in the parent.
    """

    #: the index's :class:`~repro.serving.segments.SegmentedCollection`
    segments: object
    #: the index's band postings (already rebuilt if the staleness budget required it)
    postings: object
    #: total collection rows (probe-result encoding span)
    n_vectors: int
    #: the current batch's prepared queries (measure-specific view)
    query_prepared: object = None
    #: the current batch's signature store, hashed to (at least) the banding width
    query_store: object = None

    def install(self, blob: bytes) -> None:
        """Replace the query state with a pickled ``"batch"`` payload.

        The store is rebuilt from its raw matrix, so the worker never touches
        a lock the fork may have captured held by another parent thread.
        """
        query_prepared, kind, matrix, n_hashes = pickle.loads(blob)
        self.query_prepared = query_prepared
        self.query_store = store_from_parts(kind, matrix, n_hashes)

    def probe(self, query_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Band probes of a slice of query rows (positions relative to the slice)."""
        return self.postings.probe_many(self.query_store, query_rows, self.n_vectors)

    def exact(self, query_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Exact similarities of (query row, collection row) pairs."""
        return self.segments.cross_similarities(self.query_prepared, query_rows, rows)

    def handlers(self) -> dict:
        """The serving worker's requests: ``"batch"``, ``"probe"``, ``"exact"``."""
        return {"batch": self.install, "probe": self.probe, "exact": self.exact}


def serial_verify_bayes(
    segments,
    tables: RoundTables,
    query_family,
    query_rows: np.ndarray,
    rows: np.ndarray,
    on_budget: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Round-synchronous BayesLSH verification of (query, candidate) pairs.

    The serving path's one verification loop, pooled or not.  Hash
    agreements are counted between the query store (``query_family``'s) and
    the per-segment collection stores (global ``rows`` routed to their
    owning segments), one segment-routed gather per block of rounds both
    sides have already materialised.  Past that depth hashing is lazy and
    round-synchronous: rounds no pair reaches are never hashed, and only
    segments that still own active pairs extend their stores.

    Returns :meth:`PairState.outcome` under ``on_budget`` (run to the budget
    the tables resolve for it): the pair values with NaN marking pruned
    pairs — and, under ``"exact"``, the exhausted pairs the caller still has
    to score — and the exhausted mask.
    """
    k = tables.params.k
    round_bytes = k // 8 if query_family.produces_bits else 4 * k
    query_store = query_family.signatures(0)  # as materialised so far

    def count_block(active: np.ndarray, n_prev: int, n_rounds: int) -> np.ndarray:
        # Most pairs are pruned by a block's first round: few pairs (a one-row
        # query's) gather all materialised rounds at once, many the next alone.
        n_rounds = min(n_rounds, max(1, _BLOCK_BYTES // (len(active) * round_bytes)))
        if query_store.n_hashes < n_prev + k:
            query_family.signatures(n_prev + k)  # extends query_store in place
        return segments.count_matches_cross(
            query_store,
            query_rows[active],
            rows[active],
            n_prev,
            n_prev + n_rounds * k,
            round_width=k,
        )

    state = replay_rounds(tables, len(query_rows), count_block, tables.budget_for(on_budget))
    return state.outcome(on_budget)


class ServingPool:
    """A self-healing pool of forked workers serving batched query calls.

    The pool is forked once and serves any number of batches: workers keep
    the fork-inherited postings and prepared segments, and each batch ships
    its query state in one ``"batch"`` control message (the prepared query
    rows and the query signature matrix, rebuilt worker-side with fresh
    locks).  ``QueryIndex.start_pool`` keeps one attached across calls;
    ``n_workers=k`` on a query call opens one, serves the one batch and
    closes it — the same object with a shorter lifetime.

    The workers do the two request kinds whose inputs never change during a
    batch:

    * **probing** is sharded by query slice (each worker probes a contiguous
      run of query rows against the full inherited postings);
    * **exact scoring** is sharded over the candidate pairs, which arrive
      sorted by ``(query row, collection row)`` — since global rows are
      assigned segment-contiguously, a balanced contiguous cut of that order
      is a query-major, owning-segment-minor partition of the
      (query x segment) grid.  Many-query batches therefore split across
      queries, while a single huge-candidate-set query splits across its
      owning segments/row ranges — both shapes parallelise.

    The parent remains the sole RNG/extension authority and the sole
    decision maker: :func:`serial_verify_bayes` runs and counts the BayesLSH
    rounds exactly as it does unpooled, so store widths and RNG stream
    positions after the call are those of serial execution.  Per-worker
    replies are merged back in shard order, which restores the exact serial
    pair order — outputs are bit-identical to the serial batch path
    (enforced by ``tests/property/test_query_serving.py``).

    **Fault tolerance.**  Each request's failed shards (worker death, hang
    past ``round_timeout``, in-task error) are recomputed in the parent with
    the same :class:`ServingTask` methods, so results stay bit-identical
    after any worker loss — including losing every worker.

    **Self-healing.**  A retired worker's slot is *respawned* at a later
    batch boundary after a capped exponential backoff
    (``respawn_backoff * 2**(failures-1)``, capped at
    ``respawn_backoff_cap``).  A slot that crash-loops —
    ``max_worker_failures`` consecutive failures without completing a batch
    — is quarantined for the pool's lifetime, degrading the pool to fewer
    workers and, once no slot remains, to the serial path; both transitions
    emit :class:`PoolDegradedWarning`.  A batch survived by a worker resets
    its consecutive-failure count.

    **Epochs.**  The pool records the index epoch it forked from; segment
    churn (``insert``, posting rebuilds) bumps the index's epoch under its
    update lock, and the index refreshes the pool (full re-fork via
    :meth:`refresh`) before admitting the next batch — forked state is
    copy-on-write, so without a refresh the workers would silently serve
    the pre-churn corpus.  Quarantine and backoff state reset at refresh:
    the replacement workers share nothing with the crash-looping ones.

    Batches are serialised by an internal lease lock (concurrent
    ``query_many`` callers queue up): open one with :meth:`lease`, end it
    with :meth:`end_batch`.
    """

    def __init__(
        self,
        n_workers: int,
        task: ServingTask,
        round_timeout: float | None = None,
        epoch: int = 0,
        max_worker_failures: int = 3,
        respawn_backoff: float = 0.1,
        respawn_backoff_cap: float = 5.0,
    ):
        if n_workers < 2:
            raise ValueError(f"ServingPool needs n_workers >= 2, got {n_workers}")
        if max_worker_failures < 1:
            raise ValueError(
                f"max_worker_failures must be at least 1, got {max_worker_failures}"
            )
        self._requested_workers = int(n_workers)
        self._round_timeout = None if round_timeout is None else float(round_timeout)
        self._max_worker_failures = int(max_worker_failures)
        self._respawn_backoff = float(respawn_backoff)
        self._respawn_backoff_cap = float(respawn_backoff_cap)
        self._lease_lock = threading.Lock()
        self._closed = False
        self._warned_serial = False
        self._respawn_total = 0
        self._batches_served = 0
        self._serial_batches = 0
        self._refreshes = 0
        self.epoch = int(epoch)
        self._fork_pool(task)

    # ----------------------------- lifecycle ----------------------------- #
    def _fork_pool(self, task: ServingTask) -> None:
        """Fork the worker set on ``task``.

        Healing state starts clean: the new workers share nothing with any
        earlier set.
        """
        self._task = task
        self._pool = _WorkerPool(
            self._requested_workers, task.handlers(), round_timeout=self._round_timeout
        )
        self._consecutive_failures = [0] * self._requested_workers
        self._respawn_at = [0.0] * self._requested_workers
        self._quarantined: set[int] = set()
        self._pool._on_retire = self._note_retire

    def _note_retire(self, wid: int, reason: str) -> str:
        """Decide a retired slot's fate; returns the decision for the warning.

        Called by the worker pool's supervisor the moment it retires a
        worker.  The current batch always completes via serial fallback;
        this only schedules what happens to the slot at later batch
        boundaries.
        """
        self._consecutive_failures[wid] += 1
        failures = self._consecutive_failures[wid]
        if failures >= self._max_worker_failures:
            self._quarantined.add(wid)
            live = len(self._pool.live_workers)
            warnings.warn(
                f"resident pool worker slot {wid} quarantined after {failures} "
                f"consecutive failures; pool degraded to {live} live worker(s)",
                PoolDegradedWarning,
                stacklevel=2,
            )
            return f"quarantined after {failures} consecutive failures"
        backoff = min(
            self._respawn_backoff * (2 ** (failures - 1)), self._respawn_backoff_cap
        )
        self._respawn_at[wid] = time.monotonic() + backoff
        return (
            f"slot respawns at a later batch boundary after {backoff:.2f}s backoff "
            f"(failure {failures}/{self._max_worker_failures})"
        )

    def _heal(self) -> None:
        """Respawn retired slots whose backoff elapsed (quarantine excepted)."""
        now = time.monotonic()
        for wid in sorted(self._pool._dead):
            if wid in self._quarantined or now < self._respawn_at[wid]:
                continue
            self._pool.respawn(wid)
            self._respawn_total += 1
            _faults.fire("pool_respawn", pool=self._pool, worker=wid)

    def lease(
        self,
        query_prepared,
        query_store,
        round_timeout: float | None = None,
        refresh=None,
    ) -> bool:
        """Acquire the pool for one batch and install the batch's query state.

        Serialises concurrent callers, then (optionally) runs ``refresh`` —
        the index's epoch check, which may call :meth:`refresh` under the
        index's update lock — and finally opens the batch with
        :meth:`begin_batch`.  Returns ``True`` with the lease held; the
        caller must :meth:`end_batch` in a ``finally`` block.  Returns
        ``False``, holding nothing, when the pool has been closed — a caller
        that raced :meth:`close` serves its batch on the serial path.
        """
        leased = False
        self._lease_lock.acquire()
        try:
            if not self._closed:
                if refresh is not None:
                    refresh()
                self.begin_batch(query_prepared, query_store, round_timeout=round_timeout)
                leased = True
        finally:
            if not leased:
                self._lease_lock.release()
        return leased

    def begin_batch(
        self, query_prepared, query_store, round_timeout: float | None = None
    ) -> None:
        """Open a batch: heal slots, ship the query state, sync the workers.

        Every live worker acks the ``"batch"`` message before any shard is
        sent, so a reply can never be mistaken for the next request's.
        Workers that fail at the hand-off are retired through the normal
        supervision path; with no live worker left the batch runs serially
        in the parent (every stage falls back when ``scatter`` finds
        nobody), bit-identically.
        """
        self._heal()
        self._pool.set_round_timeout(
            self._round_timeout if round_timeout is None else float(round_timeout)
        )
        task = self._task
        task.query_prepared = query_prepared
        task.query_store = query_store
        self._batches_served += 1
        live = self._pool.live_workers
        if not live:
            if not self._warned_serial:
                self._warned_serial = True
                warnings.warn(
                    "resident pool has no live workers left; serving continues "
                    "on the serial path (bit-identical, reduced throughput)",
                    PoolDegradedWarning,
                    stacklevel=2,
                )
            self._serial_batches += 1
            return
        blob = pickle.dumps((query_prepared, *store_parts(query_store)))
        self._pool.send(live, ("batch", blob))
        try:
            self._pool.collect(live, tag="batch")
        except WorkerFailure:
            # The failed workers are already retired (and counted by
            # _note_retire); the survivors acked and serve the batch.
            pass

    def end_batch(self) -> None:
        """Close the batch: reset survivors' failure counts, free the lease."""
        try:
            for wid in self._pool.live_workers:
                self._consecutive_failures[wid] = 0
        finally:
            self._lease_lock.release()

    def refresh(self, task: ServingTask, epoch: int) -> None:
        """Re-fork the worker set against post-churn index state.

        Called by the index (under its update lock, with the lease held)
        when the pool's epoch trails the index's: forked state is
        copy-on-write, so segment churn is invisible to the old workers.
        Tears the old worker set down and forks a fresh one that inherits
        the current segments/postings.
        """
        self._pool.shutdown()
        self._fork_pool(task)
        self.epoch = int(epoch)
        self._refreshes += 1

    def stats(self) -> dict:
        """Pool-health snapshot for ops endpoints (all values JSON-safe).

        Keys: ``epoch``, ``n_workers`` (configured), ``live_workers``,
        ``quarantined`` (sorted slot ids), ``respawns`` (total),
        ``consecutive_failures`` (per slot), ``batches_served``,
        ``serial_batches``, ``refreshes``, ``closed``.
        """
        return {
            "epoch": self.epoch,
            "n_workers": self._requested_workers,
            "live_workers": len(self._pool.live_workers),
            "quarantined": sorted(self._quarantined),
            "respawns": self._respawn_total,
            "consecutive_failures": list(self._consecutive_failures),
            "batches_served": self._batches_served,
            "serial_batches": self._serial_batches,
            "refreshes": self._refreshes,
            "closed": self._closed,
        }

    def close(self) -> None:
        """Shut the pool down for good (idempotent; waits for a live batch).

        Stops every worker; a later :meth:`lease` returns ``False``.
        """
        with self._lease_lock:
            if not self._closed:
                self._closed = True
                self._pool.shutdown()

    # ------------------------- probing and scoring ------------------------ #
    def probe(self, query_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sharded :meth:`BandPostings.probe_many` over the query rows.

        Each worker probes a contiguous query slice; worker results are
        relative to their slice and re-based on merge.  Slices are disjoint
        and ascending, and probe results are sorted by (position, row) within
        a slice, so the concatenation equals the serial probe bit for bit.
        Failed shards are re-probed serially in the parent (the postings are
        read-only for the duration of the call), preserving bit-identity.
        """
        _faults.fire("serving_probe", pool=self._pool)
        shards = self._pool.map_shards("probe", (query_rows,), self._task.probe)
        positions = np.concatenate([reply[0] + lo for lo, reply in shards])
        rows = np.concatenate([reply[1] for _, reply in shards])
        return positions, rows

    def map_exact(self, query_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sharded exact cross-similarities (pair order preserved).

        Failed shards are recomputed serially in the parent with the same
        segment-routed kernel (exact similarities are per-pair and
        row-local, so shard recovery is trivially bit-identical).
        """
        _faults.fire("serving_exact", pool=self._pool)
        shards = self._pool.map_shards("exact", (query_rows, rows), self._task.exact)
        return np.concatenate([reply for _, reply in shards])

    def rounds_ended(self) -> None:
        """Mark the point between a batch's BayesLSH rounds and its terminal rule."""
        _faults.fire("serving_estimates", pool=self._pool)


# --------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------- #
class StreamExecutor:
    """Streamed (and optionally multicore) pipeline execution.

    Parameters
    ----------
    block_size:
        Candidate pairs per verification block (and per generation block);
        bounds the peak candidate-array and verification-state memory.
        ``None`` selects :data:`DEFAULT_BLOCK_SIZE`.
    n_workers:
        Worker processes for the verification phase.  ``1`` (default) runs
        the blocked pipeline in-process; ``> 1`` forks a pool and shards each
        exact-scoring request's pairs across it (hash agreements are counted
        in the parent).
    round_timeout:
        Seconds a live worker may stay silent within one gather before the
        supervisor declares it hung, SIGKILLs it, and recomputes its shard
        serially (see :class:`_WorkerPool`).  ``None`` (default) waits
        forever on live workers; dead workers are always detected promptly.
    """

    def __init__(
        self,
        block_size: int | None = None,
        n_workers: int | None = None,
        round_timeout: float | None = None,
    ):
        self.block_size = DEFAULT_BLOCK_SIZE if block_size is None else int(block_size)
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        self.n_workers = 1 if n_workers is None else int(n_workers)
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {self.n_workers}")
        self.round_timeout = None if round_timeout is None else float(round_timeout)

    def run(self, generator, verifier, collection):
        """Stream-generate, deduplicate and verify; returns
        ``(candidate_metadata, output, timings)``."""
        start_total = time.perf_counter()
        stream = generator.generate_blocks(collection, self.block_size)
        accumulator = _PairKeyAccumulator(collection.n_vectors)
        for left, right in stream:
            accumulator.add(left, right)
        source = PairBlockSource(
            accumulator.finalize(), collection.n_vectors, self.block_size
        )
        generation_time = time.perf_counter() - start_total

        start = time.perf_counter()
        pool = None
        if self.n_workers > 1 and len(source):
            pool = _WorkerPool(
                self.n_workers,
                {"exact": verifier.exact_similarities},
                round_timeout=self.round_timeout,
            )
        try:
            output = verifier.verify_source(source, pool=pool)
        finally:
            if pool is not None:
                pool.shutdown()
        verification_time = time.perf_counter() - start
        timings = {
            "generation": generation_time,
            "verification": verification_time,
            "total": time.perf_counter() - start_total,
        }
        return dict(stream.metadata), output, timings
