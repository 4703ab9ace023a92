"""Worker pools: the candidate/verify pipeline's exact scoring and serving on more cores.

Everything here exists to run the *same* computation as the serial paths on
more cores.  Three ideas carry the module:

**Workers score, the parent probes, counts and decides.**  BayesLSH prunes
because comparing hashes costs far less than scoring a pair exactly, and
shipping signature columns to another process costs more than counting them
where they live.  So every hash agreement is counted in the parent by the
serial kernels — ``BayesLSH.verify`` through
``SignatureStore.count_matches_rounds``, :func:`serial_verify_bayes` through
``SegmentedCollection.count_matches_cross`` — and every prune/emit decision
is made there by the one block-replaying driver
(:func:`~repro.core.rounds.replay_rounds`).  The serving band probe runs
there too: it costs about as much as the fork hand-off would.  A pool
worker answers one stateless request over the state it inherited through
the fork, ``"exact"``: score a shard of pairs exactly.  No signature column
leaves the parent.

**One pool mechanism.**  :class:`_WorkerPool` is the process/queue plumbing
with worker supervision.  The offline engine (:meth:`SearchEngine.run` with
``n_workers > 1``) wraps it in :class:`ExactPool`, which forks on the
verifier's first exact request, so a verifier that never scores exactly
forks nothing; the serving layer wraps it in :class:`ServingPool`, which
``QueryIndex.start_pool`` keeps attached across calls and
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
call site tears its pool down under ``try``/``finally`` (or ``with``) and
:meth:`~_WorkerPool.shutdown` force-kills stragglers, so no exception path
leaves a worker behind.
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
from functools import partial

import numpy as np

from repro.core.rounds import RoundTables, replay_rounds
from repro.testing import faults as _faults

__all__ = [
    "ExactPool",
    "PoolDegradedWarning",
    "ServingPool",
    "ServingTask",
    "WorkerFailure",
]

_LOGGER = logging.getLogger("repro.search.executor")

#: most signature bytes one replayed block of serving rounds gathers per side
_BLOCK_BYTES = 1 << 15

#: consecutive failures after which a resident pool quarantines a worker slot
MAX_WORKER_FAILURES = 3
#: seconds a retired slot waits before its first respawn; doubles per failure
RESPAWN_BACKOFF = 0.1
#: upper bound on the respawn backoff, in seconds
RESPAWN_BACKOFF_CAP = 5.0


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
        The task tag being gathered (``"batch"`` or ``"exact"``).
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


class ExactPool:
    """The offline engine's workers, forked by the first exact request.

    :meth:`SearchEngine.run` hands this to ``Verifier.verify`` when
    ``n_workers > 1``.  Workers answer only ``"exact"`` (``scorer``, the
    verifier's own ``exact_similarities``, inherited through the fork); a
    verifier that never scores a pair exactly (LSH Approx, Algorithm 1)
    therefore forks no process at all.  Used as a context manager: leaving
    it shuts down whatever was forked.
    """

    def __init__(self, n_workers: int, scorer, round_timeout: float | None = None):
        self._start = partial(_WorkerPool, n_workers, {"exact": scorer}, round_timeout)
        self._pool: _WorkerPool | None = None

    def map_exact(self, left: np.ndarray, right: np.ndarray, fallback) -> np.ndarray:
        """Sharded exact similarities; forks the workers on the first non-empty request."""
        if not len(left):
            return fallback(left, right)
        if self._pool is None:
            self._pool = self._start()
        return self._pool.map_exact(left, right, fallback)

    def __enter__(self) -> "ExactPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()


# --------------------------------------------------------------------- #
# parallel serving (QueryIndex.query_many / top_k_many)
# --------------------------------------------------------------------- #
@dataclass
class ServingTask:
    """Everything a serving worker inherits through the fork, and its requests.

    Built by :class:`~repro.search.query.QueryIndex` (under its update lock)
    each time a pool forks or refreshes: the workers read the prepared
    segments from their forked copy of this object.  The query batch is the
    only per-batch state — each batch installs it with one ``"batch"``
    message carrying the prepared query rows.  The same method answers the
    workers' ``"exact"`` requests and recomputes a lost shard in the parent.
    """

    #: the index's :class:`~repro.serving.segments.SegmentedCollection`
    segments: object
    #: the current batch's prepared queries (measure-specific view)
    query_prepared: object = None

    def install(self, blob: bytes) -> None:
        """Replace the query state with a pickled ``"batch"`` payload."""
        self.query_prepared = pickle.loads(blob)

    def exact(self, query_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Exact similarities of (query row, collection row) pairs."""
        return self.segments.cross_similarities(self.query_prepared, query_rows, rows)

    def handlers(self) -> dict:
        """The serving worker's requests: ``"batch"`` and ``"exact"``."""
        return {"batch": self.install, "exact": self.exact}


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
    the fork-inherited prepared segments, and each batch ships its prepared
    query rows in one ``"batch"`` control message.  ``QueryIndex.start_pool``
    keeps one attached across calls; ``n_workers=k`` on a query call opens
    one, serves the one batch and closes it — the same object with a
    shorter lifetime.

    The workers do one request kind, **exact scoring**, sharded over the
    candidate pairs, which arrive sorted by ``(query row, collection row)``
    — since global rows are assigned segment-contiguously, a balanced
    contiguous cut of that order is a query-major, owning-segment-minor
    partition of the (query x segment) grid.  Many-query batches therefore
    split across queries, while a single huge-candidate-set query splits
    across its owning segments/row ranges — both shapes parallelise.

    The parent probes the band postings, remains the sole RNG/extension
    authority and is the sole decision maker: :func:`serial_verify_bayes`
    runs and counts the BayesLSH rounds exactly as it does unpooled, so
    store widths and RNG stream positions after the call are those of
    serial execution.  Per-worker
    replies are merged back in shard order, which restores the exact serial
    pair order — outputs are bit-identical to the serial batch path
    (enforced by ``tests/property/test_query_serving.py``).

    **Fault tolerance.**  Each request's failed shards (worker death, hang
    past ``round_timeout``, in-task error) are recomputed in the parent with
    the same :class:`ServingTask` methods, so results stay bit-identical
    after any worker loss — including losing every worker.

    **Self-healing.**  A retired worker's slot is *respawned* at a later
    batch boundary after a capped exponential backoff
    (``RESPAWN_BACKOFF * 2**(failures-1)``, capped at
    ``RESPAWN_BACKOFF_CAP``).  A slot that crash-loops —
    ``MAX_WORKER_FAILURES`` consecutive failures without completing a batch
    — is quarantined for the pool's lifetime, degrading the pool to fewer
    workers and, once no slot remains, to the serial path; both transitions
    emit :class:`PoolDegradedWarning`.  A batch survived by a worker resets
    its consecutive-failure count.

    **Epochs.**  The pool records the index epoch it forked from; segment
    churn (``insert``) bumps the index's epoch under its update lock, and
    the index refreshes the pool (full re-fork via :meth:`refresh`) before
    admitting the next batch — forked state is
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
    ):
        if n_workers < 2:
            raise ValueError(f"ServingPool needs n_workers >= 2, got {n_workers}")
        self._requested_workers = int(n_workers)
        self._round_timeout = None if round_timeout is None else float(round_timeout)
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
        if failures >= MAX_WORKER_FAILURES:
            self._quarantined.add(wid)
            live = len(self._pool.live_workers)
            warnings.warn(
                f"resident pool worker slot {wid} quarantined after {failures} "
                f"consecutive failures; pool degraded to {live} live worker(s)",
                PoolDegradedWarning,
                stacklevel=2,
            )
            return f"quarantined after {failures} consecutive failures"
        backoff = min(RESPAWN_BACKOFF * (2 ** (failures - 1)), RESPAWN_BACKOFF_CAP)
        self._respawn_at[wid] = time.monotonic() + backoff
        return (
            f"slot respawns at a later batch boundary after {backoff:.2f}s backoff "
            f"(failure {failures}/{MAX_WORKER_FAILURES})"
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
        self, query_prepared, round_timeout: float | None = None, refresh=None
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
                self.begin_batch(query_prepared, round_timeout=round_timeout)
                leased = True
        finally:
            if not leased:
                self._lease_lock.release()
        return leased

    def begin_batch(self, query_prepared, round_timeout: float | None = None) -> None:
        """Open a batch: heal slots, ship the prepared queries, sync the workers.

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
        self._task.query_prepared = query_prepared
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
        blob = pickle.dumps(query_prepared)
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
        the current segments.
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

    # ------------------------------ scoring ------------------------------ #
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
