"""Sharded, block-streamed execution of the candidate/verify pipeline.

Everything here exists to run the *same* computation as the serial paths on
more cores or in less memory.  Three ideas carry the module:

**Workers count, the parent decides.**  BayesLSH decides each pair from its
own agreement count ``m`` after ``n`` hashes, so parallelism only has to
split the *counting*.  A pool worker answers one stateless ``"count"``
request — per-round agreement counts for a shard of pairs over
``[n_prev, n_prev + r·k)`` — and every prune/emit decision is made in the
parent by the one block-replaying driver
(:func:`~repro.core.rounds.replay_rounds`).  The pooled paths are the
serial paths with the kernel's location swapped: ``BayesLSH.verify`` keeps
its super-block policy and counts through :meth:`_WorkerPool.count_rounds`,
:func:`serial_verify_bayes` keeps its materialised-depth policy and counts
through :meth:`ServingPool.count_matches_cross`.

**One pool mechanism.**  :class:`_WorkerPool` is the process/queue/
shared-memory plumbing with worker supervision.  The offline engine
(:class:`StreamExecutor`, used by :meth:`SearchEngine.run` when
``block_size``/``n_workers`` is set) forks it on the verifier; the serving
layer wraps it in :class:`ServingPool`, which ``QueryIndex.start_pool``
keeps attached across calls and ``query_many(..., n_workers=k)`` opens and
closes around a single call.  The *parent* extends the hash families (so
the RNG stream consumption is identical to the serial path) and exports
the fresh signature columns into POSIX shared memory; workers gather hash
columns straight out of the shared segments without ever pickling a
signature store.

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
(enforced by ``tests/faults/``).  :class:`WorkerFailure` (naming the
workers, the task tag and the round) is what the supervisor raises to
``map_shards``, and each retirement is logged with the same three.
Shutdown is unconditional: every call site tears its pool down under
``try``/``finally`` and :meth:`~_WorkerPool.shutdown` force-kills
stragglers before unlinking the shared-memory segments, so no exception
path leaks ``/dev/shm``.

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
from repro.hashing.signatures import (
    BitSignatures,
    _tile_rows,
    count_packed_matches,
    store_from_parts,
    store_parts,
)
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

_WORD_BITS = 32

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
# shared-memory signature export
# --------------------------------------------------------------------- #
class _SignatureExporter:
    """Parent-side publication of signature columns into shared memory.

    The parent extends the hash family (keeping RNG streams identical to the
    serial path) and copies each fresh column block into a new shared-memory
    segment that every worker attaches on notification.

    ``key`` names the store the columns belong to (the serving pool exports
    one stream per collection segment plus one for the query batch; the
    all-pairs pool exports a single keyless stream), and ``base`` is the
    column count the workers already inherited through the fork — publication
    starts there instead of at zero.

    ``transient`` marks the stream's segments as batch-scoped: a resident
    pool registers them for early reclamation (once every worker has
    provably consumed them) instead of holding them until shutdown — the
    query batch's columns are garbage the moment the next batch starts.
    """

    def __init__(
        self,
        pool: "_WorkerPool",
        produces_bits: bool,
        key=None,
        base: int = 0,
        transient: bool = False,
    ):
        self._pool = pool
        self._bits = bool(produces_bits)
        self._key = key
        self._transient = bool(transient)
        self._published = int(base)
        if self._bits and self._published % _WORD_BITS:
            raise ValueError(
                f"bit-store publication base must be word-aligned, got {base}"
            )

    def ensure(self, store, n_now: int) -> None:
        """Publish columns so workers can count hashes ``[0, n_now)``."""
        if n_now <= self._published:
            return
        from multiprocessing import shared_memory

        if self._bits:
            # Publish whole words; _published is always word-aligned so
            # consecutive segments cover disjoint hash ranges.
            word_start = self._published // _WORD_BITS
            word_end = -(-n_now // _WORD_BITS)
            block = store.word_block(word_start, word_end)
            hash_start = word_start * _WORD_BITS
            hash_end = word_end * _WORD_BITS
        else:
            block = store.column_block(self._published, n_now)
            hash_start = self._published
            hash_end = n_now
        shm = shared_memory.SharedMemory(create=True, size=max(block.nbytes, 1))
        view = np.ndarray(block.shape, dtype=block.dtype, buffer=shm.buf)
        view[:] = block
        descriptor = {
            "name": shm.name,
            "shape": block.shape,
            "dtype": block.dtype.str,
            "hash_start": hash_start,
            "hash_end": hash_end,
            "bits": self._bits,
        }
        if self._key is not None:
            descriptor["key"] = self._key
        self._pool.register_segment(shm, descriptor, transient=self._transient)
        self._published = hash_end


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
        The task tag being gathered (``"probe"``, ``"count"``, ...).
    round_index:
        The first round of the count request during which the failure
        surfaced, or ``None`` for requests that are not counts.
    """

    def __init__(self, failed: dict, replies: dict, tag: str, round_index=None):
        self.failed = dict(failed)
        self.replies = dict(replies)
        self.tag = tag
        self.round_index = round_index
        where = f" (round {round_index})" if round_index is not None else ""
        details = "; ".join(
            f"worker {wid}: {reason}" for wid, reason in sorted(self.failed.items())
        )
        super().__init__(
            f"worker(s) {sorted(self.failed)} failed during {tag!r}{where} — {details}"
        )


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
def _worker_main(worker_id: int, verifier, task_queue, result_queue) -> None:
    """All-pairs worker loop: counts hash agreements and scores pairs exactly.

    The process is forked, so ``verifier`` (with its prepared collection and
    measure) is inherited by reference; only shard index arrays and the
    replies travel through the queues, and signature columns arrive as
    shared-memory segments.  Both requests are stateless: ``"count"``
    returns per-round agreement counts (:func:`_cross_round_counts`),
    ``"exact"`` exact similarities — the worker decides nothing.
    """
    columns = _ColumnSource()  # nothing inherited: the parent publishes from hash 0
    while True:
        message = task_queue.get()
        tag = message[0]
        if tag == "stop":
            break
        if tag == "_fault_sleep":  # injected by the fault harness only
            time.sleep(message[1])
            continue
        try:
            if tag == "segment":
                columns.attach(message[1])
                continue  # broadcast; no reply
            if tag == "count":
                left, right, start, end, round_width = message[1:]
                values = _cross_round_counts(
                    columns, columns, left, right, start, end, round_width
                )
            elif tag == "exact":
                values = verifier.exact_similarities(message[1], message[2])
            else:
                result_queue.put(("error", worker_id, f"unknown task {tag!r}"))
                continue
            result_queue.put(("ok", worker_id, values))
        except Exception:
            result_queue.put(("error", worker_id, traceback.format_exc()))


def _run_worker(target, *args) -> None:
    """Process entry point of every pool worker: ``target(*args)``.

    The forked child has exactly one thread, so a lock some *other* parent
    thread held at the instant of the fork can never be released in it.
    The one such lock a worker goes on to take is the shared-memory resource
    tracker's (attaching a published segment registers with the tracker, and
    a concurrent reader thread of the parent takes the same lock whenever
    it publishes or unlinks a segment), so it is re-initialised first.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._lock._at_fork_reinit()
    target(*args)


# --------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------- #
class _WorkerPool:
    """A pool of forked workers answering sharded requests, under supervision.

    Generic process/queue plumbing shared by the two call sites: ``target``
    is the worker loop (:func:`_worker_main` for the all-pairs engine,
    :func:`_serving_worker_main` for the serving layer) and ``payload`` is
    whatever state that loop should inherit through the fork (never pickled —
    the pool always uses the ``fork`` start method).

    Supervision: every gather checks worker liveness, and ``round_timeout``
    (seconds, ``None`` = wait forever) bounds how long a *live* worker may
    stay silent before it is declared hung and SIGKILLed.  Failed workers
    are retired — excluded from every later :meth:`scatter`/:meth:`send` —
    and the gather raises :class:`WorkerFailure` carrying the survivors'
    replies, so callers can re-execute just the failed shards serially.
    """

    def __init__(self, n_workers: int, target, payload, round_timeout: float | None = None):
        try:
            # Start the shared-memory resource tracker *before* forking so
            # every worker inherits (and reuses) the parent's tracker instead
            # of spawning its own, which would try to clean the parent's
            # segments up again at worker exit.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        context = multiprocessing.get_context("fork")
        # Retained so a resident pool can re-fork a replacement process into
        # a retired slot (see :meth:`respawn`).
        self._context = context
        self._target = target
        self._payload = payload
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
        self._segments: list = []
        # Two-generation transient segment tracking (resident pools only):
        # ``_transient`` holds batch-scoped segments still possibly unread by
        # an idle worker; ``_retired_transient`` holds the previous
        # generation, unlinked by :meth:`release_transient` once a later
        # queue barrier proves every live worker drained past them.
        self._transient: list = []
        self._retired_transient: list = []
        self._dead: dict[int, str] = {}
        #: publication stream of the all-pairs counts (see :meth:`count_rounds`)
        self._exporter: _SignatureExporter | None = None
        for wid in range(self._n_workers):
            self._start_worker(wid)
        _faults.fire("pool_start", pool=self)

    def _start_worker(self, wid: int) -> None:
        """Fork a worker process into slot ``wid``, on fresh queues."""
        self._task_queues[wid] = self._context.Queue()
        self._result_queues[wid] = self._context.Queue()
        self._processes[wid] = self._context.Process(
            target=_run_worker,
            args=(
                self._target,
                wid,
                self._payload,
                self._task_queues[wid],
                self._result_queues[wid],
            ),
            daemon=True,
        )
        self._processes[wid].start()

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def live_workers(self) -> list[int]:
        """Worker ids not yet retired by the supervisor, in worker order."""
        return [wid for wid in range(self._n_workers) if wid not in self._dead]

    # ----------------------------- plumbing ----------------------------- #
    def _broadcast(self, message) -> None:
        for wid in self.live_workers:
            self._task_queues[wid].put(message)

    def _retire(self, wid: int, reason: str, tag: str, round_index=None) -> None:
        """Record a worker as failed and make sure its process is gone.

        SIGKILL (not SIGTERM) so that SIGSTOPped/hung workers die too; the
        pool-owned shared segments stay mapped until :meth:`shutdown` —
        other workers are still reading them.  The warning names the
        worker, the task tag being gathered and, for a count, its first
        round; when a supervisor installed an ``_on_retire`` hook, its
        respawn/quarantine decision is appended.
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
            "pool worker %d %s during %r%s; its shard is re-executed serially in the parent%s",
            wid,
            reason,
            tag,
            f" (round {round_index})" if round_index is not None else "",
            f" — {decision}" if decision else "",
        )

    def respawn(self, wid: int) -> None:
        """Fork a fresh process into retired slot ``wid``, reviving it.

        The replacement forks from the parent's *current* state, so it
        inherits every column materialised so far; later publications can
        only overlap what it inherited (bases never over-shoot), which
        :class:`_ColumnSource` tolerates — hash determinism makes published
        and inherited values identical.  Both queues are replaced: the old
        ones may hold undrained frames addressed to the dead process, or be
        torn mid-write by its SIGKILL.
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

    def collect(self, worker_ids, tag: str, round_index=None) -> dict:
        """Gather one reply per worker id, supervising liveness and deadlines.

        Keeps collecting from the remaining workers after a failure so the
        survivors' replies are never lost; if any worker failed (died,
        exceeded the hung-worker deadline, or replied with an error) the
        gather ends by raising :class:`WorkerFailure` naming each failed
        worker, the task tag and the round, with the survivors' replies
        attached for shard-level recovery.
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
                    self._retire(wid, f"raised in-task:\n{payload}", tag, round_index)
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
                            wid,
                            f"died without replying (exit code {process.exitcode})",
                            tag,
                            round_index,
                        )
                        failed[wid] = self._dead[wid]
                        pending.discard(wid)
            if pending and deadline is not None and time.monotonic() >= deadline:
                for wid in sorted(pending):
                    self._retire(
                        wid,
                        f"hung (no reply within round_timeout={self._round_timeout}s)",
                        tag,
                        round_index,
                    )
                    failed[wid] = self._dead[wid]
                pending.clear()
        if failed:
            raise WorkerFailure(failed, replies, tag, round_index)
        return replies

    def register_segment(self, shm, descriptor: dict, transient: bool = False) -> None:
        """Publish a shared-memory signature segment to every live worker.

        ``transient`` segments are batch-scoped (a resident pool's query
        columns): they are reclaimed early by :meth:`release_transient`
        instead of living until :meth:`shutdown`.
        """
        (self._transient if transient else self._segments).append(shm)
        self._broadcast(("segment", descriptor))

    def release_transient(self) -> None:
        """Unlink the transient generation every worker has provably drained.

        Call only after a *full-pool queue barrier* (a broadcast message
        every live worker has replied to, enqueued after the segments): FIFO
        queue order then guarantees each live worker already attached — or
        died without ever reading, which is equally safe — every segment in
        the retired generation.  The current generation rotates into retired
        for the next call.
        """
        for shm in self._retired_transient:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        self._retired_transient = self._transient
        self._transient = []

    def scatter(self, tag: str, arrays: tuple, extra: tuple = ()) -> list[tuple[int, int, int]]:
        """Shard parallel arrays contiguously over the *live* workers.

        Cuts balanced contiguous slices across the surviving workers (empty
        slices are skipped) and enqueues ``(tag, *slices, *extra)`` on each
        recipient's queue (``extra`` carries scalar operands shared by all
        shards).  Returns the issued ``(worker id, start, end)`` triples in
        worker order — slice order is preserved on merge, so the
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
                self._task_queues[wid].put(
                    (tag, *(array[lo:hi] for array in arrays), *extra)
                )
                issued.append((wid, lo, hi))
        return issued

    def send(self, worker_ids, message) -> None:
        """Enqueue the same message on each listed (non-retired) worker's queue."""
        for wid in worker_ids:
            if wid not in self._dead:
                self._task_queues[wid].put(message)

    def map_shards(
        self, tag: str, arrays: tuple, fallback, extra: tuple = (), round_index=None
    ) -> list:
        """Scatter ``arrays``, gather one reply per shard, recover lost shards.

        ``fallback(*slices)`` computes a shard in the parent with the serial
        kernel; it runs for the whole input when no worker survives, and for
        exactly the failed shards when some do, so the result is independent
        of how many workers were lost.  ``round_index`` is only named in the
        loss warnings.  Returns ``(start offset, reply)`` per shard in shard
        order.
        """
        issued = self.scatter(tag, arrays, extra)
        if not issued:
            return [(0, fallback(*arrays))]
        try:
            replies = self.collect([wid for wid, _, _ in issued], tag, round_index)
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

    def count_rounds(
        self,
        store,
        left: np.ndarray,
        right: np.ndarray,
        start: int,
        end: int,
        round_width: int,
    ) -> np.ndarray:
        """Sharded ``store.count_matches_rounds`` for the all-pairs workers.

        The parent has materialised ``store`` to ``end`` hashes; the columns
        the workers lack are published first, then each worker counts a
        contiguous pair shard and a lost shard is recounted in the parent
        with ``store.count_matches_rounds`` itself.  Fires ``allpairs_begin``
        before a block's first count and ``allpairs_round`` once per round
        the request covers.
        """
        if self._exporter is None:
            self._exporter = _SignatureExporter(self, isinstance(store, BitSignatures))
        self._exporter.ensure(store, end)
        first = start // round_width
        if first == 0:
            _faults.fire("allpairs_begin", pool=self)
        for round_index in range(first, end // round_width):
            _faults.fire("allpairs_round", pool=self, round_index=round_index)

        def serial(left_shard: np.ndarray, right_shard: np.ndarray) -> np.ndarray:
            return store.count_matches_rounds(left_shard, right_shard, start, end, round_width)

        shards = self.map_shards(
            "count", (left, right), serial, (start, end, round_width), first
        )
        return np.concatenate([reply for _, reply in shards])

    def shutdown(self) -> None:
        """Stop every worker and release the shared-memory segments.

        Unconditional teardown: best-effort stop messages, bounded joins,
        then SIGKILL for stragglers (covers hung/SIGSTOPped workers), and a
        per-segment close+unlink that survives individual failures — called
        under ``try``/``finally`` at every call site so no exception path
        leaks ``/dev/shm`` segments.
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
        for shm in (*self._segments, *self._transient, *self._retired_transient):
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        self._segments = []
        self._transient = []
        self._retired_transient = []


# --------------------------------------------------------------------- #
# parallel serving (QueryIndex.query_many / top_k_many)
# --------------------------------------------------------------------- #
@dataclass
class ServingTask:
    """Everything a serving worker inherits through the fork.

    Built by :class:`~repro.search.query.QueryIndex` (under its update lock)
    each time a pool forks or refreshes: the workers read the postings and
    the per-segment stores from their forked copy of this object.  The query
    batch is the only per-batch state — each batch installs it with one
    ``"batch"`` message — and only signature columns materialised *after*
    the fork travel through POSIX shared memory.
    """

    #: the index's :class:`~repro.serving.segments.SegmentedCollection`
    segments: object
    #: the index's band postings (already rebuilt if the staleness budget required it)
    postings: object
    #: total collection rows (probe-result encoding span)
    n_vectors: int
    #: the current batch's prepared queries (measure-specific view)
    query_prepared: object = None
    #: the current batch's signature store, materialised to the banding width
    query_store: object = None


#: key under which the query batch's signature columns are published
_QUERY_KEY = "q"


class _ColumnSource:
    """Worker-side read access to one signature store across the fork.

    Columns materialised before the fork are read from the worker's inherited
    copy of the store; columns the parent materialised *after* the fork
    arrive as shared-memory chunks (attached on broadcast).  The inherited
    chunks and the published ones tile the hash axis contiguously, and every
    chunk boundary is word-aligned, so any requested sub-range falls
    entirely within one piece once split at the piece boundaries.

    The inherited layout is captured once as a :meth:`chunk_map` snapshot —
    after that the worker never calls a store method, so it can never block
    on a lock the fork captured in the locked state (another reader thread
    of the parent may have been holding a store lock at fork time, and no
    thread exists in the child to release it).
    """

    def __init__(self, store=None):
        self._bits = isinstance(store, BitSignatures)
        #: (hash_start, hash_end, array) pieces: fork-inherited chunks first,
        #: shared-memory chunks appended as the parent publishes them
        self._pieces: list[tuple[int, int, np.ndarray]] = []
        if store is not None:  # the all-pairs workers inherit nothing
            if self._bits and store.n_hashes % _WORD_BITS:
                raise RuntimeError(
                    f"fork-time bit store width {store.n_hashes} is not word-aligned"
                )
            self._pieces = list(store.chunk_map())
        self._handles: list = []  # keep SharedMemory objects alive

    @property
    def bits(self) -> bool:
        return self._bits

    def attach(self, descriptor: dict) -> None:
        from multiprocessing import shared_memory

        # Forked workers share the parent's resource tracker; attaching
        # re-registers the same name (a set, no-op) and the parent's unlink()
        # deregisters it exactly once.
        shm = shared_memory.SharedMemory(name=descriptor["name"])
        array = np.ndarray(
            tuple(descriptor["shape"]), dtype=np.dtype(descriptor["dtype"]), buffer=shm.buf
        )
        self._handles.append(shm)
        self._bits = descriptor["bits"]
        self._pieces.append((descriptor["hash_start"], descriptor["hash_end"], array))

    def close(self) -> None:
        """Unmap the attached shared-memory handles (worker-side only).

        Called when a resident worker replaces its query source at a batch
        boundary; closing only unmaps this process's view — the parent still
        owns (and later unlinks) the segments.
        """
        for shm in self._handles:
            try:
                shm.close()
            except Exception:
                pass
        self._handles = []
        self._pieces = []

    def boundaries(self, start: int, end: int) -> list[int]:
        """Piece boundaries intersecting ``[start, end)`` (sorted, inclusive ends)."""
        points = {start, end}
        for lo, hi, _ in self._pieces:
            if start < lo < end:
                points.add(lo)
            if start < hi < end:
                points.add(hi)
        return sorted(points)

    def word_block(self, start: int, end: int) -> np.ndarray:
        """Packed words covering bit range ``[start, end)`` of one piece."""
        word_start = start // _WORD_BITS
        word_end = -(-end // _WORD_BITS)
        for lo, hi, array in self._pieces:
            if lo <= start and end <= hi:
                base_word = lo // _WORD_BITS
                return array[:, word_start - base_word : word_end - base_word]
        raise RuntimeError(
            f"bit range [{start}, {end}) is neither fork-inherited nor published "
            f"to shared memory"
        )

    def column_block(self, start: int, end: int) -> np.ndarray:
        """Integer signature columns ``[start, end)`` of one piece."""
        for lo, hi, array in self._pieces:
            if lo <= start and end <= hi:
                return array[:, start - lo : end - lo]
        raise RuntimeError(
            f"hash range [{start}, {end}) is neither fork-inherited nor published "
            f"to shared memory"
        )


def _cross_round_counts(
    left_source: _ColumnSource,
    right_source: _ColumnSource,
    left_rows: np.ndarray,
    right_rows: np.ndarray,
    start: int,
    end: int,
    round_width: int,
) -> np.ndarray:
    """Per-round hash agreements between rows of two column sources.

    The worker-side twin of
    :meth:`~repro.hashing.signatures.SignatureStore.count_matches_rounds`
    (with ``other``): column ``r`` counts the hashes in
    ``[start + r·w, start + (r+1)·w)``.  Agreement counts are additive over
    disjoint hash sub-ranges, so the window is split at the round boundaries
    and at the two sources' piece boundaries, and each piece is counted with
    the same integer kernels the in-process stores use
    (:func:`count_packed_matches` for packed bits, gather + ``==`` + row sum
    for integer signatures) — worker counts are bit-identical to store
    counts.  Pairs are processed in the same L2-sized tiles as the store
    kernels (tiling only the pair axis is value-preserving).
    """
    n_pairs = len(left_rows)
    counts = np.zeros((n_pairs, (end - start) // round_width), dtype=np.int64)
    points = sorted(
        set(left_source.boundaries(start, end))
        | set(right_source.boundaries(start, end))
        | set(range(start, end, round_width))
    )
    if left_source.bits:
        span_bytes = (-(-(end - start) // _WORD_BITS) + 1) * 4
    else:
        span_bytes = (end - start) * 4  # int32 signatures (int64 halves the tile)
    tile = _tile_rows(span_bytes)
    for t0 in range(0, n_pairs, tile):
        t1 = min(t0 + tile, n_pairs)
        left_tile = left_rows[t0:t1]
        right_tile = right_rows[t0:t1]
        for lo, hi in zip(points[:-1], points[1:]):
            column = (lo - start) // round_width
            if left_source.bits:
                left_words = left_source.word_block(lo, hi)
                right_words = right_source.word_block(lo, hi)
                counts[t0:t1, column] += count_packed_matches(
                    left_words[left_tile],
                    right_words[right_tile],
                    lo - (lo // _WORD_BITS) * _WORD_BITS,
                    hi - lo,
                )
            else:
                left_columns = left_source.column_block(lo, hi)
                right_columns = right_source.column_block(lo, hi)
                equal = left_columns[left_tile] == right_columns[right_tile]
                counts[t0:t1, column] += equal.sum(axis=1, dtype=np.int64)
    return counts


def _serving_worker_main(worker_id: int, task: ServingTask, task_queue, result_queue) -> None:
    """Serving worker loop: probes, counts and scores pair shards.

    The process is forked, so the whole :class:`ServingTask` (postings,
    per-segment stores, prepared views) is inherited by reference; only
    small control messages and shard index arrays travel through the
    queues.  Every request is stateless and every kernel row-local, so
    sharding is semantics-free: a ``"count"`` shard's ``(query row, row)``
    pairs are routed to their segments here and counted per round against
    each segment's column source, and the parent makes every decision.
    """
    sources: dict = {}

    def source_for(key) -> _ColumnSource:
        source = sources.get(key)
        if source is None:
            if key == _QUERY_KEY:
                store = task.query_store
            else:
                store = task.segments.segments[key].store
            source = _ColumnSource(store)
            sources[key] = source
        return source

    while True:
        message = task_queue.get()
        tag = message[0]
        if tag == "stop":
            break
        if tag == "_fault_sleep":  # injected by the fault harness only
            time.sleep(message[1])
            continue
        try:
            if tag == "segment":
                source_for(message[1]["key"]).attach(message[1])
                continue  # broadcast; no reply
            if tag == "batch":
                # A resident pool opens a new batch: replace the query-side
                # state (the only per-batch piece of the fork-inherited
                # task).  The store is rebuilt from its raw matrix — fresh
                # locks, one contiguous chunk — and the cached query source
                # is dropped so the next count snapshots the new store.
                query_prepared, kind, matrix, n_hashes = pickle.loads(message[1])
                task.query_prepared = query_prepared
                task.query_store = store_from_parts(kind, matrix, n_hashes)
                stale = sources.pop(_QUERY_KEY, None)
                if stale is not None:
                    stale.close()
                reply = True
            elif tag == "probe":
                reply = task.postings.probe_many(task.query_store, message[1], task.n_vectors)
            elif tag == "count":
                query_rows, rows, start, end, round_width = message[1:]
                reply = np.empty((len(rows), (end - start) // round_width), dtype=np.int64)
                # Group the pairs by owning segment (the same stable grouping
                # as SegmentedCollection._grouped) and count each group
                # against its segment's column source.
                segment_ids, local_rows = task.segments.locate(rows)
                order = np.argsort(segment_ids, kind="stable")
                boundaries = np.flatnonzero(np.diff(segment_ids[order])) + 1
                for positions in np.split(order, boundaries):
                    reply[positions] = _cross_round_counts(
                        source_for(_QUERY_KEY),
                        source_for(int(segment_ids[positions[0]])),
                        query_rows[positions],
                        local_rows[positions],
                        start,
                        end,
                        round_width,
                    )
            elif tag == "exact":
                reply = task.segments.cross_similarities(
                    task.query_prepared, message[1], message[2]
                )
            else:
                result_queue.put(("error", worker_id, f"unknown task {tag!r}"))
                continue
            result_queue.put(("ok", worker_id, reply))
        except Exception:
            result_queue.put(("error", worker_id, traceback.format_exc()))


def serial_verify_bayes(
    segments,
    tables: RoundTables,
    query_family,
    query_rows: np.ndarray,
    rows: np.ndarray,
    on_budget: str,
    pool: "ServingPool | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Round-synchronous BayesLSH verification of (query, candidate) pairs.

    The serving path's one verification loop, pooled or not.  Hash
    agreements are counted between the query store (``query_family``'s) and
    the per-segment collection stores (global ``rows`` routed to their
    owning segments), one segment-routed gather per block of rounds both
    sides have already materialised.  Past that depth hashing is lazy and
    round-synchronous: rounds no pair reaches are never hashed, and only
    segments that still own active pairs extend their stores.  With a
    leased ``pool`` each block is counted by
    :meth:`ServingPool.count_matches_cross` instead of the segments' own
    kernel — same block, same counts — and every decision is still made
    here.

    Returns :meth:`PairState.outcome` under ``on_budget`` (run to the budget
    the tables resolve for it): the pair values with NaN marking pruned
    pairs — and, under ``"exact"``, the exhausted pairs the caller still has
    to score — and the exhausted mask.
    """
    k = tables.params.k
    round_bytes = k // 8 if query_family.produces_bits else 4 * k
    query_store = query_family.signatures(0)  # as materialised so far
    count = segments.count_matches_cross if pool is None else pool.count_matches_cross

    def count_block(active: np.ndarray, n_prev: int, n_rounds: int) -> np.ndarray:
        # Most pairs are pruned by a block's first round: few pairs (a one-row
        # query's) gather all materialised rounds at once, many the next alone.
        n_rounds = min(n_rounds, max(1, _BLOCK_BYTES // (len(active) * round_bytes)))
        if query_store.n_hashes < n_prev + k:
            query_family.signatures(n_prev + k)  # extends query_store in place
        return count(
            query_store,
            query_rows[active],
            rows[active],
            n_prev,
            n_prev + n_rounds * k,
            round_width=k,
        )

    state = replay_rounds(tables, len(query_rows), count_block, tables.budget_for(on_budget))
    if pool is not None:
        _faults.fire("serving_estimates", pool=pool._pool)
    return state.outcome(on_budget)


class ServingPool:
    """A self-healing pool of forked workers serving batched query calls.

    The pool is forked once and serves any number of batches: workers keep
    the fork-inherited segment columns warm and receive only deltas — each
    batch ships its query state in one ``"batch"`` control message (the
    query store travels as its raw matrix and is rebuilt worker-side with
    fresh locks), and counts publish only columns materialised after the
    fork.  ``QueryIndex.start_pool`` keeps one attached across
    calls; ``n_workers=k`` on a query call opens one, serves the one batch
    and closes it — the same object with a shorter lifetime.

    A batch is sharded across the workers in two dimensions:

    * **probing** is sharded by query slice (each worker probes a contiguous
      run of query rows against the full inherited postings);
    * **counting and exact ranking** are sharded over the candidate
      pairs, which arrive sorted by ``(query row, collection row)`` — since
      global rows are assigned segment-contiguously, a balanced contiguous
      cut of that order is a query-major, owning-segment-minor partition of
      the (query x segment) grid.  Many-query batches therefore split across
      queries, while a single huge-candidate-set query splits across its
      owning segments/row ranges — both shapes parallelise.

    The parent remains the sole RNG/extension authority and the sole
    decision maker: :func:`serial_verify_bayes` runs the rounds and picks
    each block as it does unpooled, the pool extends the segment stores
    that own the block's pairs (the serial path's lazy pattern, so store
    widths and RNG stream positions after the call are identical to serial
    execution) and publishes the fresh columns to shared memory, keyed per
    store.  Per-worker replies are merged back in shard order, which
    restores the exact serial pair order — outputs are bit-identical to the
    serial batch path (enforced by ``tests/property/test_query_serving.py``).

    **Fault tolerance.**  Each request's failed shards (worker death, hang
    past ``round_timeout``, in-task error) are recomputed in the parent with
    the stores' own kernels, so results stay bit-identical after any worker
    loss — including losing every worker.

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
        """Snapshot the fork-time store widths, then fork the worker set.

        Publication of post-fork columns starts at the snapshotted bases;
        the snapshot is taken *before* forking so a base can only
        under-shoot a worker's fork-time width (benign overlap), never
        over-shoot it (coverage gap).  The query stream publishes from zero
        until the first batch installs its width.  Healing state starts
        clean: the new workers share nothing with any earlier set.
        """
        self._task = task
        self._bases = {_QUERY_KEY: 0}
        for index, segment in enumerate(task.segments.segments):
            self._bases[index] = int(segment.store.n_hashes)
        self._pool = _WorkerPool(
            self._requested_workers,
            _serving_worker_main,
            task,
            round_timeout=self._round_timeout,
        )
        self._exporters: dict = {}
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

        The ``"batch"`` broadcast doubles as the full-pool queue barrier
        that makes reclaiming the *previous* batch's query columns safe
        (every live worker acks it, proving its queue drained past them).
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
        self._bases[_QUERY_KEY] = int(query_store.n_hashes)
        self._exporters.pop(_QUERY_KEY, None)
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
        self._pool.release_transient()

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
        Tears the old worker set down — unlinking every shared segment —
        and forks a fresh one that inherits the current segments/postings.
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

        Stops every worker and unlinks every shared-memory segment the pool
        published; a later :meth:`lease` returns ``False``.
        """
        with self._lease_lock:
            if not self._closed:
                self._closed = True
                self._pool.shutdown()

    # ----------------------------- plumbing ----------------------------- #
    def _publish(self, key, store) -> None:
        """Publish every materialised column of ``store`` beyond its base.

        A key missing from the fork-time base snapshot means a concurrent
        writer committed that segment in the snapshot→fork window (the
        many-readers/one-writer serving contract allows this); its columns
        are published from zero.  Publishing columns a worker also inherited
        is benign — hash determinism makes the published values identical to
        the inherited ones, and ``_ColumnSource`` tolerates overlapping
        pieces — whereas a too-high base would leave a worker with a
        coverage gap.  Bases from the snapshot can only under-shoot a
        worker's fork width (stores grow monotonically), never over-shoot.
        The query stream's segments are batch-scoped and reclaimed at the
        next batch boundary (see :meth:`_WorkerPool.release_transient`).
        """
        exporter = self._exporters.get(key)
        if exporter is None:
            exporter = _SignatureExporter(
                self._pool,
                isinstance(store, BitSignatures),
                key=key,
                base=self._bases.get(key, 0),
                transient=key == _QUERY_KEY,
            )
            self._exporters[key] = exporter
        exporter.ensure(store, store.n_hashes)

    # ------------------------------ probing ------------------------------ #
    def probe(self, query_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sharded :meth:`BandPostings.probe_many` over the query rows.

        Each worker probes a contiguous query slice; worker results are
        relative to their slice and re-based on merge.  Slices are disjoint
        and ascending, and probe results are sorted by (position, row) within
        a slice, so the concatenation equals the serial probe bit for bit.
        Failed shards are re-probed serially in the parent (the postings are
        read-only for the duration of the call), preserving bit-identity.
        """
        task = self._task

        def serial(slice_rows: np.ndarray):
            return task.postings.probe_many(
                task.query_store, slice_rows, task.n_vectors
            )

        _faults.fire("serving_probe", pool=self._pool)
        shards = self._pool.map_shards("probe", (query_rows,), serial)
        positions = np.concatenate([reply[0] + lo for lo, reply in shards])
        rows = np.concatenate([reply[1] for _, reply in shards])
        return positions, rows

    # ----------------------------- counting ------------------------------ #
    def count_matches_cross(
        self,
        query_store,
        query_rows: np.ndarray,
        rows: np.ndarray,
        start: int,
        end: int,
        round_width: int,
    ) -> np.ndarray:
        """Sharded :meth:`SegmentedCollection.count_matches_cross` (per round).

        The parent resolves the block exactly as the segments' own kernel
        does — the first round of ``[start, end)`` and as many more as the
        query store and every segment owning a pair have materialised —
        extends those segments, publishes what the workers lack, and shards
        the pairs over the workers, which route rows to segments themselves.
        A lost shard is recounted in the parent by the segments' kernel over
        the same resolved window, so the counts are the serial ones bit for
        bit.  Fires ``serving_verify`` before a batch's first count and
        ``serving_round`` once per round the request covers.
        """
        segments = self._task.segments
        owners = sorted_unique(segments.segment_of(rows)).tolist()
        end = segments.rounds_end(
            query_store, [segments.segments[index] for index in owners], start, end, round_width
        )
        self._publish(_QUERY_KEY, query_store)
        for index in owners:
            self._publish(index, segments.segments[index].ensure_hashes(end))
        first = start // round_width
        if first == 0:
            _faults.fire("serving_verify", pool=self._pool)
        for round_index in range(first, end // round_width):
            _faults.fire("serving_round", pool=self._pool, round_index=round_index)

        def serial(query_shard: np.ndarray, row_shard: np.ndarray) -> np.ndarray:
            return segments.count_matches_cross(
                query_store, query_shard, row_shard, start, end, round_width
            )

        shards = self._pool.map_shards(
            "count", (query_rows, rows), serial, (start, end, round_width), first
        )
        return np.concatenate([reply for _, reply in shards])

    # --------------------------- exact ranking --------------------------- #
    def map_exact(self, query_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sharded exact cross-similarities (pair order preserved).

        Failed shards are recomputed serially in the parent with the same
        segment-routed kernel (exact similarities are per-pair and
        row-local, so shard recovery is trivially bit-identical).
        """
        task = self._task

        def serial(slice_queries: np.ndarray, slice_rows: np.ndarray) -> np.ndarray:
            return task.segments.cross_similarities(
                task.query_prepared, slice_queries, slice_rows
            )

        _faults.fire("serving_exact", pool=self._pool)
        shards = self._pool.map_shards("exact", (query_rows, rows), serial)
        return np.concatenate([reply for _, reply in shards])


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
        count and exact-scoring request's pairs across it.
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
                self.n_workers, _worker_main, verifier, round_timeout=self.round_timeout
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
