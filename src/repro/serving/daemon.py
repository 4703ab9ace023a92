"""Resident serving daemon: coalesce concurrent single-query traffic.

The batched entry points (``query_many``/``top_k_many``) are ~16x cheaper
per query than a loop of single calls, but that win only materialises in
production if *concurrent* traffic is batched server-side.  This module is
that server: :class:`ServingDaemon` listens on a unix socket, admits
single-query requests from many concurrent clients, and coalesces them
under a latency budget into batched index calls — every answer stays
bit-identical to the serial path (the daemon only changes *how* requests
are grouped, never how any pair is decided, and JSON's shortest-round-trip
float encoding is exact over the wire).

Operational behaviour, in the order a request experiences it:

* **admission control** — a bounded queue (``max_queue``); a full queue
  rejects with the typed :class:`Overloaded` error instead of queueing
  unboundedly, and a draining daemon rejects with :class:`Draining`;
* **coalescing** — an idle executor is handed a request at once; what
  queues while a batch executes (at most ``max_batch``) forms the next
  batch, each (kind, parameters) group of it one batched call, so batch
  size follows load (a positive ``batch_window_ms`` holds a batch open);
* **graceful degradation** — past ``shed_threshold`` queued requests,
  ``top_k`` requests asking for ``rank_by="exact"`` are shed to
  ``"estimate"`` (marked ``degraded`` in the response): estimate ranking
  reuses hash agreements instead of touching raw vectors, trading the
  documented accuracy envelope for latency under pressure;
* **deadlines** — a per-request ``deadline_ms`` is enforced at dispatch
  (expired requests never execute), propagated into the batch's
  ``round_timeout`` (a hung worker cannot stall past the tightest
  deadline), and re-checked at completion; a missed deadline is the typed
  :class:`DeadlineExceeded` error;
* **durable ingest** — ``insert``/``delete`` ops run through the index's
  mutators on the daemon's single executor thread (serialising with query
  batches); with a WAL attached to the index every acknowledged mutation
  is recoverable after a SIGKILL (see :mod:`repro.serving.wal`), and an
  ``idempotency_key`` on the request makes client retries apply at most
  once (replayed responses come from a bounded in-daemon cache);
* **ops endpoints** — ``health``/``ready`` (degraded to not-ready while a
  WAL replay is recovering the index), ``stats`` (including the resident
  pool's health dict and the durability block: WAL bytes/records, fsync
  policy, last checkpoint, replay counters), ``snapshot`` and
  ``checkpoint`` (through a configured
  :class:`~repro.serving.snapshot.SnapshotStore`; a checkpoint seals and
  prunes the WAL), ``wal_stats`` and ``drain`` (reject new work, finish
  everything admitted, then shut down).

The wire protocol is JSON lines (one request object per line, one response
object per line, a request line at most :data:`MAX_LINE_BYTES` long) — see
:class:`~repro.serving.client.DaemonClient` for the matching client.  See
``docs/serving.md`` ("Running the daemon") for the knob-by-knob ops guide.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.testing import faults as _faults

__all__ = [
    "MAX_LINE_BYTES",
    "DaemonError",
    "DeadlineExceeded",
    "Draining",
    "Overloaded",
    "ServingDaemon",
    "decode_vector",
    "encode_vector",
]

#: Longest request line the protocol allows, newline included (16 MiB — a
#: few thousand dense rows per insert).  A longer line is answered with a
#: ``bad_request`` error and its connection is closed: the rest of the line
#: is still in flight, so the stream cannot be resynchronised.
MAX_LINE_BYTES = 16 * 1024 * 1024


class DaemonError(RuntimeError):
    """Base class for daemon-side request failures surfaced to clients."""


class Overloaded(DaemonError):
    """The daemon's admission queue is full; the request was rejected.

    Back off and retry: the request was never admitted, so retrying cannot
    duplicate work.
    """


class Draining(DaemonError):
    """The daemon is draining for shutdown and admits no new requests."""


class DeadlineExceeded(DaemonError):
    """The request's deadline expired before a result could be returned.

    Raised whether the deadline expired while queued (the request never
    executed) or mid-execution (the result was computed too late and is
    withheld for consistency — a deadline is a promise, not a hint).
    """


def encode_vector(vector) -> dict:
    """Encode one query vector as a JSON-safe wire object.

    Three forms are supported, mirroring what the index accepts:

    * a dense row (list/1-D array of floats) → ``{"dense": [...]}``;
    * a token-id set (set/list of ints) → ``{"tokens": [...]}``;
    * a sparse row → ``{"sparse": {"indices": [...], "values": [...]}}``.

    All three decode to the same canonical CSR row the in-process API
    builds, so daemon answers are bit-identical to calling the index
    directly with the original vector.
    """
    if isinstance(vector, dict) and (
        set(vector) & {"dense", "tokens", "sparse"}
    ):
        return vector  # already wire-encoded
    if isinstance(vector, (set, frozenset)):
        return {"tokens": sorted(int(t) for t in vector)}
    if sp.issparse(vector):
        row = vector.tocsr()
        if row.shape[0] != 1:
            raise ValueError(f"expected a single vector, got {row.shape[0]} rows")
        return {
            "sparse": {
                "indices": [int(i) for i in row.indices],
                "values": [float(v) for v in row.data],
            }
        }
    array = np.asarray(vector)
    if array.ndim == 1 and array.size and np.issubdtype(array.dtype, np.integer):
        return {"tokens": sorted(int(t) for t in array)}
    return {"dense": [float(v) for v in np.atleast_1d(array.astype(np.float64))]}


def _decode_entries(wire: dict, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(feature indices, weights)`` of one wire vector object."""
    if not isinstance(wire, dict):
        raise ValueError("vector must be an object with dense/tokens/sparse")
    if "dense" in wire:
        row = np.asarray(wire["dense"], dtype=np.float64)
        if row.ndim != 1 or len(row) != n_features:
            raise ValueError(
                f"dense vector must have {n_features} entries, got {row.shape}"
            )
        indices = np.flatnonzero(row)
        values = row[indices]
    elif "tokens" in wire:
        indices = np.unique(np.asarray(wire["tokens"], dtype=np.int64))
        if len(indices) and (indices[0] < 0 or indices[-1] >= n_features):
            raise ValueError(f"token ids must lie in [0, {n_features})")
        values = np.ones(len(indices), dtype=np.float64)
    elif "sparse" in wire:
        spec = wire["sparse"]
        indices = np.asarray(spec["indices"], dtype=np.int64)
        values = np.asarray(spec["values"], dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("sparse indices and values must have equal length")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_features):
            raise ValueError(f"sparse indices must lie in [0, {n_features})")
    else:
        raise ValueError("vector object needs one of: dense, tokens, sparse")
    # at admission: what the index would reject must not reach a shared batch
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise ValueError("vector weights must be finite and non-negative")
    return indices, values


def _stack_rows(entries: list, n_features: int) -> sp.csr_matrix:
    """Decoded vectors as the rows of one CSR matrix (canonicalised by the index)."""
    indptr = np.cumsum([0] + [len(indices) for indices, _ in entries])
    data = np.concatenate([values for _, values in entries])
    indices = np.concatenate([indices for indices, _ in entries])
    return sp.csr_matrix((data, indices, indptr), shape=(len(entries), n_features))


def decode_vector(wire: dict, n_features: int) -> sp.csr_matrix:
    """Decode a wire vector object into one canonical CSR row.

    The inverse of :func:`encode_vector`, pinned to the index's feature
    space.  Raises ``ValueError`` for malformed objects and for negative or
    non-finite weights (surfaced to the client as a ``bad_request`` error,
    never a dropped connection).
    """
    return _stack_rows([_decode_entries(wire, n_features)], n_features)


@dataclass
class _Request:
    """One admitted query request travelling through the batcher."""

    kind: str  # "query" | "top_k"
    entries: tuple  # the decoded vector: (feature indices, weights)
    params: dict
    future: asyncio.Future
    deadline: float | None  # absolute loop time, None = no deadline
    degraded: bool = field(default=False)


class ServingDaemon:
    """Socket server coalescing single-query requests into batched calls.

    Parameters
    ----------
    index:
        The :class:`~repro.search.query.QueryIndex` to serve.  Batched
        calls leave ``n_workers`` unset, so they run on the index's
        resident pool when one is attached (see ``pool_workers``).
    socket_path:
        Unix-domain socket path to listen on (created at :meth:`start`,
        unlinked at :meth:`stop`).
    batch_window_ms:
        How long the batcher holds a batch that is not full after its first
        request, waiting for more to coalesce with.  ``0`` (the default)
        never holds: requests coalesce only with what queued while the
        previous batch executed, so batch size follows load.
    max_batch:
        Upper bound on requests coalesced into one batched call.
    max_queue:
        Admission bound: requests beyond this many queued are rejected
        with :class:`Overloaded`.
    shed_threshold:
        Outstanding-request depth (still queued plus the batch being
        dispatched) at which ``top_k(rank_by="exact")`` requests are shed
        to estimate ranking (``None`` defaults to half of ``max_queue``;
        shedding requires the index's ``verification="bayes"``).
    default_deadline_ms:
        Deadline applied to requests that do not carry their own
        (``None`` = no implicit deadline).
    pool_workers:
        When set, :meth:`start` attaches a resident pool of this many
        workers to the index (``index.start_pool``) and :meth:`stop`
        closes it — the daemon owns the pool.  Leave ``None`` to serve on
        whatever the index already has (resident pool or serial).
    snapshot_store:
        A :class:`~repro.serving.snapshot.SnapshotStore` (or a directory
        path for one) backing the ``snapshot`` ops endpoint; ``None``
        disables the endpoint.
    """

    def __init__(
        self,
        index,
        socket_path,
        batch_window_ms: float = 0.0,
        max_batch: int = 64,
        max_queue: int = 128,
        shed_threshold: int | None = None,
        default_deadline_ms: float | None = None,
        pool_workers: int | None = None,
        snapshot_store=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be at least 1, got {max_queue}")
        self._index = index
        self._socket_path = str(socket_path)
        self._batch_window = float(batch_window_ms) / 1000.0
        self._max_batch = int(max_batch)
        self._max_queue = int(max_queue)
        self._shed_threshold = (
            max(1, self._max_queue // 2) if shed_threshold is None else int(shed_threshold)
        )
        self._default_deadline = (
            None if default_deadline_ms is None else float(default_deadline_ms) / 1000.0
        )
        self._pool_workers = pool_workers
        self._owns_pool = False
        if snapshot_store is not None and not hasattr(snapshot_store, "save"):
            from repro.serving.snapshot import SnapshotStore

            snapshot_store = SnapshotStore(snapshot_store)
        self._snapshots = snapshot_store
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._queue: asyncio.Queue | None = None
        self._server = None
        self._batcher_task = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._draining = False
        self._inflight = 0
        self._last_checkpoint: str | None = None
        # Idempotency-key → response future; a retried mutation with the
        # same key awaits (or replays) the first execution instead of
        # re-applying.  Bounded FIFO — old keys age out.
        self._idempotency: OrderedDict[str, asyncio.Future] = OrderedDict()
        self._idempotency_limit = 1024
        self._stats = {
            "requests": 0,
            "batches": 0,
            "coalesced_batches": 0,
            "max_batch_observed": 0,
            "shed": 0,
            "rejected_overloaded": 0,
            "rejected_draining": 0,
            "deadline_misses": 0,
            "bad_requests": 0,
            "inserts": 0,
            "deletes": 0,
            "idempotent_hits": 0,
            "checkpoints": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle (called from the owning thread)
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingDaemon":
        """Start serving in a background thread; returns once listening.

        Attaches the daemon-owned resident pool first when ``pool_workers``
        is set.  Raises if the daemon was already started — a daemon is
        single-use (create a fresh one to serve again after :meth:`stop`).
        """
        if self._thread is not None:
            raise RuntimeError("daemon already started; daemons are single-use")
        if self._pool_workers is not None:
            self._index.start_pool(self._pool_workers)
            self._owns_pool = True
        self._thread = threading.Thread(
            target=self._thread_main, name="serving-daemon", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if not self._started.is_set():
            raise RuntimeError("daemon failed to start within 30s")
        return self

    def stop(self) -> None:
        """Stop the server, the batcher and the daemon-owned pool (idempotent).

        Pending futures are failed with :class:`Draining`; for a loss-free
        shutdown, :meth:`~repro.serving.client.DaemonClient.drain` first.
        """
        thread = self._thread
        if thread is None or self._stopped.is_set():
            self._close_owned_pool()
            return
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:
                pass  # loop already closed
        thread.join(timeout=30)
        self._stopped.set()
        self._close_owned_pool()

    def _close_owned_pool(self) -> None:
        """Close the resident pool if this daemon attached it."""
        if self._owns_pool:
            self._owns_pool = False
            self._index.close()

    def __enter__(self) -> "ServingDaemon":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`stop`."""
        self.stop()

    # ------------------------------------------------------------------ #
    # event-loop thread
    # ------------------------------------------------------------------ #
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        finally:
            self._started.set()  # unblock start() even on failure
            self._stopped.set()

    def _signal_stop(self) -> None:
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop_event = asyncio.Event()
        # One executor thread: batches serialise on the resident pool's
        # lease anyway, and a single worker keeps index access single-file
        # without holding the event loop hostage.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="daemon-exec"
        )
        self._batcher_task = asyncio.ensure_future(self._batch_loop())
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self._socket_path, limit=MAX_LINE_BYTES
        )
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self._batcher_task.cancel()
            try:
                await self._batcher_task
            except (asyncio.CancelledError, Exception):
                pass
            self._drain_queue_with_error(Draining("daemon stopped"))
            self._executor.shutdown(wait=True)
            try:
                import os

                os.unlink(self._socket_path)
            except OSError:
                pass

    def _drain_queue_with_error(self, error: Exception) -> None:
        """Fail every still-queued request with ``error`` (loop thread)."""
        queue = self._queue
        while queue is not None and not queue.empty():
            request = queue.get_nowait()
            if not request.future.done():
                request.future.set_exception(error)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # asyncio's report of a line over `limit`
                    self._stats["bad_requests"] += 1
                    response = {
                        "ok": False,
                        "error": "bad_request",
                        "message": f"request line exceeds {MAX_LINE_BYTES} bytes",
                    }
                    writer.write(json.dumps(response).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    response = await self._handle_request(json.loads(line))
                except Exception as exc:  # never tear the connection
                    response = {"ok": False, "error": "error", "message": str(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if response.get("stop_after_reply"):
                    del response["stop_after_reply"]
                    self._signal_stop()
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op in ("query", "top_k"):
            return await self._handle_query(op, request)
        if op in ("insert", "delete"):
            return await self._handle_ingest(op, request)
        if op == "health":
            replaying = bool(self._index.replaying)
            return {
                "ok": True,
                "serving": not self._draining and not replaying,
                "draining": self._draining,
                "replaying": replaying,
            }
        if op == "ready":
            ready = (
                self._batcher_task is not None
                and not self._batcher_task.done()
                and not self._index.replaying
            )
            return {
                "ok": ready,
                "ready": ready,
                "draining": self._draining,
                "replaying": bool(self._index.replaying),
            }
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "snapshot":
            return await self._handle_snapshot(request)
        if op == "checkpoint":
            return await self._handle_checkpoint(request)
        if op == "wal_stats":
            return {"ok": True, "wal": self._index.wal_stats()}
        if op == "drain":
            return await self._handle_drain()
        self._stats["bad_requests"] += 1
        return {"ok": False, "error": "bad_request", "message": f"unknown op {op!r}"}

    async def _handle_query(self, kind: str, request: dict) -> dict:
        if self._draining:
            self._stats["rejected_draining"] += 1
            return {
                "ok": False,
                "error": "draining",
                "message": "daemon is draining; no new requests admitted",
            }
        if self._queue.qsize() >= self._max_queue:
            self._stats["rejected_overloaded"] += 1
            return {
                "ok": False,
                "error": "overloaded",
                "message": (
                    f"admission queue is full ({self._max_queue} requests); "
                    "back off and retry"
                ),
            }
        try:
            entries = _decode_entries(
                request.get("vector"), self._index._segments.n_features
            )
            params = self._query_params(kind, request)
            deadline = self._request_deadline(request)
        except (ValueError, TypeError, KeyError) as exc:
            self._stats["bad_requests"] += 1
            return {"ok": False, "error": "bad_request", "message": str(exc)}
        loop = asyncio.get_running_loop()
        item = _Request(
            kind=kind,
            entries=entries,
            params=params,
            future=loop.create_future(),
            deadline=None if deadline is None else loop.time() + deadline,
        )
        self._stats["requests"] += 1
        _faults.fire("daemon_admit", daemon=self)
        self._queue.put_nowait(item)
        try:
            pairs, n_exact = await item.future
        except DaemonError as exc:
            code = {
                Overloaded: "overloaded",
                DeadlineExceeded: "deadline",
                Draining: "draining",
            }.get(type(exc), "error")
            return {"ok": False, "error": code, "message": str(exc)}
        return {"ok": True, "result": pairs, "n_exact": n_exact, "degraded": item.degraded}

    def _query_params(self, kind: str, request: dict) -> dict:
        """Validated per-request parameters (the batch grouping key).

        Everything the index call would refuse is refused here, so a bad
        value costs its sender a ``bad_request`` and nobody a batch slot.
        """
        if kind == "query":
            threshold = request.get("threshold")
            if threshold is None:
                return {"threshold": None}
            threshold = float(threshold)
            if not 0.0 < threshold < 1.0:  # NaN fails this too
                raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
            return {"threshold": threshold}
        rank_by = request.get("rank_by", "exact")
        if rank_by not in ("exact", "estimate"):
            raise ValueError(f"rank_by must be 'exact' or 'estimate', got {rank_by!r}")
        k = int(request.get("k", 10))
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return {
            "k": k,
            "floor_threshold": float(request.get("floor_threshold", 0.1)),
            "rank_by": rank_by,
        }

    def _request_deadline(self, request: dict) -> float | None:
        """Seconds the request may take: its ``deadline_ms``, else the default."""
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return self._default_deadline
        try:
            seconds = float(deadline_ms) / 1000.0
        except (TypeError, ValueError):
            seconds = math.nan
        if math.isnan(seconds):
            raise ValueError(f"deadline_ms must be a number, got {deadline_ms!r}")
        return seconds

    # ------------------------------------------------------------------ #
    # durable ingest
    # ------------------------------------------------------------------ #
    async def _handle_ingest(self, op: str, request: dict) -> dict:
        """Apply one ``insert``/``delete`` request, at most once per key.

        Mutations run on the single executor thread, so they serialise
        naturally with query batches.  With an ``idempotency_key`` on the
        request, the first execution parks a future in a bounded FIFO map:
        a retry that arrives *mid-execution* awaits that future (never
        re-applying), and a retry after completion replays the cached
        response.  Failed executions drop the key so a later retry can
        run the mutation for real.
        """
        if self._draining:
            self._stats["rejected_draining"] += 1
            return {
                "ok": False,
                "error": "draining",
                "message": "daemon is draining; no new requests admitted",
            }
        key = request.get("idempotency_key")
        if key is not None:
            cached = self._idempotency.get(key)
            if cached is not None:
                self._stats["idempotent_hits"] += 1
                return dict(await asyncio.shield(cached))
        try:
            call = self._ingest_call(op, request)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            self._stats["bad_requests"] += 1
            return {"ok": False, "error": "bad_request", "message": str(exc)}
        loop = asyncio.get_running_loop()
        holder = None
        if key is not None:
            holder = loop.create_future()
            self._idempotency[str(key)] = holder
            while len(self._idempotency) > self._idempotency_limit:
                self._idempotency.popitem(last=False)
        _faults.fire("daemon_ingest", daemon=self, op=op)
        try:
            response = await loop.run_in_executor(self._executor, call)
        except Exception as exc:
            response = {"ok": False, "error": "error", "message": f"{op} failed: {exc}"}
            if holder is not None:
                # A failed mutation must not be "remembered" as done — drop
                # the key so a genuine retry re-executes; duplicates already
                # awaiting the holder still get this error response.
                self._idempotency.pop(str(key), None)
                holder.set_result(response)
            return response
        if holder is not None:
            holder.set_result(response)
        return response

    def _ingest_call(self, op: str, request: dict):
        """Validate an ingest request; return the executor-thread callable.

        Validation happens *before* any idempotency holder is created, so a
        malformed request is rejected without poisoning its key.
        """
        if op == "insert":
            vectors = request.get("vectors")
            if not isinstance(vectors, list) or not vectors:
                raise ValueError("insert needs a non-empty 'vectors' list")
            n_features = self._index._segments.n_features
            matrix = _stack_rows([_decode_entries(v, n_features) for v in vectors], n_features)
            ids = request.get("ids")
            if ids is not None:
                ids = [int(i) for i in ids]
                if len(ids) != matrix.shape[0]:
                    raise ValueError(
                        f"ids length {len(ids)} does not match "
                        f"{matrix.shape[0]} vectors"
                    )

            def call() -> dict:
                rows = self._index.insert(matrix, ids=ids)
                self._stats["inserts"] += 1
                return {"ok": True, "rows": [int(r) for r in rows]}

            return call
        rows_spec = request.get("rows")
        if not isinstance(rows_spec, list) or not rows_spec:
            raise ValueError("delete needs a non-empty 'rows' list")
        rows = np.asarray([int(r) for r in rows_spec], dtype=np.int64)

        def call() -> dict:
            deleted = self._index.delete(rows)
            self._stats["deletes"] += 1
            return {"ok": True, "deleted": int(deleted)}

        return call

    # ------------------------------------------------------------------ #
    # ops endpoints
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Current serving counters, knobs and resident-pool health."""
        return {
            **self._stats,
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
            "inflight": self._inflight,
            "draining": self._draining,
            "config": {
                "batch_window_ms": self._batch_window * 1000.0,
                "max_batch": self._max_batch,
                "max_queue": self._max_queue,
                "shed_threshold": self._shed_threshold,
                "default_deadline_ms": (
                    None
                    if self._default_deadline is None
                    else self._default_deadline * 1000.0
                ),
            },
            "pool": self._index.pool_stats(),
            "durability": {
                "wal": self._index.wal_stats(),
                "replay": self._index.replay_stats(),
                "last_checkpoint": self._last_checkpoint,
            },
        }

    async def _handle_snapshot(self, request: dict) -> dict:
        if self._snapshots is None:
            return {
                "ok": False,
                "error": "bad_request",
                "message": "no snapshot store configured",
            }
        layout = request.get("layout")
        if layout not in (None, "flat"):
            return {
                "ok": False,
                "error": "bad_request",
                "message": f"layout must be 'flat' (the only snapshot format), got {layout!r}",
            }
        loop = asyncio.get_running_loop()
        path = await loop.run_in_executor(
            self._executor, functools.partial(self._snapshots.save, self._index)
        )
        self._last_checkpoint = str(path)
        return {"ok": True, "path": str(path)}

    async def _handle_checkpoint(self, request: dict) -> dict:
        """Persist a snapshot and (with a WAL attached) seal+prune the log.

        The snapshot machinery does the real work — ``save_query_index``
        rolls the WAL atomically with the payload capture and
        ``SnapshotStore.save`` prunes segments no retained snapshot needs —
        so this endpoint is ``snapshot`` plus the post-checkpoint WAL view
        in the response.
        """
        if self._index.wal is None:
            return {
                "ok": False,
                "error": "bad_request",
                "message": "no WAL attached to the index; use 'snapshot' instead",
            }
        response = await self._handle_snapshot(request)
        if not response.get("ok"):
            return response
        self._stats["checkpoints"] += 1
        response["wal"] = self._index.wal_stats()
        return response

    async def _handle_drain(self) -> dict:
        """Reject new work, finish everything admitted, then shut down."""
        self._draining = True
        while (self._queue is not None and not self._queue.empty()) or self._inflight:
            await asyncio.sleep(0.005)
        return {"ok": True, "drained": True, "stop_after_reply": True}

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #
    async def _batch_loop(self) -> None:
        """Pull requests forever: each batch is what queued while the last ran.

        An idle executor gets the first request at once; a positive
        ``batch_window_ms`` holds a batch that is not full for that long.
        """
        queue = self._queue
        loop = asyncio.get_running_loop()
        while True:
            batch = [await queue.get()]
            window_closes = loop.time() + self._batch_window
            while len(batch) < self._max_batch:
                if not queue.empty():
                    batch.append(queue.get_nowait())
                    continue
                remaining = window_closes - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(queue.get(), remaining))
                except asyncio.TimeoutError:
                    break
            self._inflight += len(batch)
            try:
                await self._execute_batch(batch)
            finally:
                self._inflight -= len(batch)

    async def _execute_batch(self, batch: list) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._stats["batches"] += 1
        if len(batch) > 1:
            self._stats["coalesced_batches"] += 1
        self._stats["max_batch_observed"] = max(
            self._stats["max_batch_observed"], len(batch)
        )
        live: list[_Request] = []
        for item in batch:
            if item.deadline is not None and now >= item.deadline:
                self._stats["deadline_misses"] += 1
                item.future.set_exception(
                    DeadlineExceeded("deadline expired while queued")
                )
            else:
                live.append(item)
        if not live:
            return
        # QoS shedding: past the queue-depth threshold, exact top-k ranking
        # degrades to estimate ranking (documented accuracy-for-latency
        # trade; only meaningful under bayes verification).  Depth counts
        # outstanding work — still-queued requests plus this dispatch —
        # so a full batch pulled off the queue still registers as pressure.
        depth = self._queue.qsize() + len(live)
        if depth >= self._shed_threshold and self._index.verification == "bayes":
            for item in live:
                if item.kind == "top_k" and item.params["rank_by"] == "exact":
                    item.params["rank_by"] = "estimate"
                    item.degraded = True
                    self._stats["shed"] += 1
        resident = getattr(self._index, "_resident", None)
        _faults.fire(
            "daemon_batch",
            daemon=self,
            pool=None if resident is None else resident._pool,
            batch_size=len(live),
            round_index=self._stats["batches"] - 1,
        )
        groups: dict[tuple, list[_Request]] = {}
        for item in live:
            key = (item.kind, *sorted(item.params.items()))
            groups.setdefault(key, []).append(item)
        for members in groups.values():
            await self._execute_group(members, loop)

    async def _execute_group(self, members: list, loop) -> None:
        """Run one (kind, params) group as a single batched index call."""
        deadlines = [m.deadline for m in members if m.deadline is not None]
        round_timeout = None
        if deadlines:
            round_timeout = max(min(deadlines) - loop.time(), 0.001)
        matrix = _stack_rows([m.entries for m in members], self._index._segments.n_features)
        first = members[0]
        if first.kind == "query":
            call = functools.partial(
                self._index.query_many,
                matrix,
                threshold=first.params["threshold"],
                round_timeout=round_timeout,
            )
        else:
            call = functools.partial(
                self._index.top_k_many,
                matrix,
                k=first.params["k"],
                floor_threshold=first.params["floor_threshold"],
                rank_by=first.params["rank_by"],
                round_timeout=round_timeout,
            )
        try:
            results = await loop.run_in_executor(self._executor, call)
        except Exception as exc:
            for member in members:
                if not member.future.done():
                    member.future.set_exception(
                        DaemonError(f"batched call failed: {exc}")
                    )
            return
        now = loop.time()
        for member, scored in zip(members, results):
            if member.future.done():
                continue
            if member.deadline is not None and now >= member.deadline:
                self._stats["deadline_misses"] += 1
                member.future.set_exception(
                    DeadlineExceeded("deadline expired during execution")
                )
                continue
            member.future.set_result(
                (
                    [[int(pair.j), float(pair.similarity)] for pair in scored],
                    scored.n_exact,
                )
            )
