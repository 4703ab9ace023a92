"""Synchronous client for the resident serving daemon.

:class:`DaemonClient` speaks the JSON-lines protocol of
:class:`~repro.serving.daemon.ServingDaemon` over a unix-domain socket:
one request object per line out, one response object per line back.
Failures the daemon reports are re-raised as the daemon's typed errors
(:class:`~repro.serving.daemon.Overloaded`,
:class:`~repro.serving.daemon.DeadlineExceeded`,
:class:`~repro.serving.daemon.Draining`) so callers can branch on
exception type instead of parsing messages.

Transient transport failures — refused connects while the daemon is
(re)starting, resets and broken pipes when it is killed mid-exchange —
are retried with capped exponential backoff plus jitter, reconnecting
each time.  Retrying is always safe here: queries are read-only, and
every mutating request carries an ``idempotency_key`` (generated once
per logical call, resent verbatim on each retry) that the daemon uses
to apply the mutation at most once.  When the retry budget runs out the
client raises the typed :class:`RetriesExhausted`, chaining the last
transport error.

The client is deliberately small and dependency-free: one socket, one
buffered reader, blocking calls.  Drive concurrency by giving each thread
its own client — the daemon coalesces across connections, not within one.
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid

from repro.serving.daemon import (
    MAX_LINE_BYTES,
    DaemonError,
    DeadlineExceeded,
    Draining,
    Overloaded,
    encode_vector,
)

__all__ = ["DaemonClient", "RetriesExhausted"]

_ERRORS = {
    "overloaded": Overloaded,
    "deadline": DeadlineExceeded,
    "draining": Draining,
}

# Transport errors worth retrying: the daemon was unreachable or the
# connection died.  Socket *timeouts* are deliberately excluded — a
# timeout is the caller's transport guard firing, not a signal that
# reconnecting would help.
_TRANSIENT = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
    FileNotFoundError,
)


class RetriesExhausted(DaemonError):
    """Every transport retry failed; the daemon stayed unreachable.

    Raised after the configured attempt budget is spent on transient
    connect/reset errors.  The final underlying error is chained as
    ``__cause__``.  Mutations carry idempotency keys, so a request that
    *did* reach the daemon before the connection died was applied at
    most once regardless of how many retries followed.
    """


class DaemonClient:
    """Blocking unix-socket client for :class:`ServingDaemon`.

    Parameters
    ----------
    socket_path:
        The daemon's unix-domain socket path.
    timeout:
        Socket timeout in seconds for connect and each round trip
        (``None`` blocks forever).  This is a transport guard, distinct
        from the daemon-enforced per-request ``deadline_ms``.
    retries:
        How many times a transient transport failure (refused connect,
        reset, broken pipe) is retried before :class:`RetriesExhausted`;
        ``0`` disables retrying.
    backoff_ms / backoff_cap_ms:
        Exponential backoff schedule between retries: attempt *n* sleeps
        ``min(backoff_ms * 2**(n-1), backoff_cap_ms)`` milliseconds,
        jittered to a uniform fraction in [0.5, 1.0] of that bound so
        synchronised clients do not reconnect in lockstep.

    The last full response object is kept on :attr:`last_response` so
    callers can inspect fields beyond the result — most usefully the
    ``degraded`` flag set when the daemon shed an exact ranking request
    to estimate ranking under load.  :attr:`retry_stats` counts the
    transport retries and reconnects this client has performed.
    """

    def __init__(
        self,
        socket_path,
        timeout: float | None = 30.0,
        retries: int = 4,
        backoff_ms: float = 20.0,
        backoff_cap_ms: float = 500.0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self._socket_path = str(socket_path)
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff = float(backoff_ms) / 1000.0
        self._backoff_cap = float(backoff_cap_ms) / 1000.0
        self._socket: socket.socket | None = None
        self._reader = None
        self.last_response: dict | None = None
        self.retry_stats = {"retries": 0, "reconnects": 0}
        self._with_retries(self._connect)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        """(Re)connect the socket; transient failures propagate to _call."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        try:
            sock.connect(self._socket_path)
        except BaseException:
            sock.close()
            raise
        self._socket = sock
        self._reader = sock.makefile("rb")

    def _disconnect(self) -> None:
        """Drop the current connection so the next call reconnects."""
        if self._reader is not None:
            try:
                self._reader.close()
            except Exception:
                pass
            self._reader = None
        if self._socket is not None:
            try:
                self._socket.close()
            except Exception:
                pass
            self._socket = None

    def _call(self, request: dict) -> dict:
        """One request/response exchange with transparent retry.

        Transient transport errors reconnect and resend the *same*
        request object (idempotency keys included) under the backoff
        schedule; daemon-reported failures are raised as typed errors
        without retrying — the daemon answered, so the transport is fine
        and the rejection (overloaded, draining, bad request) is the
        caller's to handle.  A request too long for the protocol is
        refused here, as the daemon would refuse it: the daemon closes the
        connection of an over-long line mid-send, which would otherwise
        read as a transport failure and be retried.
        """
        payload = json.dumps(request).encode() + b"\n"
        if len(payload) > MAX_LINE_BYTES:
            raise DaemonError(
                f"request line exceeds {MAX_LINE_BYTES} bytes "
                f"(got {len(payload)}); split the batch"
            )
        return self._with_retries(lambda: self._exchange(payload))

    def _with_retries(self, fn):
        """Run ``fn`` under the transient-error retry/backoff schedule."""
        attempt = 0
        while True:
            try:
                return fn()
            except _TRANSIENT as exc:
                self._disconnect()
                attempt += 1
                if attempt > self._retries:
                    raise RetriesExhausted(
                        f"daemon unreachable after {attempt} attempt(s): {exc}"
                    ) from exc
                self.retry_stats["retries"] += 1
                bound = min(self._backoff * 2 ** (attempt - 1), self._backoff_cap)
                time.sleep(bound * (0.5 + random.random() / 2.0))

    def _exchange(self, payload: bytes) -> dict:
        """Send one encoded line, read one response line, raise typed errors."""
        if self._socket is None:
            self._connect()
            self.retry_stats["reconnects"] += 1
        self._socket.sendall(payload)
        line = self._reader.readline()
        if not line:
            raise ConnectionResetError("connection closed by daemon")
        response = json.loads(line)
        self.last_response = response
        if not response.get("ok", False) and "error" in response:
            error_cls = _ERRORS.get(response["error"], DaemonError)
            raise error_cls(response.get("message", response["error"]))
        return response

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._disconnect()

    def __enter__(self) -> "DaemonClient":
        """Context-manager entry: returns the connected client."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, vector, threshold=None, deadline_ms=None):
        """All-pairs matches for one vector: ``[[row, similarity], ...]``.

        Bit-identical to ``QueryIndex.query`` on the same vector;
        ``last_response["n_exact"]`` says how many of the similarities are
        exact values rather than estimates.  Raises :class:`Overloaded`,
        :class:`DeadlineExceeded` or :class:`Draining` when the daemon
        rejects or misses the request.
        """
        request = {"op": "query", "vector": encode_vector(vector)}
        if threshold is not None:
            request["threshold"] = float(threshold)
        if deadline_ms is not None:
            request["deadline_ms"] = float(deadline_ms)
        return self._call(request)["result"]

    def top_k(
        self,
        vector,
        k: int = 10,
        floor_threshold: float = 0.1,
        rank_by: str = "exact",
        deadline_ms=None,
    ):
        """Top-k neighbours for one vector: ``[[row, similarity], ...]``.

        Mirrors ``QueryIndex.top_k``; under daemon load the request may be
        shed from exact to estimate ranking, flagged by
        ``last_response["degraded"]``.
        """
        request = {
            "op": "top_k",
            "vector": encode_vector(vector),
            "k": int(k),
            "floor_threshold": float(floor_threshold),
            "rank_by": rank_by,
        }
        if deadline_ms is not None:
            request["deadline_ms"] = float(deadline_ms)
        return self._call(request)["result"]

    # ------------------------------------------------------------------ #
    # durable ingest
    # ------------------------------------------------------------------ #
    def insert(self, vectors, ids=None) -> list:
        """Insert a batch of vectors; returns their assigned row indices.

        ``vectors`` is any iterable of single vectors
        :func:`~repro.serving.daemon.encode_vector` accepts (a list of
        dense rows / token sets / 1-row sparse matrices, a 2-D array, or
        a sparse matrix — both iterate row-wise).  ``ids`` optionally
        assigns external identifiers, exactly as ``QueryIndex.insert``.

        The request carries a fresh ``idempotency_key``, so transport
        retries (daemon restarting, connection reset mid-ack) apply the
        batch at most once.
        """
        request: dict = {
            "op": "insert",
            "vectors": [encode_vector(v) for v in vectors],
            "idempotency_key": uuid.uuid4().hex,
        }
        if ids is not None:
            request["ids"] = [int(i) for i in ids]
        return self._call(request)["rows"]

    def delete(self, rows) -> int:
        """Tombstone indexed rows; returns how many were live.

        Mirrors ``QueryIndex.delete`` (idempotent per row).  Carries an
        ``idempotency_key`` so a retried delete is applied at most once —
        the returned live-count is the first execution's, replayed from
        the daemon's response cache on retry.
        """
        request = {
            "op": "delete",
            "rows": [int(r) for r in rows],
            "idempotency_key": uuid.uuid4().hex,
        }
        return self._call(request)["deleted"]

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Liveness probe: serving/draining/replaying flags.

        ``serving`` is false while the daemon drains *or* while a WAL
        replay is still recovering the index.
        """
        return self._call({"op": "health"})

    def ready(self) -> dict:
        """Readiness probe: ok iff the batcher accepts work and no replay runs."""
        return self._call({"op": "ready"})

    def stats(self) -> dict:
        """The daemon's counters, config, pool health and durability block."""
        return self._call({"op": "stats"})["stats"]

    def wal_stats(self) -> dict | None:
        """The served index's write-ahead-log stats (``None`` if no WAL)."""
        return self._call({"op": "wal_stats"})["wal"]

    def checkpoint(self) -> dict:
        """Crash-safe snapshot (+ seal-and-prune the WAL); ``{"path", "wal"}``.

        Requires a configured snapshot store.  ``wal`` is the
        post-checkpoint log view — segments older than every retained
        snapshot are already pruned — or ``None`` without a WAL.
        """
        response = self._call({"op": "checkpoint"})
        return {"path": response["path"], "wal": response["wal"]}

    def drain(self) -> dict:
        """Graceful shutdown: finish admitted work, then stop the daemon.

        New requests are rejected with :class:`Draining` from the moment
        this is called; the call returns once every admitted request has
        been answered and the daemon has begun shutting down.
        """
        return self._call({"op": "drain"})
