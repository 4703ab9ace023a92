"""Fault-injection harness for the worker pools, daemon and snapshot writer.

The production code carries a handful of *injection seams*: at well-defined
points it calls :func:`fire`, which is a no-op unless a test has installed
a :class:`FaultPlan` via :func:`inject`.  The seams are:

* ``pool_start`` — a worker pool just forked (installs queue faults; a
  worker killed here is lost before its first request);
* ``serving_estimates`` — a pooled batch's rounds (counted in the parent)
  have ended and the terminal rule (the outcome, then exact scoring of the
  exhausted pairs) is next;
* ``serving_exact`` — the serving pool is about to be sent a batch's exact
  similarities;
* ``pool_respawn`` — a resident pool just respawned a dead worker slot
  (fires after the fresh process started, before the next batch uses it);
* ``daemon_admit`` — the daemon admitted one request into its queue;
* ``daemon_batch`` — the daemon is about to execute a coalesced batch
  (``round_index`` is the batch counter, ``pool`` the resident pool's
  worker pool or ``None`` when serving serially, ``batch_size`` the number
  of live requests) — killing a worker here is the canonical
  "kill mid-batch with waiting clients" scenario;
* ``snapshot_replace`` — the window between a dataset collection archive's
  temp-file write and its atomic rename (via
  :func:`repro.datasets.io.atomic_writer`);
* ``flat_replace`` — the same window for a snapshot's ``MANIFEST.json``
  commit point (the data files are already on disk, unreferenced, when it
  fires);
* ``wal_append`` — a write-ahead-log record's bytes just hit the segment
  file, *before* any fsync (``wal``/``path``/``seq`` in the info dict) — a
  kill here loses an unacknowledged record or not, both legal;
* ``wal_fsync`` — the WAL just fsynced the segment (record durable, the
  in-memory apply and the acknowledgement still pending) — a kill here is
  the durable-but-unacked case replay must re-apply;
* ``wal_replace`` — the torn-tail repair's write→rename window (the WAL's
  :func:`~repro.datasets.io.atomic_writer` seam, like ``snapshot_replace``);
* ``wal_replay`` — one WAL record was just re-applied during recovery
  (``index``/``seq`` in the info dict) — lets tests observe or block a
  replay in progress;
* ``daemon_ingest`` — the daemon admitted one ``insert``/``delete`` op
  (fires before the index call executes).

A plan schedules faults against those seams:

* :meth:`FaultPlan.kill_worker` — SIGKILL a chosen worker when a chosen
  event fires (e.g. a batch's exact scoring), simulating an OOM kill or
  native crash;
* :meth:`FaultPlan.hang_worker` — SIGSTOP a worker so it stays alive but
  silent, exercising the supervisor's ``round_timeout`` hung-worker path;
* :meth:`FaultPlan.delay_worker` — make a worker sleep before processing
  its next message (a slow-but-healthy worker must *not* be killed when the
  delay stays under ``round_timeout``);
* :meth:`FaultPlan.drop_messages` — silently swallow parent→worker control
  messages of a given tag, simulating queue message loss (the worker never
  replies, so recovery requires ``round_timeout``);
* :meth:`FaultPlan.crash_before_replace` / :meth:`FaultPlan.truncate_snapshot`
  / :meth:`FaultPlan.corrupt_snapshot` — abort, truncate or bit-flip a
  snapshot in the write→rename window, driving the crash-safety tests;
* :meth:`FaultPlan.kill_process` — SIGKILL the *current process* when a
  chosen event fires for the n-th time (run it in a sacrificial fork!) —
  the primitive behind the WAL's SIGKILL-at-every-seam recovery matrix;
* :meth:`FaultPlan.on_event` — run an arbitrary callback when an event
  fires (e.g. block ``wal_replay`` to observe a daemon degrading its
  readiness while recovery is in progress).

Usage::

    from repro.testing import faults

    with faults.inject() as plan:
        plan.kill_worker(1, event="serving_exact")
        results = index.query_many(batch, n_workers=4)

Every scheduled fault fires at most once; ``plan.fired`` records what
actually triggered so tests can assert the fault really happened.  The
harness is deliberately parent-side only — it needs no cooperation from the
workers beyond the ``_fault_sleep`` control message — so installing a plan
never perturbs the code under test until a fault actually fires.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

__all__ = ["FaultPlan", "InjectedCrash", "fire", "inject"]

#: the active plan; ``None`` keeps every seam a no-op
_INJECTOR: "FaultPlan | None" = None


def fire(event: str, **info) -> None:
    """Trigger ``event`` at an injection seam (no-op without an active plan).

    Called by the production code; ``info`` carries the seam's context
    (the worker pool, the round index, the snapshot temp path, ...).
    """
    injector = _INJECTOR
    if injector is not None:
        injector.dispatch(event, info)


class InjectedCrash(RuntimeError):
    """Raised by :meth:`FaultPlan.crash_before_replace` to simulate process death.

    The snapshot writer deliberately skips its temp-file cleanup for this
    exception (a real crash would not clean up either), so tests observe the
    exact on-disk state an interrupted save leaves behind.
    """


class _DroppingQueue:
    """Task-queue proxy that swallows the first ``count`` puts of a tag."""

    def __init__(self, queue, tag: str, count: int, plan: "FaultPlan"):
        self._queue = queue
        self._tag = tag
        self._count = count
        self._plan = plan

    def put(self, message, *args, **kwargs):
        if self._count > 0 and isinstance(message, tuple) and message[:1] == (self._tag,):
            self._count -= 1
            self._plan.fired.append(("drop", self._tag))
            return None
        return self._queue.put(message, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._queue, name)


class FaultPlan:
    """A schedule of faults to fire at the injection seams.

    Build one through :func:`inject`; the methods below arm individual
    faults.  ``fired`` lists ``(kind, detail)`` tuples for every fault that
    actually triggered.
    """

    def __init__(self):
        self._actions: list[dict] = []
        self.fired: list[tuple] = []

    # ------------------------------------------------------------------ #
    # worker faults
    # ------------------------------------------------------------------ #
    def kill_worker(
        self, worker: int, event: str = "serving_exact", round_index: int | None = None
    ) -> None:
        """SIGKILL worker ``worker`` of the pool active when ``event`` fires.

        ``round_index`` restricts a numbered event (``daemon_batch``) to one
        firing; it is ignored when ``None``.
        """
        self._actions.append(
            {"kind": "kill", "worker": worker, "event": event, "round_index": round_index}
        )

    def hang_worker(
        self, worker: int, event: str = "serving_exact", round_index: int | None = None
    ) -> None:
        """SIGSTOP a worker (alive but silent) when ``event`` fires.

        The supervisor can only recover from a hang when a ``round_timeout``
        is configured — a stopped worker still passes the liveness check.
        """
        self._actions.append(
            {"kind": "hang", "worker": worker, "event": event, "round_index": round_index}
        )

    def delay_worker(
        self,
        worker: int,
        seconds: float,
        event: str = "serving_exact",
        round_index: int | None = None,
    ) -> None:
        """Make a worker sleep ``seconds`` before its next message.

        Implemented by enqueueing a ``_fault_sleep`` control message ahead
        of the request about to be dispatched, so the delay is observed
        worker-side (unlike a parent-side sleep, it really does race the
        supervisor's deadline).
        """
        self._actions.append(
            {
                "kind": "delay",
                "worker": worker,
                "seconds": float(seconds),
                "event": event,
                "round_index": round_index,
            }
        )

    def drop_messages(self, worker: int, tag: str, count: int = 1) -> None:
        """Silently drop the next ``count`` parent→worker messages of ``tag``.

        Installed on the next pool start; the worker never sees the message
        and therefore never replies, so the parent's only recovery path is
        the ``round_timeout`` hung-worker deadline.
        """
        self._actions.append(
            {"kind": "drop", "worker": worker, "tag": tag, "count": int(count)}
        )

    # ------------------------------------------------------------------ #
    # snapshot faults (fire in the temp-write → atomic-rename window)
    # ------------------------------------------------------------------ #
    def crash_before_replace(self, event: str = "snapshot_replace") -> None:
        """Abort the save between temp-file write and atomic rename.

        Raises :class:`InjectedCrash` out of ``save_query_index``; the temp
        file is left on disk and the destination is never touched —
        exactly the state a process crash at that point leaves behind.
        ``event`` selects the atomic-writer seam: ``"snapshot_replace"``
        (a dataset collection archive) or ``"flat_replace"`` (a snapshot's
        manifest commit point).
        """
        self._actions.append({"kind": "snapshot_crash", "event": event})

    def truncate_snapshot(
        self, keep_fraction: float = 0.5, event: str = "snapshot_replace"
    ) -> None:
        """Truncate the snapshot temp file before the rename goes through.

        The rename then publishes a torn file — the load path must reject
        it with a typed error.  ``event`` selects the seam as in
        :meth:`crash_before_replace`.
        """
        self._actions.append(
            {
                "kind": "snapshot_truncate",
                "event": event,
                "keep_fraction": float(keep_fraction),
            }
        )

    def corrupt_snapshot(
        self,
        offset: int | None = None,
        flip: int = 0xFF,
        event: str = "snapshot_replace",
    ) -> None:
        """XOR one byte of the snapshot temp file before the rename.

        ``offset`` defaults to the middle of the file.  Publishes a
        bit-flipped file; the zip layer (a collection archive) or the
        manifest's self-CRC (``event="flat_replace"``) must catch it on load.
        """
        self._actions.append(
            {
                "kind": "snapshot_corrupt",
                "event": event,
                "offset": offset,
                "flip": int(flip),
            }
        )

    # ------------------------------------------------------------------ #
    # process faults and callbacks
    # ------------------------------------------------------------------ #
    def kill_process(
        self, event: str, after: int = 0, round_index: int | None = None
    ) -> None:
        """SIGKILL the current process on the ``after``-th later firing of ``event``.

        ``after=0`` dies on the first matching firing, ``after=1`` on the
        second, and so on — the knob that moves a crash to *every* armed
        seam occurrence in turn.  The signal is delivered to ``os.getpid()``
        and is not catchable, so this must only ever be armed inside a
        sacrificial child process (the WAL recovery matrix forks one per
        crash point); nothing after the firing runs, exactly like a real
        OOM kill.
        """
        self._actions.append(
            {
                "kind": "kill_process",
                "event": event,
                "after": int(after),
                "round_index": round_index,
            }
        )

    def on_event(
        self, event: str, callback, count: int = 1, round_index: int | None = None
    ) -> None:
        """Invoke ``callback(info)`` when ``event`` fires (``count`` times).

        The callback runs synchronously inside the production code's seam —
        on whatever thread fired it — so it can block (stalling a WAL replay
        while a test probes daemon health), raise, or record the seam's
        ``info`` dict for later assertions.
        """
        self._actions.append(
            {
                "kind": "callback",
                "event": event,
                "callback": callback,
                "count": int(count),
                "round_index": round_index,
            }
        )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _matches(self, action: dict, event: str, info: dict) -> bool:
        if action.get("event") != event:
            return False
        wanted_round = action.get("round_index")
        if wanted_round is not None and info.get("round_index") != wanted_round:
            return False
        return True

    def dispatch(self, event: str, info: dict) -> None:
        """Fire every armed action matching ``event`` (each at most once)."""
        if event == "pool_start":
            self._install_queue_faults(info["pool"])
        remaining: list[dict] = []
        for action in self._actions:
            if action["kind"] == "drop" or not self._matches(action, event, info):
                remaining.append(action)
                continue
            if action["kind"] == "kill_process" and action["after"] > 0:
                action["after"] -= 1
                remaining.append(action)
                continue
            if action["kind"] == "callback" and action["count"] > 1:
                action["count"] -= 1
                remaining.append(action)
            self._execute(action, info)
        self._actions = remaining

    def _install_queue_faults(self, pool) -> None:
        """Wrap the new pool's task queues for the armed ``drop`` faults."""
        for action in self._actions:
            if action["kind"] != "drop":
                continue
            worker = action["worker"]
            if worker < len(pool._task_queues):
                pool._task_queues[worker] = _DroppingQueue(
                    pool._task_queues[worker], action["tag"], action["count"], self
                )
                self.fired.append(("drop_armed", worker))

    def _execute(self, action: dict, info: dict) -> None:
        kind = action["kind"]
        if kind in ("kill", "hang", "delay"):
            pool = info.get("pool")
            if pool is None:
                return  # seam fired without a pool (e.g. serial daemon batch)
            worker = action["worker"]
            if worker >= len(pool._processes):
                return
            process = pool._processes[worker]
            if kind == "delay":
                pool._task_queues[worker].put(("_fault_sleep", action["seconds"]))
                self.fired.append(("delay", worker, action["seconds"]))
            elif process.is_alive():
                if kind == "kill":
                    os.kill(process.pid, signal.SIGKILL)
                    process.join(timeout=10)
                    self.fired.append(("kill", worker))
                else:  # hang
                    os.kill(process.pid, signal.SIGSTOP)
                    self.fired.append(("hang", worker))
        elif kind == "kill_process":
            self.fired.append(("kill_process", action["event"]))
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "callback":
            self.fired.append(("callback", action["event"]))
            action["callback"](info)
        elif kind == "snapshot_crash":
            self.fired.append(("snapshot_crash", str(info["tmp"])))
            raise InjectedCrash(f"injected crash before replacing {info['path']}")
        elif kind == "snapshot_truncate":
            tmp = Path(info["tmp"])
            data = tmp.read_bytes()
            keep = int(len(data) * action["keep_fraction"])
            tmp.write_bytes(data[:keep])
            self.fired.append(("snapshot_truncate", keep))
        elif kind == "snapshot_corrupt":
            tmp = Path(info["tmp"])
            data = bytearray(tmp.read_bytes())
            offset = action["offset"]
            if offset is None:
                offset = len(data) // 2
            data[offset] ^= action["flip"]
            tmp.write_bytes(bytes(data))
            self.fired.append(("snapshot_corrupt", offset))


class inject:
    """Context manager installing a fresh :class:`FaultPlan` as the active plan.

    Plans do not nest (the seams consult one module-global); entering while
    another plan is active raises ``RuntimeError``.
    """

    def __enter__(self) -> FaultPlan:
        global _INJECTOR
        if _INJECTOR is not None:
            raise RuntimeError("a fault-injection plan is already active")
        self._plan = FaultPlan()
        _INJECTOR = self._plan
        return self._plan

    def __exit__(self, exc_type, exc, tb) -> None:
        global _INJECTOR
        _INJECTOR = None
