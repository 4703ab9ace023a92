"""Closed- and open-loop load from one process with a fixed set of client threads.

A closed loop sends a client's next request only after the previous reply,
so a slow system receives less load: it measures what rate the system
sustains.  An open loop sends on a schedule regardless of replies, as
independent users do: each client thread takes the next unsent operation,
sleeps until it is due, sends it, and the latency is counted **from the due
time** — a stall in the system delays the operations due during it, and
that wait is theirs.  How late the generator itself ran (send time minus
due time) is reported beside the latencies, so a generator that could not
keep its schedule is visible.

``send(thread, op)`` does the request on the calling thread's own
connection and returns whatever the caller wants kept; an exception marks
the operation failed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass
class Record:
    """One operation as the generator saw it (times from ``perf_counter``)."""

    index: int
    op: object
    due: float
    sent: float
    done: float
    reply: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from when the operation was due until its reply."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from when the operation was sent until its reply."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        """Seconds the generator sent it after it was due."""
        return self.sent - self.due


def _attempt(send, thread: int, index: int, op, due: float) -> Record:
    sent = time.perf_counter()
    try:
        reply, error = send(thread, op), None
    except Exception as exc:  # the run goes on; the operation counts as failed
        reply, error = None, f"{type(exc).__name__}: {exc}"
    return Record(index, op, due, sent, time.perf_counter(), reply, error)


def _run_threads(n_threads: int, body) -> list[Record]:
    records: list[list[Record]] = [[] for _ in range(n_threads)]
    threads = [
        threading.Thread(target=body, args=(thread, records[thread]), name=f"loadgen-{thread}")
        for thread in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted((r for part in records for r in part), key=lambda r: r.index)


def open_loop(schedule, n_threads: int, send) -> list[Record]:
    """Send ``schedule`` — ``(seconds after start, op)`` in due order — on time."""
    cursor = iter(enumerate(schedule))
    lock = threading.Lock()
    start = time.perf_counter()

    def body(thread: int, out: list) -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, (offset, op) = item
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.append(_attempt(send, thread, index, op, due))

    return _run_threads(n_threads, body)


def closed_loop(ops, n_threads: int, send, seconds: float) -> list[Record]:
    """Each thread sends the next op of ``ops`` back-to-back until ``seconds`` pass.

    ``ops`` is an iterator shared by the threads; the loop also ends when it
    runs dry.  An operation is due the moment it is sent.
    """
    cursor = iter(enumerate(ops))
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def body(thread: int, out: list) -> None:
        while time.perf_counter() < deadline:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, op = item
            out.append(_attempt(send, thread, index, op, time.perf_counter()))

    return _run_threads(n_threads, body)


def fixed_rate(rate: float, seconds: float, offset: float = 0.0) -> list[float]:
    """Due times of a constant-rate stream: ``offset + k / rate`` below ``seconds``."""
    if rate <= 0:
        return []
    step = 1.0 / rate
    count = int((seconds - offset) * rate)
    return [offset + k * step for k in range(max(count, 0))]
