"""The batcher is work-conserving: batch size follows load, not a timer.

An idle daemon dispatches a request at once; whatever is admitted while a
batch occupies the executor leaves as the next batch; an explicit positive
``batch_window_ms`` still holds a batch open.  Times are read on the event
loop at the ``daemon_admit`` / ``daemon_batch`` seams, and queue build-up is
made deterministic by holding the batched index call on an event (the
``_Gate`` of the admission suite) — the loop stays free to admit meanwhile.
A request the index would reject is refused at admission, so it never takes a
shared batch down with it.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
import pytest

from repro.serving import DaemonClient, DaemonError, ServingDaemon
from repro.serving.daemon import decode_vector
from repro.testing import faults

from tests.daemon.conftest import as_pairs
from tests.daemon.test_admission import _Gate


def test_an_idle_daemon_dispatches_each_request_at_once(index, batch, socket_path):
    """Default settings: no hold between admission and dispatch, no coalescing."""
    n = 50
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    admitted: list[float] = []
    dispatched: list[float] = []
    with faults.inject() as plan:
        plan.on_event("daemon_admit", lambda info: admitted.append(time.perf_counter()), count=n)
        plan.on_event("daemon_batch", lambda info: dispatched.append(time.perf_counter()), count=n)
        with ServingDaemon(index, socket_path) as daemon:
            with DaemonClient(socket_path) as client:
                for i in range(n):
                    row = i % len(batch)
                    assert client.query(batch[row], threshold=0.55) == as_pairs(oracle[row])
            stats = daemon.stats()
    assert stats["config"]["batch_window_ms"] == 0.0
    assert stats["batches"] == n and stats["coalesced_batches"] == 0
    gaps = [out - at for at, out in zip(admitted, dispatched, strict=True)]
    assert statistics.median(gaps) < 1e-3, f"median admission-to-dispatch gap {gaps}"


def test_requests_admitted_during_a_batch_leave_as_one_bounded_batch(
    index, batch, socket_path
):
    """What queues while the executor is busy is the next batch, up to ``max_batch``."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    gate = _Gate(index)
    answers: dict[int, list] = {}
    sizes: list[int] = []
    all_admitted = threading.Event()
    n_admitted = []

    def note_admission(info) -> None:
        n_admitted.append(1)
        if len(n_admitted) == 7:
            all_admitted.set()

    def drive(i: int) -> None:
        with DaemonClient(socket_path) as client:
            answers[i] = client.query(batch[i], threshold=0.55)

    with faults.inject() as plan:
        plan.on_event("daemon_admit", note_admission, count=7)
        plan.on_event("daemon_batch", lambda info: sizes.append(info["batch_size"]), count=3)
        with ServingDaemon(index, socket_path, max_batch=4) as daemon:
            first = threading.Thread(target=drive, args=(0,))
            first.start()
            gate.wait_entered()  # request 0 holds the executor...
            waiters = [threading.Thread(target=drive, args=(i,)) for i in range(1, 7)]
            for thread in waiters:
                thread.start()
            # ...while the loop admits six more behind it
            assert all_admitted.wait(timeout=10), "the loop stopped admitting"
            gate.release()
            for thread in [first, *waiters]:
                thread.join(timeout=30)
                assert not thread.is_alive()
            stats = daemon.stats()
    assert sizes == [1, 4, 2]
    assert stats["batches"] == 3 and stats["coalesced_batches"] == 2
    assert stats["max_batch_observed"] == 4
    for i in range(7):
        assert answers[i] == as_pairs(oracle[i])


def test_an_explicit_window_still_holds_a_lone_request(index, batch, socket_path):
    """``batch_window_ms=25``: a batch that is not full waits the window out."""
    times: dict[str, float] = {}
    with faults.inject() as plan:
        plan.on_event("daemon_admit", lambda info: times.setdefault("in", time.perf_counter()))
        plan.on_event("daemon_batch", lambda info: times.setdefault("out", time.perf_counter()))
        with ServingDaemon(index, socket_path, batch_window_ms=25):
            with DaemonClient(socket_path) as client:
                client.query(batch[0], threshold=0.55)
    assert times["out"] - times["in"] >= 0.024


@pytest.mark.parametrize(
    "bad",
    [
        {"sparse": {"indices": [3, 5], "values": [1.0, -1.0]}},
        {"sparse": {"indices": [3], "values": [float("nan")]}},
        {"dense": [float("inf")] + [0.0] * 79},
        {"dense": [-0.5] + [0.0] * 79},
    ],
)
def test_one_bad_vector_does_not_fail_the_batch_it_would_have_joined(
    index, batch, socket_path, bad
):
    """The offender gets ``bad_request`` at admission; the bystander its answer."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    outcome: dict = {}
    start = threading.Barrier(2)

    def bystander() -> None:
        with DaemonClient(socket_path) as client:
            start.wait(timeout=10)
            outcome["bystander"] = client.query(batch[0], threshold=0.55)

    def offender() -> None:
        with DaemonClient(socket_path) as client:
            start.wait(timeout=10)
            try:
                outcome["offender"] = client.query(bad, threshold=0.55)
            except DaemonError as exc:
                outcome["offender"] = exc

    # a window long enough that the two requests would share a batch
    with ServingDaemon(index, socket_path, batch_window_ms=150) as daemon:
        threads = [threading.Thread(target=bystander), threading.Thread(target=offender)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        stats = daemon.stats()
    assert outcome["bystander"] == oracle
    assert isinstance(outcome["offender"], DaemonError)
    assert "finite and non-negative" in str(outcome["offender"])
    assert stats["bad_requests"] == 1 and stats["requests"] == 1
    with pytest.raises(ValueError, match="finite and non-negative"):
        decode_vector(bad, n_features=80)


def test_decode_vector_keeps_what_the_index_accepts():
    """Zero weights are dropped, duplicates kept for the index to sum."""
    row = decode_vector({"dense": [0.0, 2.0, 0.0, 0.5]}, n_features=4)
    assert row.shape == (1, 4) and row.indices.tolist() == [1, 3]
    np.testing.assert_array_equal(row.data, [2.0, 0.5])
    row = decode_vector({"sparse": {"indices": [2, 2], "values": [1.0, 0.0]}}, n_features=4)
    assert row.shape == (1, 4) and row.toarray().tolist() == [[0.0, 0.0, 1.0, 0.0]]
