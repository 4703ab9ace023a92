"""Admission control, deadlines and load shedding: typed, deterministic.

These tests stall the daemon's executor behind a gate (the batched index
call blocks until the test releases it) so queue build-up is deterministic
rather than a timing race.  Each scenario asserts two things: the rejected
or expired request surfaces as its *typed* error (``Overloaded``,
``DeadlineExceeded``), and every request the daemon *did* accept still
matches the serial oracle bit-identically — degradation changes who gets
served and how results are ranked, never the value of any served answer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving import (
    DaemonClient,
    DaemonError,
    DeadlineExceeded,
    Overloaded,
    ServingDaemon,
)
from repro.serving.daemon import encode_vector

from tests.daemon.conftest import as_pairs


class _Gate:
    """Blocks the index's batched entry points until released."""

    def __init__(self, index):
        self._release = threading.Event()
        self._entered = threading.Event()
        self._query_many = index.query_many
        self._top_k_many = index.top_k_many
        index.query_many = self._gated(self._query_many)
        index.top_k_many = self._gated(self._top_k_many)

    def _gated(self, call):
        def wrapper(*args, **kwargs):
            self._entered.set()
            assert self._release.wait(timeout=30), "gate never released"
            return call(*args, **kwargs)

        return wrapper

    def wait_entered(self) -> None:
        assert self._entered.wait(timeout=10), "no batch reached the executor"

    def release(self) -> None:
        self._release.set()


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def test_full_queue_rejects_with_overloaded_and_serves_the_accepted(
    index, batch, socket_path
):
    """Past ``max_queue`` waiting requests, admission rejects typed —
    and every accepted request still matches the serial oracle."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    gate = _Gate(index)
    answers: dict[int, list] = {}
    errors: list[Exception] = []

    def drive(i: int) -> None:
        try:
            with DaemonClient(socket_path) as client:
                answers[i] = client.query(batch[i], threshold=0.55)
        except Exception as exc:  # collected, asserted below
            errors.append(exc)

    daemon = ServingDaemon(
        index, socket_path, batch_window_ms=1, max_batch=1, max_queue=2
    )
    with daemon:
        # Request 0 is pulled into a batch and blocks on the gate; requests
        # 1..2 fill the bounded queue behind it.
        first = threading.Thread(target=drive, args=(0,))
        first.start()
        gate.wait_entered()
        waiters = [threading.Thread(target=drive, args=(i,)) for i in (1, 2)]
        for thread in waiters:
            thread.start()
        _wait_for(lambda: daemon._queue.qsize() >= 2)
        # The queue is full: the next request must be rejected, typed.
        with DaemonClient(socket_path) as client:
            with pytest.raises(Overloaded, match="back off"):
                client.query(batch[3], threshold=0.55)
            assert client.stats()["rejected_overloaded"] == 1
        gate.release()
        first.join()
        for thread in waiters:
            thread.join()
    assert not errors, errors
    for i in (0, 1, 2):
        assert answers[i] == as_pairs(oracle[i])


def test_deadline_expired_while_queued_is_typed_and_never_executes(
    index, batch, socket_path
):
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    gate = _Gate(index)
    outcome: dict = {}

    def drive_first() -> None:
        with DaemonClient(socket_path) as client:
            outcome["first"] = client.query(batch[0], threshold=0.55)

    def drive_expiring() -> None:
        try:
            with DaemonClient(socket_path) as client:
                client.query(batch[1], threshold=0.55, deadline_ms=50)
                outcome["expiring"] = "served"
        except DeadlineExceeded as exc:
            outcome["expiring"] = exc

    daemon = ServingDaemon(index, socket_path, batch_window_ms=1, max_batch=1)
    with daemon:
        first = threading.Thread(target=drive_first)
        first.start()
        gate.wait_entered()
        expiring = threading.Thread(target=drive_expiring)
        expiring.start()
        _wait_for(lambda: daemon._queue.qsize() >= 1)
        time.sleep(0.1)  # let the 50ms deadline lapse while queued
        gate.release()
        first.join()
        expiring.join()
        with DaemonClient(socket_path) as client:
            stats = client.stats()
    assert outcome["first"] == oracle
    assert isinstance(outcome["expiring"], DeadlineExceeded)
    assert "queued" in str(outcome["expiring"])
    assert stats["deadline_misses"] == 1
    # Two requests admitted, but only one ever reached the index.
    assert stats["requests"] == 2


def test_deadline_expired_during_execution_withholds_the_late_result(
    index, batch, socket_path
):
    """A result computed after its deadline is withheld: a deadline is a
    promise, not a hint."""
    gate = _Gate(index)
    outcome: dict = {}

    def drive() -> None:
        try:
            with DaemonClient(socket_path) as client:
                client.query(batch[0], threshold=0.55, deadline_ms=80)
                outcome["result"] = "served"
        except DeadlineExceeded as exc:
            outcome["result"] = exc

    with ServingDaemon(index, socket_path, batch_window_ms=1):
        thread = threading.Thread(target=drive)
        thread.start()
        gate.wait_entered()
        time.sleep(0.2)  # result arrives after the 80ms deadline
        gate.release()
        thread.join()
    assert isinstance(outcome["result"], DeadlineExceeded)
    assert "during execution" in str(outcome["result"])


def test_deadline_propagates_into_round_timeout(index, batch, socket_path):
    """The batch's ``round_timeout`` is the tightest member deadline."""
    seen: dict = {}
    original = index.query_many

    def recording(*args, **kwargs):
        seen["round_timeout"] = kwargs.get("round_timeout")
        return original(*args, **kwargs)

    index.query_many = recording
    with ServingDaemon(index, socket_path, batch_window_ms=1):
        with DaemonClient(socket_path) as client:
            client.query(batch[0], threshold=0.55, deadline_ms=5000)
    assert seen["round_timeout"] is not None
    assert 0 < seen["round_timeout"] <= 5.0


def test_shedding_past_threshold_degrades_exact_to_estimate(
    index, batch, socket_path
):
    """Under pressure, exact top-k requests are shed to estimate ranking:
    flagged degraded, bit-identical to the *estimate* oracle."""
    oracle_estimate = index.top_k_many(
        batch, k=5, floor_threshold=0.2, rank_by="estimate", n_workers=1
    )
    oracle_exact = index.top_k_many(batch, k=5, floor_threshold=0.2, n_workers=1)
    gate = _Gate(index)
    results: dict[int, tuple] = {}

    def drive(i: int) -> None:
        with DaemonClient(socket_path) as client:
            pairs = client.top_k(batch[i], k=5, floor_threshold=0.2, rank_by="exact")
            results[i] = (pairs, client.last_response["degraded"])

    daemon = ServingDaemon(
        index, socket_path, batch_window_ms=1, max_batch=1, shed_threshold=2
    )
    with daemon:
        first = threading.Thread(target=drive, args=(0,))
        first.start()
        gate.wait_entered()
        waiters = [threading.Thread(target=drive, args=(i,)) for i in (1, 2)]
        for thread in waiters:
            thread.start()
        _wait_for(lambda: daemon._queue.qsize() >= 2)
        gate.release()
        first.join()
        for thread in waiters:
            thread.join()
        with DaemonClient(socket_path) as client:
            shed_count = client.stats()["shed"]
    # The first request dispatched below threshold: exact, not degraded.
    pairs, degraded = results[0]
    assert not degraded and pairs == as_pairs(oracle_exact[0])
    # The queued requests dispatched at depth >= 2: shed to estimate.
    shed = [i for i in (1, 2) if results[i][1]]
    assert shed, "no request was shed despite queue depth at threshold"
    for i in shed:
        assert results[i][0] == as_pairs(oracle_estimate[i])
    for i in (1, 2):
        if i not in shed:  # pressure dropped again: exact, undegraded
            assert results[i][0] == as_pairs(oracle_exact[i])
    assert shed_count == len(shed)


def test_default_deadline_applies_when_request_carries_none(
    index, batch, socket_path
):
    gate = _Gate(index)
    outcome: dict = {}

    def drive() -> None:
        try:
            with DaemonClient(socket_path) as client:
                client.query(batch[0], threshold=0.55)
                outcome["result"] = "served"
        except DeadlineExceeded as exc:
            outcome["result"] = exc

    with ServingDaemon(
        index, socket_path, batch_window_ms=1, default_deadline_ms=80
    ):
        thread = threading.Thread(target=drive)
        thread.start()
        gate.wait_entered()
        time.sleep(0.2)
        gate.release()
        thread.join()
    assert isinstance(outcome["result"], DeadlineExceeded)


@pytest.mark.parametrize(
    "op,field,value",
    [
        ("query", "threshold", 1.5),
        ("query", "threshold", float("nan")),
        ("top_k", "k", 0),
        ("top_k", "k", -3),
        ("top_k", "floor_threshold", float("nan")),
        ("query", "deadline_ms", "soon"),
        ("top_k", "deadline_ms", [50]),
    ],
)
def test_parameters_the_index_would_refuse_are_bad_requests_at_admission(
    index, batch, socket_path, op, field, value
):
    """A value the batched call would refuse never takes a batch slot: it is
    answered at admission with a counted, typed ``bad_request``."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    request = {"op": op, "vector": encode_vector(batch[0]), field: value}
    with ServingDaemon(index, socket_path) as daemon:
        with DaemonClient(socket_path) as client:
            with pytest.raises(DaemonError, match=field):
                client._call(request)
            assert client.last_response["error"] == "bad_request"
            stats = client.stats()
            assert stats["bad_requests"] == 1
            assert stats["requests"] == 0 and stats["batches"] == 0
            assert daemon._queue.qsize() == 0
            # The connection survives and the next request is served.
            assert client.query(batch[0], threshold=0.55) == oracle
