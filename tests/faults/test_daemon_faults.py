"""Daemon-under-fault suite: kill/hang/overload with waiting clients.

The resident acceptance property: whatever is injected — a worker SIGKILLed
mid-coalesced-batch, a respawn storm across consecutive batches, a hung
worker recovered through the pool's ``round_timeout``, an epoch refresh
racing live traffic — every request the daemon *accepts and serves* returns
answers bit-identical to the serial oracle, failures surface as *typed*
errors, and the pool heals (respawn, not refork: ``refreshes`` stays 0).
"""

from __future__ import annotations

import threading
import time

import repro.search.executor as executor
from repro.serving import DaemonClient, ServingDaemon
from repro.testing import faults

from tests.daemon.conftest import as_pairs
from tests.daemon.conftest import batch, index, socket_path  # noqa: F401  (fixtures)


def test_kill_mid_batch_with_waiting_clients_is_bit_identical(
    index, batch, socket_path, monkeypatch
):
    """SIGKILL a pool worker as a coalesced batch dispatches: every waiting
    client still gets the serial answer, and the slot respawns for the
    next batch instead of reforking the pool."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    monkeypatch.setattr(executor, "RESPAWN_BACKOFF", 0.01)
    index.start_pool(2)
    try:
        n = len(batch)
        answers: list = [None] * n

        def drive(i: int) -> None:
            with DaemonClient(socket_path) as client:
                answers[i] = client.query(batch[i], threshold=0.55)

        with ServingDaemon(index, socket_path, batch_window_ms=25, max_batch=16):
            with faults.inject() as plan:
                plan.kill_worker(0, event="daemon_batch")
                threads = [
                    threading.Thread(target=drive, args=(i,)) for i in range(n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert ("kill", 0) in plan.fired
            for i in range(n):
                assert answers[i] == as_pairs(oracle[i])
            # The next batch heals the slot: respawn, not refork.
            time.sleep(0.05)
            with DaemonClient(socket_path) as client:
                assert client.query(batch[0], threshold=0.55) == as_pairs(oracle[0])
                pool = client.stats()["pool"]
            assert pool["respawns"] == 1
            assert pool["live_workers"] == 2
            assert pool["refreshes"] == 0
    finally:
        index.close()


def test_respawn_storm_across_consecutive_batches(index, batch, socket_path, monkeypatch):
    """Killing a worker on three consecutive batches (below the quarantine
    limit each time, since survival resets the count) respawns three times
    and never corrupts an answer."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    monkeypatch.setattr(executor, "MAX_WORKER_FAILURES", 3)
    monkeypatch.setattr(executor, "RESPAWN_BACKOFF", 0.01)
    index.start_pool(2)
    try:
        with ServingDaemon(index, socket_path, batch_window_ms=1):
            with faults.inject() as plan:
                # Every other batch: the seam fires before the batch's heal
                # step, so a kill armed for the batch right after a kill
                # would only hit the still-dead slot.
                for round_index in (0, 2, 4):
                    plan.kill_worker(0, event="daemon_batch", round_index=round_index)
                with DaemonClient(socket_path) as client:
                    for _ in range(5):
                        assert client.query(batch[0], threshold=0.55) == oracle
                        time.sleep(0.05)  # past the respawn backoff
                    # A calm batch after the storm serves from a healed pool.
                    assert client.query(batch[0], threshold=0.55) == oracle
                    pool = client.stats()["pool"]
            assert plan.fired.count(("kill", 0)) == 3
            assert pool["respawns"] == 3
            assert pool["quarantined"] == []
            assert pool["live_workers"] == 2
            assert pool["refreshes"] == 0
    finally:
        index.close()


def test_hung_worker_mid_batch_recovers_via_pool_round_timeout(
    index, batch, socket_path, monkeypatch
):
    """A SIGSTOPped worker during a daemon batch is declared hung by the
    resident pool's own ``round_timeout`` and the answer stays correct."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    monkeypatch.setattr(executor, "RESPAWN_BACKOFF", 0.01)
    index.start_pool(2, round_timeout=0.5)
    try:
        with ServingDaemon(index, socket_path, batch_window_ms=1):
            with faults.inject() as plan:
                plan.hang_worker(1, event="daemon_batch")
                with DaemonClient(socket_path, timeout=60.0) as client:
                    assert client.query(batch[0], threshold=0.55) == oracle
            assert ("hang", 1) in plan.fired
    finally:
        index.close()


def test_epoch_refresh_races_live_traffic(index, batch, socket_path):
    """Inserting segments while clients hammer the daemon: traffic during
    the insert never errors, and traffic after it matches the post-insert
    oracle (the pool refreshed rather than serving stale segments)."""
    from tests.faults.conftest import planted_collection

    index.start_pool(2)
    try:
        stop = threading.Event()
        errors: list = []

        def hammer() -> None:
            try:
                with DaemonClient(socket_path, timeout=60.0) as client:
                    while not stop.is_set():
                        client.query(batch[0], threshold=0.55)
            except Exception as exc:
                errors.append(exc)

        with ServingDaemon(index, socket_path, batch_window_ms=1):
            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            grown = planted_collection(41, n=10)
            new_rows = index.insert(grown)
            time.sleep(0.2)
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors, errors
            oracle = index.query_many(batch, threshold=0.55, n_workers=1)
            with DaemonClient(socket_path) as client:
                for i in range(len(batch)):
                    assert client.query(batch[i], threshold=0.55) == as_pairs(
                        oracle[i]
                    )
                probe = client.query(grown[0], threshold=0.55)
                pool = client.stats()["pool"]
        assert any(j == int(new_rows[0]) for j, _ in probe)
        assert pool["refreshes"] >= 1
        assert pool["epoch"] == index._epoch
    finally:
        index.close()


def test_kill_on_serial_daemon_is_a_no_op(index, batch, socket_path):
    """The daemon-batch seam fires with ``pool=None`` when serving serially;
    an armed kill must not crash the dispatcher."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    with ServingDaemon(index, socket_path, batch_window_ms=1):
        with faults.inject() as plan:
            plan.kill_worker(0, event="daemon_batch")
            with DaemonClient(socket_path) as client:
                assert client.query(batch[0], threshold=0.55) == oracle
        assert ("kill", 0) not in plan.fired
