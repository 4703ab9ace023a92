"""Resident pool lifecycle: reuse, self-healing, epoch refresh, bit-identity.

The persistent-pool contract from the robustness issue: a pool attached via
``QueryIndex.start_pool`` outlives calls (workers keep fork-inherited
columns warm; each batch ships only the query-state delta), a worker killed
mid-batch is *respawned* with backoff rather than retired forever, a
crash-looping slot quarantines (pool degrades to fewer workers, then the
serial path, with typed ``PoolDegradedWarning``), and segment churn bumps
the index epoch so the next lease refreshes the pool — with every answer
along the way bit-identical to the all-serial run.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.search.executor import PoolDegradedWarning
from repro.search.query import QueryIndex
from repro.testing import faults

from tests.faults.conftest import planted_collection


@pytest.fixture()
def index() -> QueryIndex:
    """A fresh multi-segment bayes index (function-scoped: pools mutate it)."""
    corpus = planted_collection(29, n=70)
    built = QueryIndex(corpus[:40], measure="cosine", threshold=0.6, seed=13)
    built.insert(corpus[40:])
    built.delete([2, 40])
    return built


@pytest.fixture()
def batch() -> np.ndarray:
    queries = planted_collection(31, n=8)
    queries[:3] = planted_collection(29, n=70)[:3]
    return queries


def _serial(index, batch) -> dict:
    return {
        "query": index.query_many(batch, threshold=0.55, n_workers=1),
        "topk_exact": index.top_k_many(batch, k=5, floor_threshold=0.2, n_workers=1),
        "topk_estimate": index.top_k_many(
            batch, k=5, floor_threshold=0.2, rank_by="estimate", n_workers=1
        ),
    }


def test_pool_reuse_is_bit_identical_and_does_not_refork(index, batch):
    """Repeated batched calls reuse one pool and match the serial oracle."""
    oracle = _serial(index, batch)
    index.start_pool(2)
    try:
        for _ in range(3):
            assert index.query_many(batch, threshold=0.55) == oracle["query"]
        assert (
            index.top_k_many(batch, k=5, floor_threshold=0.2) == oracle["topk_exact"]
        )
        assert (
            index.top_k_many(batch, k=5, floor_threshold=0.2, rank_by="estimate")
            == oracle["topk_estimate"]
        )
        stats = index.pool_stats()
        assert stats["batches_served"] >= 5
        assert stats["refreshes"] == 0, "no segment churn, so no refork"
        assert stats["live_workers"] == 2
    finally:
        index.close()


def test_explicit_n_workers_still_routes_per_call(index, batch):
    """``n_workers=1`` forces serial and ``n_workers=2`` a per-call pool,
    even while a resident pool is attached."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    index.start_pool(2)
    try:
        before = index.pool_stats()["batches_served"]
        assert index.query_many(batch, threshold=0.55, n_workers=1) == oracle
        assert index.query_many(batch, threshold=0.55, n_workers=2) == oracle
        assert index.pool_stats()["batches_served"] == before
    finally:
        index.close()


def test_epoch_refresh_after_insert_is_bit_identical(index, batch):
    """Segment churn bumps the epoch; the next lease refreshes the pool."""
    index.start_pool(2)
    try:
        index.query_many(batch, threshold=0.55)
        grown = planted_collection(37, n=12)
        new_rows = index.insert(grown)
        oracle = index.query_many(batch, threshold=0.55, n_workers=1)
        assert index.query_many(batch, threshold=0.55) == oracle
        stats = index.pool_stats()
        assert stats["refreshes"] == 1
        assert stats["epoch"] == index._epoch
        # The refreshed pool serves rows from the new segment too.
        probe = index.query_many(grown[:1], threshold=0.55)
        assert any(pair.j == int(new_rows[0]) for pair in probe[0])
    finally:
        index.close()


def test_close_is_idempotent_and_context_manager_closes(batch):
    """``close()`` detaches the pool deterministically; ``with`` does too."""
    corpus = planted_collection(29, n=50)
    with QueryIndex(corpus, measure="cosine", threshold=0.6, seed=13) as index:
        oracle = index.query_many(batch, threshold=0.55, n_workers=1)
        index.start_pool(2)
        assert index.query_many(batch, threshold=0.55) == oracle
        index.close()
        assert index.pool_stats() is None
        index.close()  # idempotent
        # Serving continues on the serial path after close.
        assert index.query_many(batch, threshold=0.55) == oracle
    assert index.pool_stats() is None


def test_reader_holding_a_pool_across_close_degrades_to_serial(index, batch):
    """A reader that picked the pool up just before ``close()`` still answers.

    ``query_many`` reads ``index._resident`` and then leases it; ``close()``
    can land in between.  Re-attaching the closed pool reproduces exactly
    what that reader holds: its lease is refused and the batch runs on the
    serial path, bit-identically, instead of raising.
    """
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    stale = index.start_pool(2)
    index.close()
    index._resident = stale
    try:
        assert index.query_many(batch, threshold=0.55) == oracle
        assert index.top_k_many(batch, k=5, floor_threshold=0.2) == index.top_k_many(
            batch, k=5, floor_threshold=0.2, n_workers=1
        )
        assert stale.stats()["closed"] is True
    finally:
        index._resident = None


def test_worker_forked_while_the_tracker_lock_is_held_still_serves(batch, monkeypatch):
    """A fork that captures the resource tracker's lock must not wedge the worker.

    A worker forked while another thread holds the tracker's lock inherits
    it locked, with no thread to release it; when workers attached shared
    segments they blocked forever on the first one.  Workers now never touch
    the tracker, and forking while a helper thread holds the lock keeps it
    that way deterministically.
    """
    import os
    import threading
    from multiprocessing import resource_tracker

    # A narrow banding width, so verification runs past the fork-time
    # signature depth.
    index = QueryIndex(
        planted_collection(29, n=70),
        measure="cosine",
        threshold=0.6,
        seed=13,
        false_negative_rate=0.5,
    )
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    lock = resource_tracker._resource_tracker._lock
    real_fork = os.fork

    def fork_with_tracker_lock_held():
        held, forked = threading.Event(), threading.Event()

        def hold():
            with lock:
                held.set()
                forked.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait()
        pid = real_fork()
        if pid:
            forked.set()
            holder.join()
        return pid

    monkeypatch.setattr(os, "fork", fork_with_tracker_lock_held)
    index.start_pool(2, round_timeout=5.0)
    monkeypatch.undo()
    try:
        assert index.query_many(batch, threshold=0.55) == oracle
        assert index.pool_stats()["live_workers"] == 2, "a worker wedged and was retired"
    finally:
        index.close()


def test_start_pool_twice_raises(index):
    index.start_pool(2)
    try:
        with pytest.raises(RuntimeError, match="already"):
            index.start_pool(2)
    finally:
        index.close()


def test_killed_worker_respawns_at_next_batch_boundary(index, batch):
    """A worker killed mid-batch is recovered serially, then respawned —
    and the pool is reused (no per-call refork)."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    index.start_pool(3, respawn_backoff=0.01)
    try:
        with faults.inject() as plan:
            plan.kill_worker(0, event="serving_probe")
            answers = index.query_many(batch, threshold=0.55)
        assert ("kill", 0) in plan.fired
        assert answers == oracle
        downgraded = index.pool_stats()
        assert downgraded["live_workers"] == 2
        # The next batch boundary heals the slot once the respawn backoff
        # elapsed; outlive it so that boundary is the upcoming batch's.
        time.sleep(0.3)
        assert index.query_many(batch, threshold=0.55) == oracle
        healed = index.pool_stats()
        assert healed["live_workers"] == 3
        assert healed["respawns"] == 1
        assert healed["consecutive_failures"] == [0, 0, 0]
        assert healed["refreshes"] == 0, "healing must not refork the pool"
    finally:
        index.close()


def test_crash_loop_quarantines_with_typed_warning(index, batch):
    """Two consecutive kills of the same slot quarantine it for good."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    index.start_pool(3, max_worker_failures=2, respawn_backoff=0.01)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for attempt in range(2):
                if attempt:
                    # The killed slot respawns at the next batch boundary
                    # only once its backoff elapsed; outlive the backoff
                    # (without an intervening successful batch, which would
                    # reset the slot's consecutive-failure count) so the
                    # second kill hits a live worker, not a corpse.
                    time.sleep(0.3)
                with faults.inject() as plan:
                    plan.kill_worker(0, event="serving_probe")
                    assert index.query_many(batch, threshold=0.55) == oracle
                assert ("kill", 0) in plan.fired
        degraded = [w for w in caught if issubclass(w.category, PoolDegradedWarning)]
        assert degraded, "quarantine must emit PoolDegradedWarning"
        assert "quarantined" in str(degraded[0].message)
        stats = index.pool_stats()
        assert stats["quarantined"] == [0]
        assert stats["live_workers"] == 2
        # The quarantined slot never respawns; serving continues degraded.
        assert index.query_many(batch, threshold=0.55) == oracle
        assert index.pool_stats()["quarantined"] == [0]
        assert index.pool_stats()["live_workers"] == 2
    finally:
        index.close()


def test_full_quarantine_degrades_to_serial_but_stays_available(index, batch):
    """Quarantining every slot leaves a pool that serves serially."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    index.start_pool(2, max_worker_failures=1)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with faults.inject() as plan:
                plan.kill_worker(0, event="serving_probe")
                plan.kill_worker(1, event="serving_probe")
                assert index.query_many(batch, threshold=0.55) == oracle
            # Still answers — now on the degraded serial path.
            assert index.query_many(batch, threshold=0.55) == oracle
        messages = [str(w.message) for w in caught]
        assert any("serial" in m for m in messages), messages
        stats = index.pool_stats()
        assert stats["live_workers"] == 0
        assert stats["quarantined"] == [0, 1]
        assert stats["serial_batches"] >= 1
    finally:
        index.close()


def test_pool_stats_are_json_safe(index):
    """The health dict feeds the daemon's ``/stats``: plain types only."""
    import json

    index.start_pool(2)
    try:
        stats = index.pool_stats()
        json.dumps(stats)
        assert stats["n_workers"] == 2
        assert stats["closed"] is False
        for key in (
            "epoch",
            "live_workers",
            "quarantined",
            "respawns",
            "consecutive_failures",
            "batches_served",
            "serial_batches",
            "refreshes",
        ):
            assert key in stats
    finally:
        index.close()
