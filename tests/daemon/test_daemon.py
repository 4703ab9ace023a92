"""Daemon serving path: coalesced answers bit-identical to the serial oracle.

The core claim: putting a socket, a JSON wire format and a batch-coalescing
window between the client and the index changes *nothing* about the
answers.  Concurrent clients get exactly the rows and float-identical
similarities the serial in-process call produces, requests are provably
coalesced (fewer batches than requests), and the ops endpoints (health,
readiness, stats, snapshot, drain) behave as the runbook documents.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading

import pytest
import scipy.sparse as sp

from repro.serving import (
    DaemonClient,
    DaemonError,
    Draining,
    ServingDaemon,
)
from repro.serving.daemon import MAX_LINE_BYTES, decode_vector, encode_vector

from tests.daemon.conftest import as_pairs
from tests.faults.conftest import planted_collection


def test_concurrent_clients_bit_identical_and_coalesced(index, batch, socket_path):
    """Many clients, one daemon: answers match serial, batches < requests."""
    oracle_query = index.query_many(batch, threshold=0.55, n_workers=1)
    oracle_topk = index.top_k_many(batch, k=5, floor_threshold=0.2, n_workers=1)
    n = len(batch)
    results_query: list = [None] * n
    results_topk: list = [None] * n

    def drive(i: int) -> None:
        with DaemonClient(socket_path) as client:
            results_query[i] = client.query(batch[i], threshold=0.55)
            results_topk[i] = client.top_k(batch[i], k=5, floor_threshold=0.2)

    with ServingDaemon(index, socket_path, batch_window_ms=25, max_batch=16):
        threads = [threading.Thread(target=drive, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with DaemonClient(socket_path) as client:
            stats = client.stats()

    for i in range(n):
        assert results_query[i] == as_pairs(oracle_query[i])
        assert results_topk[i] == as_pairs(oracle_topk[i])
    assert stats["requests"] == 2 * n
    assert stats["batches"] < stats["requests"], "no coalescing happened"
    assert stats["coalesced_batches"] >= 1
    assert stats["max_batch_observed"] > 1


def test_reply_says_how_many_values_are_exact(index, batch, socket_path):
    """``n_exact`` travels with the answer: the hybrid's output is mixed."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    counts, estimate_counts = [], []
    with ServingDaemon(index, socket_path, batch_window_ms=5):
        with DaemonClient(socket_path) as client:
            for row in batch:
                client.query(row, threshold=0.55)
                counts.append(client.last_response["n_exact"])
                client.top_k(row, k=5, rank_by="estimate")
                estimate_counts.append(client.last_response["n_exact"])
    assert counts == [scored.n_exact for scored in oracle]
    assert any(counts) and estimate_counts == [0] * len(batch)


def test_daemon_on_resident_pool_matches_serial(index, batch, socket_path):
    """``pool_workers`` attaches a daemon-owned resident pool; answers are
    unchanged and the pool is closed with the daemon."""
    oracle = index.query_many(batch, threshold=0.55, n_workers=1)
    with ServingDaemon(
        index, socket_path, batch_window_ms=10, pool_workers=2
    ):
        with DaemonClient(socket_path) as client:
            answers = [client.query(row, threshold=0.55) for row in batch]
            stats = client.stats()
    assert answers == [as_pairs(scored) for scored in oracle]
    assert stats["pool"] is not None and stats["pool"]["n_workers"] == 2
    assert index.pool_stats() is None, "daemon must close the pool it owns"


def test_wire_encodings_round_trip_bit_identically(index, batch, socket_path):
    """Dense, sparse and token encodings all reach the same canonical CSR."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    sparse_row = sp.csr_matrix(batch[0])
    with ServingDaemon(index, socket_path, batch_window_ms=1):
        with DaemonClient(socket_path) as client:
            assert client.query(batch[0], threshold=0.55) == oracle
            assert client.query(sparse_row, threshold=0.55) == oracle
    # Token-set encoding decodes to the binary row the index builds itself.
    tokens = {3, 17, 41}
    wire = encode_vector(tokens)
    assert wire == {"tokens": [3, 17, 41]}
    row = decode_vector(wire, n_features=80)
    assert row.shape == (1, 80)
    assert sorted(row.indices) == [3, 17, 41]
    assert set(row.data) == {1.0}


def test_bad_requests_get_typed_errors_not_dropped_connections(
    index, socket_path
):
    with ServingDaemon(index, socket_path):
        with DaemonClient(socket_path) as client:
            with pytest.raises(DaemonError, match="unknown op"):
                client._call({"op": "frobnicate"})
            with pytest.raises(DaemonError, match="dense vector"):
                client._call({"op": "query", "vector": {"dense": [1.0, 2.0]}})
            with pytest.raises(DaemonError, match="rank_by"):
                client._call(
                    {
                        "op": "top_k",
                        "vector": {"tokens": [1]},
                        "rank_by": "wrong",
                    }
                )
            # The connection survived all three errors.
            assert client.health()["ok"]
            assert client.stats()["bad_requests"] == 3


def test_request_line_far_over_64_kib_is_served(index, socket_path):
    """A 256-row insert (~0.5 MB line) fits the protocol's stated bound.

    The stream reader's implicit 64 KiB default used to kill the connection
    with no reply, which the client retried to exhaustion.
    """
    rows = planted_collection(37, n=256)
    with ServingDaemon(index, socket_path):
        with DaemonClient(socket_path) as client:
            before = index.n_indexed
            assigned = client.insert(rows)
            assert assigned == list(range(before, before + 256))
            assert client.retry_stats == {"retries": 0, "reconnects": 0}
    assert index.n_indexed == before + 256


def test_over_limit_line_gets_bad_request_and_only_its_connection_closes(
    index, socket_path, caplog
):
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with ServingDaemon(index, socket_path):
            with DaemonClient(socket_path) as bystander:
                raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                raw.settimeout(30)
                with raw, raw.makefile("rb") as replies:
                    raw.connect(socket_path)
                    try:
                        raw.sendall(b"x" * (MAX_LINE_BYTES + 2))
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # the daemon stopped reading and hung up mid-send
                    reply = json.loads(replies.readline())
                    assert reply == {
                        "ok": False,
                        "error": "bad_request",
                        "message": f"request line exceeds {MAX_LINE_BYTES} bytes",
                    }
                    assert replies.readline() == b"", "connection must be closed"
                # Other connections — open before, opened after — keep working.
                assert bystander.health()["ok"]
                with DaemonClient(socket_path) as fresh:
                    assert fresh.stats()["bad_requests"] == 1
    assert not [r for r in caplog.records if "Unhandled" in r.getMessage()]


def test_client_refuses_an_over_limit_request_without_retrying(index, socket_path):
    with ServingDaemon(index, socket_path):
        with DaemonClient(socket_path) as client:
            with pytest.raises(DaemonError, match="request line exceeds"):
                client._call({"op": "health", "padding": "x" * MAX_LINE_BYTES})
            assert client.retry_stats == {"retries": 0, "reconnects": 0}
            assert client.health()["ok"]  # nothing was sent; same connection


def test_ops_endpoints_and_snapshot(index, batch, socket_path, tmp_path):
    snapshot_dir = tmp_path / "snapshots"
    with ServingDaemon(
        index, socket_path, snapshot_store=str(snapshot_dir)
    ):
        with DaemonClient(socket_path) as client:
            health = client.health()
            assert health["ok"] and health["serving"] and not health["draining"]
            assert client.ready()["ready"]
            path = client.snapshot()
            assert os.path.isdir(path) and path.endswith(".flat")
            # "flat" stays an accepted spelling; any other layout is refused.
            assert client._call({"op": "snapshot", "layout": "flat"})["ok"]
            with pytest.raises(DaemonError, match="layout must be 'flat'"):
                client._call({"op": "snapshot", "layout": "npz"})
            stats = client.stats()
            assert stats["queue_depth"] == 0
            assert stats["config"]["max_batch"] == 64
            assert stats["pool"] is None  # serving serially


def test_snapshot_endpoint_without_store_is_a_typed_error(index, socket_path):
    with ServingDaemon(index, socket_path):
        with DaemonClient(socket_path) as client:
            with pytest.raises(DaemonError, match="no snapshot store"):
                client.snapshot()


def test_drain_finishes_admitted_work_then_stops(index, batch, socket_path):
    """Drain = answer everything admitted, reject the rest, shut down."""
    oracle = as_pairs(index.query_many(batch[:1], threshold=0.55, n_workers=1)[0])
    daemon = ServingDaemon(index, socket_path, batch_window_ms=5)
    with daemon:
        with DaemonClient(socket_path) as client:
            assert client.query(batch[0], threshold=0.55) == oracle
            reply = client.drain()
            assert reply["drained"]
        daemon._stopped.wait(timeout=10)
        assert daemon._stopped.is_set()
        assert not os.path.exists(socket_path), "drain must remove the socket"
    # stop() after drain is a no-op, and the index still serves in-process.
    assert index.query_many(batch[:1], threshold=0.55, n_workers=1)


def test_requests_during_drain_are_rejected_with_draining(
    index, batch, socket_path
):
    daemon = ServingDaemon(index, socket_path)
    with daemon:
        # Flip the draining flag directly (deterministic; the drain op itself
        # shuts the daemon down too fast to race a second client against it).
        daemon._draining = True
        with DaemonClient(socket_path) as client:
            with pytest.raises(Draining):
                client.query(batch[0], threshold=0.55)
            assert client.stats()["rejected_draining"] == 1


def test_daemon_is_single_use(index, socket_path):
    daemon = ServingDaemon(index, socket_path)
    with daemon:
        pass
    with pytest.raises(RuntimeError, match="single-use"):
        daemon.start()
