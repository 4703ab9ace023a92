"""Crash torture for the write-ahead log: no acknowledged mutation is lost.

Three escalating layers:

* **byte-level** — the active segment truncated at every byte boundary of
  its final record recovers exactly the intact prefix (and physically
  repairs the file); every single-byte XOR anywhere in the record stream
  raises the typed ``SnapshotCorruptError`` instead of replaying wrong
  data.
* **process-level** — a sacrificial fork child is SIGKILLed at every
  occurrence of the ``wal_append`` and ``wal_fsync`` seams while running a
  scripted mutation plan; the parent replays the log and must land on a
  state bit-identical to an uncrashed twin that applied exactly the logged
  prefix, with every *acknowledged* mutation present (``fsync="always"``:
  acked ⊆ logged, RPO = 0).
* **end-to-end** — a forked serving daemon is SIGKILLed under live client
  ingest; recovery answers identically to a twin built from the
  acknowledged batches, and the ``health`` endpoint degrades while a
  replay is in flight.

The kill is an in-process SIGKILL, so the OS page cache survives — these
tests prove process-crash durability for every policy and leave power-loss
durability to ``fsync="always"``'s per-record fsync (same write path,
fsync verified by the policy counters in ``tests/serving/test_wal.py``).
"""

from __future__ import annotations

import os
import shutil
import signal
import threading

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import SnapshotCorruptError
from repro.serving.wal import WriteAheadLog
from repro.testing import faults
from repro.testing.faults import InjectedCrash

from .conftest import planted_collection


@pytest.fixture()
def corpus() -> np.ndarray:
    return planted_collection(81, n=60)


@pytest.fixture()
def probes() -> np.ndarray:
    probe = planted_collection(82, n=5)
    probe[:2] = planted_collection(81, n=60)[:2]
    return probe


def _fresh_index(corpus) -> QueryIndex:
    return QueryIndex(corpus[:40], measure="cosine", threshold=0.6, seed=19)


#: the scripted mutation plan the crash matrices replay prefixes of
def _mutations(corpus) -> list:
    return [
        ("insert", {"data": corpus[40:46], "ids": None}),
        ("delete", {"rows": [1, 41]}),
        ("insert", {"data": corpus[46:50], "ids": [500, 501, 502, 503]}),
    ]


def _apply(index: QueryIndex, mutation) -> None:
    kind, spec = mutation
    if kind == "insert":
        index.insert(spec["data"], ids=spec["ids"])
    else:
        index.delete(spec["rows"])


def _assert_twin(recovered: QueryIndex, twin: QueryIndex, probes) -> None:
    assert recovered.n_indexed == twin.n_indexed
    assert np.array_equal(recovered.ids, twin.ids)
    assert np.array_equal(recovered._deleted, twin._deleted)
    assert recovered._next_default_id == twin._next_default_id
    state = recovered._family.state_dict()
    for key, value in twin._family.state_dict().items():
        assert np.array_equal(state[key], value), key
    assert recovered.query_many(probes, threshold=0.5) == twin.query_many(
        probes, threshold=0.5
    )


# --------------------------------------------------------------------- #
# byte-level torture
# --------------------------------------------------------------------- #
def _two_record_wal(tmp_path) -> tuple:
    """A single-segment WAL holding one insert and one small final delete."""
    from repro.similarity.vectors import VectorCollection

    wal_dir = tmp_path / "wal"
    with WriteAheadLog(wal_dir) as wal:
        collection = VectorCollection.from_dense(planted_collection(83, n=6)[:4])
        wal.append_insert(collection, np.arange(4))
        wal.append_delete([0, 2])
    segment = wal_dir / "wal-00000001.log"
    data = segment.read_bytes()
    # offset where the final (delete) record begins: re-read record 1's
    # framing — 20-byte file header, 29-byte record header, payload length
    import struct

    payload_len = struct.unpack_from("<Q", data, 20 + 13)[0]
    first_end = 20 + 29 + payload_len
    return wal_dir, data, first_end


def test_truncation_at_every_byte_recovers_the_prefix(tmp_path):
    """Cutting the final record anywhere yields the intact prefix + repair."""
    wal_dir, data, first_end = _two_record_wal(tmp_path)
    target = tmp_path / "torn"
    for cut in range(first_end, len(data)):
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        (target / "wal-00000001.log").write_bytes(data[:cut])
        with WriteAheadLog(target) as wal:
            seqs = [seq for seq, _, _ in wal.records()]
        expected = [1] if cut < len(data) else [1, 2]
        assert seqs == expected, f"cut at byte {cut}"
        # the repair is physical: the file is now exactly the intact prefix
        assert (target / "wal-00000001.log").stat().st_size == (
            first_end if cut < len(data) else len(data)
        )


def test_truncated_wal_accepts_new_appends_after_repair(tmp_path):
    wal_dir, data, first_end = _two_record_wal(tmp_path)
    torn = tmp_path / "torn"
    torn.mkdir()
    (torn / "wal-00000001.log").write_bytes(data[: len(data) - 3])
    with WriteAheadLog(torn) as wal:
        assert wal.stats()["repaired_tails"] == 1
        wal.append_delete([1])  # sequence resumes after the truncated record
        seqs = [seq for seq, _, _ in wal.records()]
    assert seqs == [1, 2]


def test_single_byte_xor_sweep_raises_typed_errors(tmp_path):
    """Every one-byte flip in the record stream is caught, never replayed."""
    wal_dir, data, first_end = _two_record_wal(tmp_path)
    target = tmp_path / "flipped"
    failures = []
    for offset in range(20, len(data)):  # skip the segment file header
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        flipped = bytearray(data)
        flipped[offset] ^= 0x5A
        (target / "wal-00000001.log").write_bytes(bytes(flipped))
        try:
            with WriteAheadLog(target) as wal:
                list(wal.records())
        except SnapshotCorruptError:
            continue
        failures.append(offset)
    assert not failures, f"flips accepted at offsets {failures}"


def test_flipped_file_header_is_rejected(tmp_path):
    wal_dir, data, _ = _two_record_wal(tmp_path)
    target = tmp_path / "badmagic"
    target.mkdir()
    flipped = bytearray(data)
    flipped[0] ^= 0xFF
    (target / "wal-00000001.log").write_bytes(bytes(flipped))
    with pytest.raises(SnapshotCorruptError, match="magic"):
        WriteAheadLog(target)


def test_torn_record_in_sealed_segment_is_corruption(tmp_path, corpus):
    """Only the *final* segment may legally end mid-record."""
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    index.insert(corpus[40:45])
    index.wal.roll()  # seals segment 1, opens segment 2
    index.insert(corpus[45:48])
    index.wal.close()
    sealed = tmp_path / "wal" / "wal-00000001.log"
    sealed.write_bytes(sealed.read_bytes()[:-4])
    with pytest.raises(SnapshotCorruptError, match="sealed segment"):
        list(WriteAheadLog(tmp_path / "wal").records())


def test_crash_during_tail_repair_leaves_the_torn_file_repairable(tmp_path):
    """The repair itself is atomic: a crash in its write→rename window
    leaves the original torn file, and the next open repairs it cleanly."""
    wal_dir, data, first_end = _two_record_wal(tmp_path)
    torn = tmp_path / "torn"
    torn.mkdir()
    torn_bytes = data[: len(data) - 5]
    (torn / "wal-00000001.log").write_bytes(torn_bytes)
    with faults.inject() as plan:
        plan.crash_before_replace(event="wal_replace")
        with pytest.raises(InjectedCrash):
            WriteAheadLog(torn)
    assert any(fired[0] == "snapshot_crash" for fired in plan.fired)
    # the aborted repair left its temp file and the torn original untouched
    assert list(torn.glob(".wal-00000001.log.tmp.*"))
    assert (torn / "wal-00000001.log").read_bytes() == torn_bytes
    with WriteAheadLog(torn) as wal:
        assert [seq for seq, _, _ in wal.records()] == [1]


# --------------------------------------------------------------------- #
# SIGKILL matrix: fork, crash at a seam, recover, compare to the twin
# --------------------------------------------------------------------- #
def _run_crash_round(index, corpus, probes, tmp_path, storage, seam, occurrence):
    """Fork a child that mutates until SIGKILLed at the armed seam."""
    round_dir = tmp_path / f"{seam}-{occurrence}"
    round_dir.mkdir()
    wal_dir = round_dir / "wal"
    ack_path = round_dir / "ack"
    index._wal = None  # re-arm the parent template onto a fresh log
    index.attach_wal(WriteAheadLog(wal_dir, fsync="always"))
    snapshot = index.save(round_dir / "checkpoint")
    plan_mutations = _mutations(corpus)

    pid = os.fork()
    if pid == 0:  # sacrificial child
        try:
            with faults.inject() as plan:
                plan.kill_process(seam, after=occurrence)
                with open(ack_path, "ab", buffering=0) as ack:
                    for mutation in plan_mutations:
                        _apply(index, mutation)
                        ack.write(b"+")  # written only after the ack
            os._exit(0)
        except BaseException:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    index.wal.close()
    index._wal = None
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL

    n_acked = ack_path.stat().st_size if ack_path.exists() else 0
    recovered = QueryIndex.load(snapshot, storage=storage, wal=WriteAheadLog(wal_dir))
    n_logged = recovered.replay_stats()["replayed_records"]
    recovered.wal.close()
    # RPO = 0: every acknowledged mutation is in the log; at most the one
    # in-flight unacknowledged mutation may additionally have landed.
    assert n_acked <= n_logged <= n_acked + 1
    twin = QueryIndex.load(snapshot)
    for mutation in plan_mutations[:n_logged]:
        _apply(twin, mutation)
    _assert_twin(recovered, twin, probes)
    return n_acked, n_logged


@pytest.mark.parametrize("storage", ["ram", "mmap"])
@pytest.mark.parametrize("seam", ["wal_append", "wal_fsync"])
def test_sigkill_at_every_seam_occurrence_loses_nothing(
    tmp_path, corpus, probes, storage, seam
):
    index = _fresh_index(corpus)
    observed = []
    for occurrence in range(len(_mutations(corpus))):
        observed.append(
            _run_crash_round(
                index, corpus, probes, tmp_path, storage, seam, occurrence
            )
        )
    # sanity on the matrix itself: each round crashed one mutation later
    assert [logged for _, logged in observed] == [1, 2, 3]
    if seam == "wal_append":
        # killed between write and ack: logged-but-unacked, at-least-once
        assert [acked for acked, _ in observed] == [0, 1, 2]


# --------------------------------------------------------------------- #
# daemon end-to-end: SIGKILL under live ingest, recover, same answers
# --------------------------------------------------------------------- #
def test_daemon_sigkill_recovers_every_acknowledged_batch(
    tmp_path, corpus, probes
):
    from repro.serving.client import DaemonClient, RetriesExhausted

    index = _fresh_index(corpus)
    index.attach_wal(WriteAheadLog(tmp_path / "wal", fsync="always"))
    snapshot = index.save(tmp_path / "checkpoint")
    socket_path = str(tmp_path / "daemon.sock")

    pid = os.fork()
    if pid == 0:  # sacrificial daemon process
        try:
            from repro.serving.daemon import ServingDaemon

            daemon = ServingDaemon(index, socket_path)
            daemon.start()
            signal.pause()  # serve until SIGKILLed
            os._exit(0)
        except BaseException:
            os._exit(1)
    index.wal.close()
    index._wal = None
    try:
        client = DaemonClient(socket_path, retries=8, backoff_ms=20)
        acked = []
        for start in (40, 44, 48):
            batch = [
                {"dense": [float(v) for v in row]}
                for row in corpus[start : start + 4]
            ]
            acked.append(client.insert(batch))
        assert client.delete([1, 41]) >= 1
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    # the daemon is gone: the retry budget drains into the typed error
    with pytest.raises(RetriesExhausted):
        DaemonClient(socket_path, retries=1, backoff_ms=1).query(corpus[0])
    client.close()

    recovered = QueryIndex.load(snapshot, wal=WriteAheadLog(tmp_path / "wal"))
    assert recovered.replay_stats()["replayed_records"] == 4
    recovered.wal.close()
    twin = QueryIndex.load(snapshot)
    for start in (40, 44, 48):
        twin.insert(corpus[start : start + 4])
    twin.delete([1, 41])
    assert np.array_equal(recovered.ids, twin.ids)
    _assert_twin(recovered, twin, probes)


def test_daemon_health_degrades_while_replay_runs(tmp_path, corpus):
    """``health``/``ready`` report not-serving until the replay finishes."""
    from repro.serving.client import DaemonClient
    from repro.serving.daemon import ServingDaemon

    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    snapshot = index.save(tmp_path / "checkpoint")
    index.insert(corpus[40:50])
    index.insert(corpus[50:55])
    index.wal.close()

    loaded = QueryIndex.load(snapshot)
    socket_path = str(tmp_path / "daemon.sock")
    gate = threading.Event()
    entered = threading.Event()

    def stall(info):
        entered.set()
        assert gate.wait(timeout=30)

    with ServingDaemon(loaded, socket_path) as daemon:
        with DaemonClient(socket_path) as client:
            with faults.inject() as plan:
                plan.on_event("wal_replay", stall)
                replayer = threading.Thread(
                    target=loaded.recover, args=(WriteAheadLog(tmp_path / "wal"),)
                )
                replayer.start()
                try:
                    assert entered.wait(timeout=30)
                    health = client.health()
                    assert health["replaying"] and not health["serving"]
                    assert not client.ready()["ready"]
                finally:
                    gate.set()
                    replayer.join(timeout=30)
            assert not replayer.is_alive()
            health = client.health()
            assert health["serving"] and not health["replaying"]
            assert client.ready()["ready"]
            stats = client.stats()
            assert stats["durability"]["replay"]["replayed_records"] == 2
            assert stats["durability"]["wal"]["records"] == 2
            client.drain()
    loaded.wal.close()
