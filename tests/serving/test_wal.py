"""Write-ahead log: bit-identical replay, fsync policies, checkpoints.

The contract under test (see ``repro/serving/wal.py``): every mutation a
WAL-attached index acknowledges is recoverable by replaying the log's tail
on top of the newest snapshot, and the recovered index is bit-identical to
the uncrashed one — same answers, same ids, same default-id counter, same
hash-family RNG position (the snapshot bit-identity contract extended to
the live mutation stream).  Crash *residue* (torn tails, interior flips)
is exercised byte-by-byte in ``tests/faults/test_wal_faults.py``; this
module covers the happy paths and the checkpoint lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import SnapshotStore, load_query_index
from repro.serving.wal import WriteAheadLog, _encode_arrays

from tests.faults.conftest import planted_collection


@pytest.fixture()
def corpus() -> np.ndarray:
    return planted_collection(71, n=60)


@pytest.fixture()
def probes() -> np.ndarray:
    probe = planted_collection(72, n=6)
    probe[:2] = planted_collection(71, n=60)[:2]
    return probe


def _fresh_index(corpus) -> QueryIndex:
    return QueryIndex(corpus[:40], measure="cosine", threshold=0.6, seed=17)


def _mutate(index: QueryIndex, corpus) -> None:
    """The reference mutation stream: default ids, explicit ids, deletes."""
    index.insert(corpus[40:50])
    index.insert(corpus[50:55], ids=[900, 901, 902, 903, 904])
    index.delete([1, 41, 44])
    index.insert(corpus[55:])


def _assert_bit_identical(recovered: QueryIndex, original: QueryIndex, probes):
    assert recovered.n_indexed == original.n_indexed
    assert np.array_equal(recovered.ids, original.ids)
    assert np.array_equal(recovered._deleted, original._deleted)
    assert recovered._next_default_id == original._next_default_id
    assert recovered._segments.n_segments == original._segments.n_segments
    assert [seg.n_vectors for seg in recovered._segments.segments] == [
        seg.n_vectors for seg in original._segments.segments
    ]
    state = recovered._family.state_dict()
    reference = original._family.state_dict()
    assert state.keys() == reference.keys()
    for key, value in reference.items():
        assert np.array_equal(state[key], value), key
    assert recovered.query_many(probes, threshold=0.5) == original.query_many(
        probes, threshold=0.5
    )
    assert recovered.top_k_many(probes, k=5) == original.top_k_many(probes, k=5)


# --------------------------------------------------------------------- #
# replay bit-identity
# --------------------------------------------------------------------- #
def test_replay_on_snapshot_is_bit_identical(tmp_path, corpus, probes):
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    path = index.save(tmp_path / "checkpoint")
    _mutate(index, corpus)

    recovered = QueryIndex.load(path, wal=WriteAheadLog(tmp_path / "wal"))
    _assert_bit_identical(recovered, index, probes)
    # recovery re-attaches the log: new mutations keep appending to it
    assert recovered.wal is not None
    recovered.wal.close()
    index.wal.close()


def test_replay_onto_mmap_load_is_bit_identical(tmp_path, corpus, probes):
    """Replay over read-only mapped segments lands where the RAM path does,
    and the recovered index keeps mutating identically to the original."""
    import shutil

    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    store = SnapshotStore(tmp_path / "snaps")
    store.save(index)
    _mutate(index, corpus)
    index.wal.sync()
    # recover from a copy so both twins keep logging independently
    shutil.copytree(tmp_path / "wal", tmp_path / "wal-copy")
    recovered = store.load(storage="mmap", wal=WriteAheadLog(tmp_path / "wal-copy"))
    _assert_bit_identical(recovered, index, probes)
    extra = planted_collection(74, n=4)
    index.insert(extra)
    recovered.insert(extra)
    _assert_bit_identical(recovered, index, probes)
    recovered.wal.close()
    index.wal.close()


def test_replay_twice_is_idempotent(tmp_path, corpus, probes):
    """Two independent recoveries from the same snapshot+log agree exactly."""
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    path = index.save(tmp_path / "checkpoint")
    _mutate(index, corpus)
    index.wal.close()

    first = QueryIndex.load(path, wal=WriteAheadLog(tmp_path / "wal"))
    first.wal.close()
    second = QueryIndex.load(path, wal=WriteAheadLog(tmp_path / "wal"))
    second.wal.close()
    # compare the two recoveries' family state *before* any probe query
    # draws further hash functions (queries grow the signature matrix)
    state_first = first._family.state_dict()
    state_second = second._family.state_dict()
    for key, value in state_first.items():
        assert np.array_equal(state_second[key], value), key
    _assert_bit_identical(first, index, probes)
    assert second.query_many(probes, threshold=0.5) == first.query_many(
        probes, threshold=0.5
    )


def test_recovered_index_continues_identically(tmp_path, corpus, probes):
    """Mutations after recovery match mutations on the uncrashed original.

    The strongest form of the RNG-authority claim: default ids and hash
    functions drawn *after* replay continue the original's streams.
    """
    import shutil

    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    path = index.save(tmp_path / "checkpoint")
    index.insert(corpus[40:50])
    index.wal.sync()
    # recover from a copy so both twins keep logging independently
    shutil.copytree(tmp_path / "wal", tmp_path / "wal-copy")
    recovered = QueryIndex.load(path, wal=WriteAheadLog(tmp_path / "wal-copy"))

    extra = planted_collection(73, n=5)
    index.insert(extra)
    recovered.insert(extra)
    index.delete([3])
    recovered.delete([3])
    _assert_bit_identical(recovered, index, probes)
    recovered.wal.close()
    index.wal.close()


def test_reopened_wal_resumes_sequence(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(WriteAheadLog(tmp_path / "wal"))
    path = index.save(tmp_path / "checkpoint")
    index.insert(corpus[40:45])
    last = index.wal.last_seq
    index.wal.close()

    recovered = QueryIndex.load(path, wal=WriteAheadLog(tmp_path / "wal"))
    recovered.insert(corpus[45:50])
    assert recovered.wal.last_seq == last + 1
    seqs = [seq for seq, _, _ in WriteAheadLog(tmp_path / "wal").records()]
    assert seqs == list(range(1, last + 2))
    recovered.wal.close()


def test_replay_counters_report_the_tail(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    path = index.save(tmp_path / "checkpoint")
    _mutate(index, corpus)
    index.wal.close()

    recovered = QueryIndex.load(path, wal=WriteAheadLog(tmp_path / "wal"))
    stats = recovered.replay_stats()
    assert stats["replayed_records"] == 4
    assert stats["replayed_inserts"] == 3
    assert stats["replayed_deletes"] == 1
    assert stats["last_replayed_seq"] == 4
    assert not recovered.replaying
    recovered.wal.close()


# --------------------------------------------------------------------- #
# guard rails
# --------------------------------------------------------------------- #
def test_snapshot_without_wal_position_refuses_nonempty_log(tmp_path, corpus):
    """A snapshot that never saw the log cannot anchor a replay offset."""
    index = _fresh_index(corpus)
    path = index.save(tmp_path / "plain")  # saved with no WAL attached
    with WriteAheadLog(tmp_path / "wal") as wal:
        wal.append_delete([0])
        with pytest.raises(ValueError, match="no WAL position"):
            QueryIndex.load(path, wal=wal)
        # an *empty* log is fine: nothing to replay, logging just starts
        empty = WriteAheadLog(tmp_path / "empty")
        loaded = QueryIndex.load(path, wal=empty)
        assert loaded.wal is empty
        empty.close()


def test_compact_save_with_wal_is_refused(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    index.delete([2])
    with pytest.raises(ValueError, match="compact"):
        index.save(tmp_path / "compacted", compact=True)
    index.wal.close()


def test_mutating_before_recover_is_refused(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    path = index.save(tmp_path / "checkpoint")
    index.insert(corpus[40:45])
    index.wal.close()

    loaded = QueryIndex.load(path)
    loaded.insert(corpus[45:50])  # diverges from the log
    with pytest.raises(ValueError, match="mutated"):
        loaded.recover(WriteAheadLog(tmp_path / "wal"))


def test_object_dtype_ids_are_rejected_before_writing():
    with pytest.raises(ValueError, match="dtype object"):
        _encode_arrays("insert", {"ids": np.array([{"not": "fixed-width"}])})


def test_bad_fsync_policy_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        WriteAheadLog(tmp_path / "wal", fsync="sometimes")


# --------------------------------------------------------------------- #
# fsync policies
# --------------------------------------------------------------------- #
def test_fsync_always_syncs_every_append(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(WriteAheadLog(tmp_path / "wal", fsync="always"))
    index.insert(corpus[40:45])
    index.delete([0])
    stats = index.wal.stats()
    assert stats["appends"] == 2
    assert stats["syncs"] == 2
    assert stats["unsynced_records"] == 0
    index.wal.close()


def test_fsync_batch_syncs_on_interval_and_close(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(WriteAheadLog(tmp_path / "wal", fsync="batch", sync_every=3))
    for row in range(40, 44):
        index.insert(corpus[row : row + 1])
    stats = index.wal.stats()
    assert stats["appends"] == 4
    assert stats["syncs"] == 1  # one interval fired at the 3rd record
    assert stats["unsynced_records"] == 1
    index.wal.close()
    assert index.wal.stats()["unsynced_records"] == 0


def test_fsync_off_never_syncs(tmp_path, corpus):
    index = _fresh_index(corpus)
    index.attach_wal(WriteAheadLog(tmp_path / "wal", fsync="off"))
    index.insert(corpus[40:50])
    index.delete([0, 1])
    index.wal.roll()
    index.wal.close()
    assert index.wal.stats()["syncs"] == 0


# --------------------------------------------------------------------- #
# checkpoints and pruning
# --------------------------------------------------------------------- #
def test_checkpoint_stamps_segment_and_splits_the_stream(tmp_path, corpus, probes):
    """Replay starts at the snapshot's stamped segment, not the log's head."""
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    index.insert(corpus[40:45])  # pre-checkpoint records (segment 1)
    path = index.save(tmp_path / "checkpoint")
    index.insert(corpus[45:50])  # post-checkpoint records (segment 2)
    index.wal.close()

    wal = WriteAheadLog(tmp_path / "wal")
    assert wal.active_segment == 2
    recovered = QueryIndex.load(path, wal=wal)
    assert recovered.replay_stats()["replayed_records"] == 1
    _assert_bit_identical(recovered, index, probes)
    recovered.wal.close()


def test_store_checkpoints_keep_wal_bounded(tmp_path, corpus):
    """Repeated store saves prune every segment no retained snapshot needs."""
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    store = SnapshotStore(tmp_path / "snaps", keep=2)
    for round_index in range(5):
        start = 40 + round_index * 4
        index.insert(corpus[start : start + 4])
        store.save(index)
    stats = index.wal.stats()
    # keep=2 retains two snapshots; only their replay tails may survive
    assert stats["segments"] <= 3
    assert stats["pruned_segments"] >= 2
    # rollback target: the *oldest retained* snapshot still replays
    oldest = store.snapshots()[0]
    recovered = load_query_index(oldest, wal=WriteAheadLog(tmp_path / "wal"))
    assert recovered.n_indexed == index.n_indexed
    recovered.wal.close()
    index.wal.close()


def test_store_load_replays_latest_tail(tmp_path, corpus, probes):
    index = _fresh_index(corpus)
    index.attach_wal(tmp_path / "wal")
    store = SnapshotStore(tmp_path / "snaps", keep=2)
    store.save(index)
    _mutate(index, corpus)
    index.wal.close()

    recovered = store.load(wal=WriteAheadLog(tmp_path / "wal"))
    _assert_bit_identical(recovered, index, probes)
    recovered.wal.close()


def test_wal_stats_shape(tmp_path, corpus):
    index = _fresh_index(corpus)
    assert index.wal_stats() is None
    index.attach_wal(WriteAheadLog(tmp_path / "wal", fsync="batch", sync_every=8))
    index.insert(corpus[40:44])
    stats = index.wal_stats()
    assert stats["fsync"] == "batch"
    assert stats["sync_every"] == 8
    assert stats["segments"] == 1
    assert stats["active_segment"] == 1
    assert stats["records"] == 1
    assert stats["last_seq"] == 1
    assert stats["bytes"] > 0
    index.wal.close()
