"""Crash safety of the snapshot writer and corruption safety of the loader.

The durability contract under test: ``save_query_index`` either publishes a
complete, checksummed snapshot or leaves the previous one loadable; and
``load_query_index`` never returns wrong data silently — every torn,
truncated or bit-flipped snapshot raises ``SnapshotCorruptError`` naming the
offending path, and a retired ``.npz`` archive is refused as a plain
``ValueError``.  ``SnapshotStore`` adds rollback: one bad snapshot (or a
crash between data write and pointer update) never takes the whole store
down.  Manifest- and member-level corruption shapes are swept in
``tests/serving/test_flat_layout.py``.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import (
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotStore,
    save_query_index,
)
from repro.testing import faults
from repro.testing.faults import InjectedCrash

from .conftest import planted_collection


@pytest.fixture(scope="module")
def index() -> QueryIndex:
    corpus = planted_collection(61, n=30)
    built = QueryIndex(corpus[:20], measure="cosine", threshold=0.6, seed=3)
    built.insert(corpus[20:])
    built.delete([1, 25])
    return built


@pytest.fixture(scope="module")
def probe_queries() -> np.ndarray:
    return planted_collection(62, n=4)


def _answers(loaded: QueryIndex, queries) -> list:
    return loaded.query_many(queries, threshold=0.5)


def _member_file(path, name: str):
    manifest = json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])
    return path / manifest["members"][name]["file"]


# --------------------------------------------------------------------- #
# atomic write
# --------------------------------------------------------------------- #
def test_crash_before_replace_preserves_previous(tmp_path, index, probe_queries):
    """A crash in the manifest's write → rename window never touches the
    committed snapshot."""
    path = index.save(tmp_path / "index")
    reference = _answers(QueryIndex.load(path), probe_queries)
    manifest = (path / MANIFEST_NAME).read_bytes()
    with faults.inject() as plan:
        plan.crash_before_replace(event="flat_replace")
        with pytest.raises(InjectedCrash):
            index.save(path)
    assert any(fired[0] == "snapshot_crash" for fired in plan.fired)
    # The aborted save leaves its manifest temp file behind, like a real
    # crash would; the published manifest is byte-for-byte the previous one.
    assert list(path.glob(f".{MANIFEST_NAME}.tmp.*"))
    assert (path / MANIFEST_NAME).read_bytes() == manifest
    assert _answers(QueryIndex.load(path), probe_queries) == reference


def test_crash_on_first_save_leaves_no_destination(tmp_path, index):
    """An uncommitted first save publishes no manifest, so nothing loads."""
    with faults.inject() as plan:
        plan.crash_before_replace(event="flat_replace")
        with pytest.raises(InjectedCrash):
            index.save(tmp_path / "fresh")
    path = tmp_path / "fresh.flat"
    assert not (path / MANIFEST_NAME).exists()
    with pytest.raises(SnapshotCorruptError, match="missing MANIFEST.json"):
        QueryIndex.load(tmp_path / "fresh")


def test_failed_save_cleans_its_temp_file(tmp_path):
    with pytest.raises(TypeError):
        save_query_index("not an index", tmp_path / "bad")
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- #
# corruption detection
# --------------------------------------------------------------------- #
def test_truncated_snapshot_raises_typed_error(tmp_path, index):
    path = tmp_path / "torn.flat"
    with faults.inject() as plan:
        plan.truncate_snapshot(keep_fraction=0.5, event="flat_replace")
        index.save(path)
    assert any(fired[0] == "snapshot_truncate" for fired in plan.fired)
    with pytest.raises(SnapshotCorruptError) as excinfo:
        QueryIndex.load(path)
    assert excinfo.value.path == path
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("offset", [None, 100])
def test_bitflipped_snapshot_raises_typed_error(tmp_path, index, offset):
    path = tmp_path / "flipped.flat"
    with faults.inject() as plan:
        plan.corrupt_snapshot(offset=offset, event="flat_replace")
        index.save(path)
    assert any(fired[0] == "snapshot_corrupt" for fired in plan.fired)
    with pytest.raises(SnapshotCorruptError) as excinfo:
        QueryIndex.load(path)
    assert excinfo.value.path == path


def test_missing_magic_raises_with_path(tmp_path):
    path = tmp_path / "other.flat"
    path.mkdir()
    (path / MANIFEST_NAME).write_bytes(b'{"format": "something-else"}\n{}')
    with pytest.raises(SnapshotCorruptError, match="not a QueryIndex snapshot") as excinfo:
        QueryIndex.load(path)
    assert str(path) in str(excinfo.value)


def test_unsupported_version_stays_plain_value_error(tmp_path, index):
    """An intact snapshot of an unknown version is not *corrupt* — the error
    must say so distinctly (and keep the historical ValueError contract)."""
    path = index.save(tmp_path / "full")
    raw = (path / MANIFEST_NAME).read_bytes()
    head, _, body = raw.partition(b"\n")
    header, payload = json.loads(head), json.loads(body)
    payload["version"] = 99
    body = json.dumps(payload).encode("utf-8")
    header["payload_crc"], header["payload_size"] = zlib.crc32(body), len(body)
    (path / MANIFEST_NAME).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(ValueError, match="version 99") as excinfo:
        QueryIndex.load(path)
    assert not isinstance(excinfo.value, SnapshotCorruptError)
    assert f"reads version {SNAPSHOT_VERSION}" in str(excinfo.value)


def test_legacy_npz_file_is_a_plain_value_error(tmp_path):
    """A regular file is an intact snapshot of the retired ``.npz`` format:
    refused as unsupported, not reported as corrupt."""
    path = tmp_path / "legacy.npz"
    np.savez(path, format=np.array("repro-query-index"))
    with pytest.raises(ValueError, match=r"\.npz snapshots are no longer read") as excinfo:
        QueryIndex.load(path)
    assert not isinstance(excinfo.value, SnapshotCorruptError)


# --------------------------------------------------------------------- #
# rolling snapshot store
# --------------------------------------------------------------------- #
def test_store_load_rolls_back_past_corrupt_latest(tmp_path, index, probe_queries):
    """A flipped data byte in the newest snapshot fails the RAM audit; the
    store serves the previous snapshot instead."""
    store = SnapshotStore(tmp_path / "snaps", keep=3)
    store.save(index)
    latest = store.save(index)
    reference = _answers(QueryIndex.load(store.snapshots()[0]), probe_queries)
    member = _member_file(latest, "seg0_store")
    data = bytearray(member.read_bytes())
    data[len(data) // 2] ^= 0xFF
    member.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
        QueryIndex.load(latest)
    assert _answers(store.load(), probe_queries) == reference


def test_store_crash_between_data_and_pointer_keeps_previous(
    tmp_path, index, probe_queries
):
    store = SnapshotStore(tmp_path / "snaps", keep=3)
    first = store.save(index)
    reference = _answers(QueryIndex.load(first), probe_queries)
    with faults.inject() as plan:
        plan.crash_before_replace(event="flat_replace")
        with pytest.raises(InjectedCrash):
            store.save(index)
    assert any(fired[0] == "snapshot_crash" for fired in plan.fired)
    # The aborted snapshot's directory exists (its data files are on disk)
    # but never committed; the pointer still names the first snapshot.
    assert len(store.snapshots()) == 2
    assert store.pointer_path.read_text().strip() == first.name
    assert _answers(store.load(), probe_queries) == reference


def test_store_prunes_to_keep_and_points_at_newest(tmp_path, index):
    store = SnapshotStore(tmp_path / "snaps", keep=2)
    store.save(index)
    store.save(index)
    newest = store.save(index)
    names = [path.name for path in store.snapshots()]
    assert len(names) == 2
    assert store.pointer_path.read_text().strip() == newest.name == names[-1]
    assert newest.name == "snapshot-00000002.flat"


def test_store_raises_aggregate_error_when_everything_is_corrupt(tmp_path, index):
    store = SnapshotStore(tmp_path / "snaps", keep=3)
    store.save(index)
    store.save(index)
    for path in store.snapshots():
        (path / MANIFEST_NAME).write_bytes(b"garbage")
    with pytest.raises(SnapshotCorruptError, match="every snapshot failed") as excinfo:
        store.load()
    for path in store.snapshots():
        assert path.name in str(excinfo.value)


def test_empty_store_raises_file_not_found(tmp_path):
    store = SnapshotStore(tmp_path / "nothing")
    with pytest.raises(FileNotFoundError):
        store.load()
