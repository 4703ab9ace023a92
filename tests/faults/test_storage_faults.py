"""Crash and worker-loss safety of the flat layout and its mmap backend.

Two durability properties from the storage issue:

* the flat layout's only commit point is the ``MANIFEST.json`` replace
  (the ``flat_replace`` seam) — a crash, truncation or bit flip anywhere
  in that window leaves the *previous* generation fully loadable or the
  published manifest typed-rejected, never silently wrong data;
* an index served out-of-core (``storage="mmap"``) inherits the whole
  worker-loss contract: SIGKILLing a worker mid-protocol — including the
  estimates gather — recovers through the serial fallback with answers
  bit-identical to the all-serial run over the in-RAM original.
"""

from __future__ import annotations

import json

import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import MANIFEST_NAME, SnapshotCorruptError
from repro.testing import faults
from repro.testing.faults import InjectedCrash


@pytest.fixture(scope="module")
def flat_path(serving_index, tmp_path_factory):
    """The serving index committed once as a flat-layout snapshot."""
    root = tmp_path_factory.mktemp("flat-faults")
    return serving_index.save(root / "index", layout="flat")


def _generation(path) -> int:
    return json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])[
        "generation"
    ]


# --------------------------------------------------------------------- #
# the manifest commit point
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("storage", ["ram", "mmap"])
def test_crash_before_manifest_replace_preserves_previous_generation(
    tmp_path, serving_index, query_batch, serial_answers, storage
):
    """A crash in the manifest write→rename window never loses the old data.

    The new generation's data files are already on disk when the seam
    fires — unreferenced orphans a real crash would also leave — and the
    previous manifest must keep loading bit-identically around them, on
    both backends.
    """
    path = serving_index.save(tmp_path / "index", layout="flat")
    before = _generation(path)
    with faults.inject() as plan:
        plan.crash_before_replace(event="flat_replace")
        with pytest.raises(InjectedCrash):
            serving_index.save(path, layout="flat")
    assert any(fired[0] == "snapshot_crash" for fired in plan.fired)

    assert _generation(path) == before  # the commit never happened
    # The aborted writer's new-generation files survive as orphans ...
    orphans = [entry for entry in path.iterdir() if f".g{before + 1}." in entry.name]
    assert orphans
    # ... and do not disturb a load of the committed generation.
    loaded = QueryIndex.load(path, storage=storage)
    assert loaded.query_many(query_batch, threshold=0.55) == serial_answers["query"]

    # The next successful commit supersedes the orphans and collects them.
    loaded.save(path, layout="flat")
    assert _generation(path) == before + 2
    assert not any(f".g{before + 1}." in entry.name for entry in path.iterdir())


def test_crash_on_first_flat_save_is_never_silently_loadable(tmp_path, serving_index):
    """An uncommitted first save has no manifest; loading it is typed-rejected."""
    path = tmp_path / "fresh.flat"
    with faults.inject() as plan:
        plan.crash_before_replace(event="flat_replace")
        with pytest.raises(InjectedCrash):
            serving_index.save(path, layout="flat")
    assert any(fired[0] == "snapshot_crash" for fired in plan.fired)
    with pytest.raises(SnapshotCorruptError, match="missing MANIFEST.json"):
        QueryIndex.load(path)


def test_truncated_manifest_via_seam_raises_typed_error(tmp_path, serving_index):
    """A manifest torn inside the commit window is rejected on load."""
    path = tmp_path / "torn.flat"
    with faults.inject() as plan:
        plan.truncate_snapshot(keep_fraction=0.5, event="flat_replace")
        serving_index.save(path, layout="flat")
    assert any(fired[0] == "snapshot_truncate" for fired in plan.fired)
    with pytest.raises(SnapshotCorruptError) as excinfo:
        QueryIndex.load(path)
    assert excinfo.value.path == path


@pytest.mark.parametrize("offset", [None, 10])
def test_bitflipped_manifest_via_seam_raises_typed_error(
    tmp_path, serving_index, offset
):
    """The manifest's self-CRC (or header parse) catches commit-window flips."""
    path = tmp_path / "flipped.flat"
    with faults.inject() as plan:
        plan.corrupt_snapshot(offset=offset, event="flat_replace")
        serving_index.save(path, layout="flat")
    assert any(fired[0] == "snapshot_corrupt" for fired in plan.fired)
    with pytest.raises(SnapshotCorruptError) as excinfo:
        QueryIndex.load(path)
    assert excinfo.value.path == path


# --------------------------------------------------------------------- #
# worker loss while serving out-of-core
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def mmap_index(flat_path) -> QueryIndex:
    """The serving index re-loaded onto read-only memory maps."""
    return QueryIndex.load(flat_path, storage="mmap")


@pytest.mark.parametrize("event", ["serving_estimates", "serving_exact"])
def test_kill_worker_over_mmap_segments_bit_identical(
    mmap_index, query_batch, serial_answers, event
):
    """SIGKILL mid-protocol over mmap segments recovers bit-identically.

    Workers inherit the memory-mapped segments through the fork; losing one
    mid-gather must fall back serially to the same answers the in-RAM
    original produced.
    """
    with faults.inject() as plan:
        plan.kill_worker(0, event=event)
        answers = mmap_index.query_many(query_batch, threshold=0.55, n_workers=2)
    assert ("kill", 0) in plan.fired
    assert answers == serial_answers["query"]


def test_kill_worker_top_k_over_mmap_segments_bit_identical(
    mmap_index, query_batch, serial_answers
):
    with faults.inject() as plan:
        plan.kill_worker(1, event="serving_estimates")
        ranked = mmap_index.top_k_many(
            query_batch, k=5, floor_threshold=0.2, rank_by="estimate", n_workers=2
        )
    assert ("kill", 1) in plan.fired
    assert ranked == serial_answers["topk_estimate"]


def test_store_rolls_back_past_corrupt_flat_latest(
    tmp_path, serving_index, query_batch, serial_answers
):
    """SnapshotStore rollback past a corrupt manifest.

    The newest snapshot's manifest is bit-flipped on disk; ``load`` must
    skip it (typed rejection, logged) and serve the previous snapshot
    bit-identically.
    """
    from repro.serving.snapshot import SnapshotStore

    store = SnapshotStore(tmp_path / "snaps", keep=3)
    store.save(serving_index, layout="flat")
    latest = store.save(serving_index, layout="flat")
    manifest = latest / MANIFEST_NAME
    blob = bytearray(manifest.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    manifest.write_bytes(bytes(blob))
    loaded = store.load()
    assert loaded.query_many(query_batch, threshold=0.55) == serial_answers["query"]


def test_kill_every_worker_over_mmap_segments_falls_back_serial(
    mmap_index, query_batch, serial_answers
):
    with faults.inject() as plan:
        plan.kill_worker(0, event="serving_exact")
        plan.kill_worker(1, event="serving_exact")
        answers = mmap_index.query_many(query_batch, threshold=0.55, n_workers=2)
    assert ("kill", 0) in plan.fired and ("kill", 1) in plan.fired
    assert answers == serial_answers["query"]
