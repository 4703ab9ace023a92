"""Adversarial tests for the flat on-disk snapshot layout.

The flat layout (see ``repro/serving/snapshot.py``) spreads one snapshot
over many files, so "the snapshot is corrupt" has many shapes: a member
file truncated at any boundary, a bit flipped anywhere in the manifest, a
member file missing outright, a data byte flipped with the size intact, an
orphaned generation from a crashed writer.  Every test here drives one of
those shapes into :func:`~repro.serving.snapshot.read_flat` and asserts the
documented outcome — an identical load, a typed
:class:`~repro.serving.snapshot.SnapshotCorruptError` naming the snapshot
path, or (for intact-but-foreign versions) a plain ``ValueError``.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import (
    FLAT_FORMAT,
    FLAT_VERSION,
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    load_query_index,
    read_flat,
    write_flat,
)


def _corpus(seed: int, n: int = 40, features: int = 60) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = rng.random((n, features)) * (rng.random((n, features)) < 0.2)
    dense[: n // 5] = dense[n // 2 : n // 2 + n // 5]
    return dense


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A committed flat snapshot of a small multi-segment index."""
    index = QueryIndex(_corpus(11), measure="cosine", threshold=0.6, seed=5)
    index.insert(_corpus(12, n=6))
    index.delete([1, 4])
    root = tmp_path_factory.mktemp("flat-pristine")
    path = index.save(root / "snapshot", layout="flat")
    queries = _corpus(11)[:5]
    reference = index.query_many(queries, threshold=0.5)
    return path, queries, reference


def _clone(pristine, tmp_path):
    """A private mutable copy of the pristine snapshot directory."""
    path, queries, reference = pristine
    copy = tmp_path / path.name
    shutil.copytree(path, copy)
    return copy, queries, reference


def _member_files(path):
    manifest = json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])
    return {name: entry for name, entry in manifest["members"].items()}


def _rewrite_manifest(path, mutate):
    """Apply ``mutate(payload)`` and re-commit with a *valid* header CRC.

    Used to test the semantic validation layers below the checksum: the
    manifest itself verifies, but declares something inconsistent.
    """
    raw = (path / MANIFEST_NAME).read_bytes()
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    payload = json.loads(body)
    mutate(payload)
    body = json.dumps(payload).encode("utf-8")
    header["payload_crc"] = int(zlib.crc32(body))
    header["payload_size"] = len(body)
    (path / MANIFEST_NAME).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


# --------------------------------------------------------------------- #
# baseline: the untouched layout loads identically on both backends
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("storage", ["ram", "mmap"])
def test_pristine_layout_loads_identically(pristine, tmp_path, storage):
    path, queries, reference = _clone(pristine, tmp_path)
    assert path.is_dir() and path.suffix == ".flat"
    loaded = QueryIndex.load(path, storage=storage)
    assert loaded.query_many(queries, threshold=0.5) == reference


# --------------------------------------------------------------------- #
# member files: truncation at every boundary, growth, removal
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("storage", ["ram", "mmap"])
def test_truncating_any_member_at_any_boundary_is_typed(pristine, tmp_path, storage):
    """Every member × every truncation point → SnapshotCorruptError.

    The size check is structural, so the *mmap* backend must catch torn
    files too — lazily faulting pages is no excuse for loading a file the
    manifest says should be longer.
    """
    base, _, _ = _clone(pristine, tmp_path)
    members = _member_files(base)
    assert len(members) > 10  # the matrix below actually covers the layout
    for name, entry in members.items():
        nbytes = entry["nbytes"]
        if nbytes == 0:
            continue  # an empty member cannot be truncated
        boundaries = sorted({0, 1, nbytes // 2, nbytes - 1})
        for keep in boundaries:
            victim = tmp_path / f"trunc-{name}-{keep}"
            shutil.copytree(base, victim)
            with open(victim / entry["file"], "r+b") as handle:
                handle.truncate(keep)
            with pytest.raises(SnapshotCorruptError, match="truncated or torn") as info:
                read_flat(victim, storage=storage)
            assert str(victim) in str(info.value)
            assert entry["file"] in str(info.value)
            shutil.rmtree(victim)


def test_grown_member_file_is_typed(pristine, tmp_path):
    """A member *longer* than declared is just as torn as a shorter one."""
    path, _, _ = _clone(pristine, tmp_path)
    entry = _member_files(path)["seg0_store"]
    with open(path / entry["file"], "ab") as handle:
        handle.write(b"\x00")
    with pytest.raises(SnapshotCorruptError, match="truncated or torn"):
        read_flat(path, storage="mmap")


@pytest.mark.parametrize("storage", ["ram", "mmap"])
def test_stripped_member_file_is_typed(pristine, tmp_path, storage):
    path, _, _ = _clone(pristine, tmp_path)
    entry = _member_files(path)["seg0_collection_data"]
    (path / entry["file"]).unlink()
    with pytest.raises(SnapshotCorruptError, match="missing member file") as info:
        read_flat(path, storage=storage)
    assert str(path) in str(info.value)
    assert entry["file"] in str(info.value)


def test_flipped_data_byte_fails_ram_audit_but_passes_mmap_structure(
    pristine, tmp_path
):
    """The documented backend asymmetry: same flip, different guarantees.

    ``storage="ram"`` hashes every data byte and must reject the flip;
    ``storage="mmap"`` promises structural verification only (hashing
    would fault the whole corpus in), so the same snapshot maps cleanly.
    """
    path, _, _ = _clone(pristine, tmp_path)
    entry = _member_files(path)["seg0_store"]
    target = path / entry["file"]
    blob = bytearray(target.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    target.write_bytes(blob)

    with pytest.raises(SnapshotCorruptError, match="checksum mismatch") as info:
        read_flat(path, storage="ram")
    assert "seg0_store" in str(info.value)
    version, meta, arrays = read_flat(path, storage="mmap")
    assert arrays["seg0_store"].shape == tuple(entry["shape"])


# --------------------------------------------------------------------- #
# manifest: bit flips anywhere are caught by the self-validating header
# --------------------------------------------------------------------- #
def test_flipping_any_manifest_byte_is_typed(pristine, tmp_path):
    """A sampled sweep of single-byte flips across the whole manifest.

    The manifest is self-validating: a flip in the payload breaks its CRC,
    a flip in the header breaks the JSON, the magic, or the CRC/size
    declaration the payload is checked against.  Every sampled offset —
    plus the first and last byte and the section separator — must raise
    the typed error naming the snapshot path.
    """
    base, _, _ = _clone(pristine, tmp_path)
    raw = (base / MANIFEST_NAME).read_bytes()
    offsets = set(range(0, len(raw), max(1, len(raw) // 64)))
    offsets |= {0, len(raw) - 1, raw.index(b"\n")}
    for offset in sorted(offsets):
        blob = bytearray(raw)
        blob[offset] ^= 0xFF
        (base / MANIFEST_NAME).write_bytes(blob)
        with pytest.raises(SnapshotCorruptError) as info:
            read_flat(base, storage="ram")
        assert str(base) in str(info.value), offset
    (base / MANIFEST_NAME).write_bytes(raw)  # still loadable afterwards
    read_flat(base, storage="ram")


def test_truncating_the_manifest_at_every_boundary_is_typed(pristine, tmp_path):
    base, _, _ = _clone(pristine, tmp_path)
    raw = (base / MANIFEST_NAME).read_bytes()
    newline = raw.index(b"\n")
    for keep in sorted({0, 1, newline, newline + 1, len(raw) // 2, len(raw) - 1}):
        (base / MANIFEST_NAME).write_bytes(raw[:keep])
        with pytest.raises(SnapshotCorruptError):
            read_flat(base, storage="mmap")


def test_missing_manifest_is_typed(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)
    (path / MANIFEST_NAME).unlink()
    with pytest.raises(SnapshotCorruptError, match="missing MANIFEST.json"):
        read_flat(path)


def test_foreign_directory_is_typed(tmp_path):
    foreign = tmp_path / "not-a-snapshot"
    foreign.mkdir()
    (foreign / MANIFEST_NAME).write_bytes(b'{"format": "something-else"}\n{}')
    with pytest.raises(SnapshotCorruptError, match="not a QueryIndex snapshot"):
        read_flat(foreign)


# --------------------------------------------------------------------- #
# versioning: intact-but-unsupported is ValueError, not corruption
# --------------------------------------------------------------------- #
def test_future_flat_version_is_plain_value_error(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)
    raw = (path / MANIFEST_NAME).read_bytes()
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    header["flat_version"] = FLAT_VERSION + 1
    (path / MANIFEST_NAME).write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(ValueError, match="flat layout version") as info:
        read_flat(path)
    assert not isinstance(info.value, SnapshotCorruptError)


def test_future_snapshot_version_is_plain_value_error(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)
    _rewrite_manifest(path, lambda payload: payload.update(version=99))
    with pytest.raises(ValueError, match="version 99") as info:
        read_flat(path)
    assert not isinstance(info.value, SnapshotCorruptError)


# --------------------------------------------------------------------- #
# semantic validation below the checksum layer
# --------------------------------------------------------------------- #
def test_member_escaping_the_snapshot_directory_is_typed(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)

    def escape(payload):
        payload["members"]["deleted"]["file"] = "../outside.bin"

    _rewrite_manifest(path, escape)
    with pytest.raises(SnapshotCorruptError, match="outside the snapshot directory"):
        read_flat(path)


def test_member_shape_dtype_size_disagreement_is_typed(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)

    def disagree(payload):
        payload["members"]["seg0_store"]["shape"][0] += 1  # nbytes now wrong

    _rewrite_manifest(path, disagree)
    with pytest.raises(SnapshotCorruptError, match="declares .* bytes but shape"):
        read_flat(path)


def test_checksum_and_member_tables_must_agree(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)
    _rewrite_manifest(path, lambda p: p["members"].pop("deleted"))
    with pytest.raises(SnapshotCorruptError, match="'deleted' is in the checksum"):
        read_flat(path)

    path2, _, _ = _clone(pristine, tmp_path / "second")
    _rewrite_manifest(path2, lambda p: p["meta"]["checksums"].pop("deleted"))
    with pytest.raises(SnapshotCorruptError, match="'deleted' has no entry"):
        read_flat(path2)


# --------------------------------------------------------------------- #
# the higher-level loader surfaces the same typed error
# --------------------------------------------------------------------- #
def test_load_query_index_surfaces_typed_error(pristine, tmp_path):
    path, _, _ = _clone(pristine, tmp_path)
    entry = _member_files(path)["seg0_store"]
    with open(path / entry["file"], "r+b") as handle:
        handle.truncate(3)
    with pytest.raises(SnapshotCorruptError, match="truncated or torn"):
        load_query_index(path)


# --------------------------------------------------------------------- #
# generations: orphans are never reused, stale files are collected
# --------------------------------------------------------------------- #
def test_recommit_bumps_generation_and_collects_stale_files(pristine, tmp_path):
    path, queries, _ = _clone(pristine, tmp_path)
    first = json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])
    index = QueryIndex.load(path)
    reference = index.query_many(queries, threshold=0.5)

    index.save(path, layout="flat")
    second = json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])
    assert second["generation"] > first["generation"]
    on_disk = {entry.name for entry in path.iterdir()}
    referenced = {entry["file"] for entry in second["members"].values()}
    assert on_disk == referenced | {MANIFEST_NAME}  # stale generations are gone
    assert QueryIndex.load(path).query_many(queries, threshold=0.5) == reference


def test_crashed_writer_orphans_are_superseded_not_reused(pristine, tmp_path):
    """File names decide the next generation, not the manifest.

    An orphaned high-generation file (a crashed writer got further than
    the committed manifest) must never be overwritten by a new commit
    under the same name — the writer skips past it, and the commit's GC
    then removes it along with any leftover temp files.
    """
    path, queries, reference = _clone(pristine, tmp_path)
    orphan = path / "deleted.g7.bin"
    orphan.write_bytes(b"\xde\xad\xbe\xef")
    leftover_temp = path / f"{MANIFEST_NAME}.tmp.1234"
    leftover_temp.write_bytes(b"partial")

    # Orphans do not disturb a load: the manifest alone decides what is read.
    assert QueryIndex.load(path).query_many(queries, threshold=0.5) == reference

    QueryIndex.load(path).save(path, layout="flat")
    manifest = json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])
    assert manifest["generation"] == 8  # one past the orphan, never equal
    assert not orphan.exists()
    assert not leftover_temp.exists()
    names = {entry["file"] for entry in manifest["members"].values()}
    assert all(".g8." in name for name in names)


def test_empty_members_round_trip(tmp_path):
    """Zero-length arrays get zero-length files and come back empty-typed."""
    arrays = {
        "empty": np.zeros((0, 4), dtype=np.float64),
        "full": np.arange(6, dtype=np.int32).reshape(2, 3),
    }
    meta = {"checksums": {name: int(zlib.crc32(value.tobytes())) for name, value in arrays.items()}}
    path = write_flat(tmp_path / "tiny.flat", SNAPSHOT_VERSION, meta, arrays)
    assert (path / MANIFEST_NAME).exists()
    for storage in ("ram", "mmap"):
        version, _, loaded = read_flat(path, storage=storage)
        assert version == SNAPSHOT_VERSION
        assert loaded["empty"].shape == (0, 4)
        assert loaded["empty"].dtype == np.float64
        assert np.array_equal(loaded["full"], arrays["full"])
    assert json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[0])[
        "format"
    ] == FLAT_FORMAT
