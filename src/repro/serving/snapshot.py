"""Versioned on-disk snapshots of a :class:`~repro.search.query.QueryIndex`.

A snapshot is a **flat-layout directory** (conventionally ``*.flat``) with
one raw C-order binary file per array plus a self-validating manifest — no
pickling anywhere::

    index.flat/
      MANIFEST.json            # the atomic commit point
      deleted.g3.bin           # one raw C-order file per array, stamped
      seg0_store.g3.bin        # with the generation that wrote it
      ...

The array members hold every piece of state the index cannot re-derive
bit-identically on its own:

``seg{i}_collection_*``
    Each sealed segment's raw collection as CSR components plus external
    ids, packed by :func:`repro.datasets.io.collection_arrays` (the exact
    layout ``save_collection`` writes to standalone files).
``seg{i}_store``
    Each segment's signature store contents (packed ``uint32`` words for the
    bit store, the raw integer matrix for the minhash store).  Segments
    extend their stores independently, so widths may differ; the per-segment
    ``store_n_hashes`` list in ``meta`` records each width.
``family_*``
    The *master* hash family's array state: drawn minhash coefficients, or
    the (quantised) simhash projection matrix.  Together with the RNG state
    in ``meta`` this makes hash generation *resume* identically after a
    round trip — hash function ``i`` is the same before and after, whether
    it was drawn before the save or after the load (clones of the master
    re-draw any missing coefficients from the same deterministic stream).
``deleted``
    The global tombstone mask.
``postings_keys`` / ``postings_rows`` / ``postings_run_sizes``
    The band postings' sealed runs end to end (each a sorted ``uint64`` key
    array and its parallel member rows) and each run's length.  A load
    adopts them as they are, so neither the load nor the first query builds
    anything; a memory-mapped load maps them.

What is *not* serialised is exactly the state that is a deterministic
function of the above: the measures' prepared views, the per-segment family
clones and the BayesLSH decision tables are rebuilt on load.

``MANIFEST.json`` is two sections in one file: a first line of header JSON
(format magic ``"repro-query-index-flat"``, flat-layout version, CRC32 and
size of the payload section) followed by the payload JSON — the snapshot
version, the generation, the member table mapping each array to its file,
dtype, shape and byte size, and the ``meta`` document: the index's scalar
configuration (measure, threshold, verification mode, BayesLSH parameters,
seed), the segment layout (``n_segments``,
per-segment ``store_n_hashes``), the hash family's scalar state including
the JSON-encoded RNG bit-generator state, and a mandatory ``checksums``
table mapping every array member to its CRC32.  A bit flip anywhere in the
manifest breaks the header parse, the magic, or the payload CRC — the
manifest is self-validating.

The current snapshot format is **version 4** (flat layout version 1).  An
intact manifest of any other version — version 3's postings member
sequence included — raises a plain ``ValueError``, and so does a regular
file — the retired single-archive ``.npz`` snapshots are not read (there is
no second reader).  :func:`save_query_index` with ``compact=True`` writes
the same format in **compacted** form: all segments merged into one,
tombstoned rows physically dropped, surviving rows renumbered (order and
external ids preserved) and the postings written as one run of the
renumbered members.

Load backends
-------------
:func:`load_query_index` reads a snapshot through one of two backends:

``storage="ram"`` (default)
    Every member file is read into memory and verified against its CRC32.
``storage="mmap"``
    Member files are opened as read-only ``np.memmap`` views: the load
    touches only the manifest and each file's size, and array pages fault
    in lazily as the serving kernels slice them.  Cold start becomes
    milliseconds, and corpus size is bounded by address space, not RAM.
    Integrity on this path is structural — manifest self-CRC plus exact
    per-file size checks — since hashing every data byte would fault the
    whole corpus in and forfeit the lazy load (run a ``storage="ram"`` load
    when full verification of the data bytes is required).

Both backends load bit-identical indices — proven by
``tests/property/test_storage_backends.py``.

Durability contract
-------------------
:func:`save_query_index` either publishes a complete, checksummed snapshot
or leaves the previous one loadable.  No single ``os.replace`` can swap a
directory, so data files are written first (each atomically, under a fresh
generation stamp so an interrupted writer can never tear the files a
*previous* manifest references), the directory is fsynced, and then the
manifest is replaced atomically — the single commit point, carrying the
``flat_replace`` fault seam in its write→rename window.  Stale generations
are garbage-collected only after a successful commit.  Any torn, truncated
or bit-flipped snapshot — and any missing the magic or expected members —
raises :class:`SnapshotCorruptError` naming the offending path; wrong data
is never returned silently.  :class:`SnapshotStore` layers a
rolling-directory convention on top: numbered snapshots, an atomically
updated ``LATEST`` pointer, and load-time rollback to the newest snapshot
that still verifies.

A snapshot of a WAL-attached index is additionally a **checkpoint**: the
save rolls the write-ahead log (:mod:`repro.serving.wal`) and records the
fresh segment number as ``meta["wal_segment"]``, so
:func:`load_query_index` with ``wal=`` replays exactly the mutations the
snapshot does not already contain.  :class:`SnapshotStore` prunes WAL
segments only past what its retained snapshots reference.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.datasets.io import (
    atomic_writer,
    collection_arrays,
    collection_from_arrays,
    fsync_directory,
)
from repro.hashing.signatures import (
    BitSignatures,
    IntSignatures,
    store_from_parts,
    store_parts,
)
from repro.similarity.vectors import VectorCollection

__all__ = [
    "FLAT_FORMAT",
    "FLAT_VERSION",
    "MANIFEST_NAME",
    "SNAPSHOT_VERSION",
    "SnapshotCorruptError",
    "SnapshotStore",
    "load_query_index",
    "read_flat",
    "save_query_index",
    "write_flat",
]

#: current snapshot format version — the only one this build reads
SNAPSHOT_VERSION = 4
#: magic string identifying snapshot manifests
FLAT_FORMAT = "repro-query-index-flat"
#: current flat-layout version (the *snapshot* version is carried separately)
FLAT_VERSION = 1
#: file name of the manifest — the layout's atomic commit point
MANIFEST_NAME = "MANIFEST.json"

_GENERATION_RE = re.compile(r"\.g(\d+)\.bin$")


class SnapshotCorruptError(ValueError):
    """A snapshot failed structural or checksum verification.

    Raised by :func:`load_query_index` for every malformed-snapshot path —
    truncated, torn or bit-flipped files, missing format magic, missing
    members, checksum mismatches — so callers can catch one typed error
    instead of the underlying ``OSError``/``json``/``KeyError`` zoo.  The
    offending ``path`` and a ``detail`` string are attached.

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    loader's historical ``ValueError`` keep working.
    """

    def __init__(self, path, detail: str):
        self.path = Path(path)
        self.detail = str(detail)
        super().__init__(f"corrupt QueryIndex snapshot {self.path}: {self.detail}")


def _snapshot_path(path) -> Path:
    """``path`` with ``.flat`` *appended* unless it already ends in it.

    Appending (never replacing a suffix) keeps names that differ only after
    their last dot — ``run.v1`` / ``run.v2`` — two distinct snapshots.
    """
    path = Path(path)
    return path if path.suffix == ".flat" else path.with_name(path.name + ".flat")


def _array_crc(value: np.ndarray) -> int:
    """CRC32 over an array's raw bytes (C-contiguous view)."""
    return int(zlib.crc32(np.ascontiguousarray(value).tobytes()))


# --------------------------------------------------------------------- #
# the flat layout: manifest, generation files, read/write
# --------------------------------------------------------------------- #
def _next_generation(path: Path) -> int:
    """One past the largest generation any existing file in ``path`` carries.

    Scanning file names (rather than trusting the manifest) means a crashed
    writer's orphaned data files are never reused under the same name — they
    are simply superseded and garbage-collected by the next commit.
    """
    latest = 0
    if path.is_dir():
        for entry in path.iterdir():
            match = _GENERATION_RE.search(entry.name)
            if match:
                latest = max(latest, int(match.group(1)))
    return latest + 1


def write_flat(path, version: int, meta: dict, arrays: dict) -> Path:
    """Write ``arrays`` + ``meta`` as a flat-layout snapshot directory.

    Every data file is written atomically under a fresh generation stamp,
    the directory is fsynced, and the manifest — the single commit point —
    is replaced last (firing the ``flat_replace`` fault seam in its
    write→rename window).  A crash at any earlier point leaves the previous
    manifest and the files it references untouched; files the new manifest
    does not reference are removed only after the commit succeeds.
    """
    path = Path(path)
    generation = _next_generation(path)
    path.mkdir(parents=True, exist_ok=True)

    members: dict[str, dict] = {}
    for name, value in arrays.items():
        value = np.ascontiguousarray(value)
        file_name = f"{name}.g{generation}.bin"
        with atomic_writer(path / file_name) as handle:
            if value.nbytes:
                handle.write(memoryview(value).cast("B"))
        members[name] = {
            "file": file_name,
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "nbytes": int(value.nbytes),
        }
    fsync_directory(path)

    payload = json.dumps(
        {
            "version": int(version),
            "generation": generation,
            "meta": meta,
            "members": members,
        }
    ).encode("utf-8")
    header = json.dumps(
        {
            "format": FLAT_FORMAT,
            "flat_version": FLAT_VERSION,
            "payload_crc": int(zlib.crc32(payload)),
            "payload_size": len(payload),
        }
    ).encode("utf-8")
    with atomic_writer(path / MANIFEST_NAME, event="flat_replace") as handle:
        handle.write(header + b"\n" + payload)

    _collect_stale(path, keep={entry["file"] for entry in members.values()})
    return path


def _collect_stale(path: Path, keep: set[str]) -> None:
    """Drop data files the just-committed manifest does not reference.

    Covers superseded generations and any temp files a *crashed* earlier
    writer left behind (a live writer's temps never coexist with a commit).
    Best effort — a file that cannot be removed only wastes space; the
    manifest alone decides what a load reads.
    """
    for entry in path.iterdir():
        stale_data = _GENERATION_RE.search(entry.name) and entry.name not in keep
        stale_temp = ".tmp." in entry.name
        if stale_data or stale_temp:
            try:
                entry.unlink()
            except OSError:
                pass


def _parse_manifest(path: Path) -> dict:
    """Read and self-verify ``MANIFEST.json``; returns the payload document."""
    manifest_path = path / MANIFEST_NAME
    try:
        raw = manifest_path.read_bytes()
    except FileNotFoundError:
        raise SnapshotCorruptError(
            path, "missing MANIFEST.json — not a flat-layout snapshot"
        ) from None
    except OSError as exc:
        raise SnapshotCorruptError(path, f"unreadable manifest ({exc})") from exc
    head, _, body = raw.partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable manifest header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != FLAT_FORMAT:
        raise SnapshotCorruptError(path, "missing format magic — not a QueryIndex snapshot")
    flat_version = header.get("flat_version")
    if flat_version != FLAT_VERSION:
        # An intact manifest of a flat-layout version this build does not
        # speak is not corrupt — mirror the snapshot-version policy.
        raise ValueError(
            f"flat layout version {flat_version} is not supported "
            f"(this build reads version {FLAT_VERSION})"
        )
    try:
        declared_crc = int(header["payload_crc"])
        declared_size = int(header["payload_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"malformed manifest header ({exc})") from exc
    if len(body) != declared_size:
        raise SnapshotCorruptError(
            path,
            f"manifest payload is {len(body)} bytes, header declares {declared_size} — truncated",
        )
    actual_crc = int(zlib.crc32(body))
    if actual_crc != declared_crc:
        raise SnapshotCorruptError(
            path,
            f"manifest payload checksum mismatch (stored {declared_crc}, computed {actual_crc})",
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable manifest payload ({exc})") from exc
    if not isinstance(payload, dict):
        raise SnapshotCorruptError(path, "manifest payload is not a JSON object")
    return payload


def _member_file(path: Path, name: str, entry) -> tuple[Path, np.dtype, tuple, int]:
    """Validate one member-table entry and return its resolved parts."""
    if not isinstance(entry, dict):
        raise SnapshotCorruptError(path, f"member {name!r} has a malformed manifest entry")
    try:
        file_name = str(entry["file"])
        dtype = np.dtype(str(entry["dtype"]))
        shape = tuple(int(n) for n in entry["shape"])
        nbytes = int(entry["nbytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(
            path, f"member {name!r} has a malformed manifest entry ({exc})"
        ) from exc
    if os.sep in file_name or file_name != os.path.basename(file_name):
        raise SnapshotCorruptError(
            path, f"member {name!r} names a file outside the snapshot directory"
        )
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if expected != nbytes:
        raise SnapshotCorruptError(
            path,
            f"member {name!r} declares {nbytes} bytes but shape {shape} of "
            f"dtype {dtype} needs {expected}",
        )
    return path / file_name, dtype, shape, nbytes


def read_flat(path, storage: str = "ram") -> tuple[int, dict, dict]:
    """Read a flat-layout snapshot; returns ``(version, meta, arrays)``.

    With ``storage="ram"`` every member is loaded into memory and verified
    against the CRC32 manifest; with ``storage="mmap"`` members come back as
    read-only ``np.memmap`` views after structural verification only —
    manifest self-CRC, member-table consistency and exact file sizes — so
    the load cost is independent of the corpus size.  Every malformed
    layout raises :class:`SnapshotCorruptError` naming the path; an intact
    manifest of an unsupported version raises plain ``ValueError``.
    """
    if storage not in ("ram", "mmap"):
        raise ValueError(f"storage must be 'ram' or 'mmap', got {storage!r}")
    path = Path(path)
    payload = _parse_manifest(path)
    try:
        version = int(payload["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable version field ({exc})") from exc
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    meta = payload.get("meta")
    members = payload.get("members")
    if not isinstance(meta, dict) or not isinstance(members, dict):
        raise SnapshotCorruptError(path, "manifest payload is missing its meta/member tables")
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict):
        raise SnapshotCorruptError(path, "manifest is missing its per-array checksum document")
    for name in sorted(set(checksums) - set(members)):
        raise SnapshotCorruptError(path, f"array {name!r} is in the checksum manifest but absent")
    for name in sorted(set(members) - set(checksums)):
        raise SnapshotCorruptError(path, f"array {name!r} has no entry in the checksum manifest")

    arrays: dict[str, np.ndarray] = {}
    for name, entry in members.items():
        file_path, dtype, shape, nbytes = _member_file(path, name, entry)
        try:
            actual_size = file_path.stat().st_size
        except FileNotFoundError:
            raise SnapshotCorruptError(
                path, f"missing member file {file_path.name!r}"
            ) from None
        if actual_size != nbytes:
            raise SnapshotCorruptError(
                path,
                f"member file {file_path.name!r} is {actual_size} bytes, "
                f"manifest declares {nbytes} — truncated or torn",
            )
        if nbytes == 0:
            arrays[name] = np.zeros(shape, dtype=dtype)
        elif storage == "mmap":
            arrays[name] = np.memmap(file_path, dtype=dtype, mode="r", shape=shape)
        else:
            value = np.fromfile(file_path, dtype=dtype).reshape(shape)
            actual_crc = _array_crc(value)
            if actual_crc != int(checksums[name]):
                raise SnapshotCorruptError(
                    path,
                    f"checksum mismatch for array {name!r} "
                    f"(stored {int(checksums[name])}, computed {actual_crc})",
                )
            arrays[name] = value
    return version, meta, arrays


# --------------------------------------------------------------------- #
# the QueryIndex payload
# --------------------------------------------------------------------- #
def _segment_payload(index) -> tuple[list[dict], str, list[int], np.ndarray, object]:
    """Per-segment arrays for a plain (non-compacted) snapshot."""
    arrays: list[dict] = []
    kinds: set[str] = set()
    widths: list[int] = []
    for segment in index._segments.segments:
        kind, matrix, n_hashes = store_parts(segment.store)
        kinds.add(kind)
        widths.append(int(n_hashes))
        packed = collection_arrays(
            VectorCollection(segment.collection.matrix, ids=segment.ids), prefix=""
        )
        packed["store"] = matrix
        arrays.append(packed)
    (kind,) = kinds or {"bits"}
    return arrays, kind, widths, index._deleted, index._postings


def _store_matrix_at_width(segment, width: int) -> np.ndarray:
    """``segment``'s store matrix widened to ``width`` hashes, without
    mutating the segment.

    When the segment's store is already wide enough its matrix is returned
    as-is; otherwise the store contents are copied into a scratch store and
    a fresh family clone extends the *copy* — the extra hashes come from the
    regular deterministic stream, so they match what any future query would
    have materialised, but the live segment keeps its original width (and
    memory footprint).
    """
    store = segment.store
    if store.n_hashes >= width:
        return store_parts(store)[1]
    if isinstance(store, BitSignatures):
        scratch = BitSignatures.from_words(store.words.copy(), store.n_hashes)
    else:
        scratch = IntSignatures.from_values(store.values.copy())
    family = segment.family.clone_for(segment.prepared)
    family.attach_store(scratch)
    family.signatures(width)
    return store_parts(scratch)[1]


def _compacted_payload(index) -> tuple[list[dict], str, list[int], np.ndarray, object]:
    """A single merged segment with tombstoned rows physically dropped.

    Surviving rows are renumbered monotonically (their relative order is
    preserved, so sorted query results map one-to-one) and the postings
    become one run of their alive members, remapped through the same
    old-to-new row map.  The
    *written copies* of narrower segment stores are extended to the widest
    segment's hash count so the merged store has one uniform width; the
    in-memory index is not touched (see :func:`_store_matrix_at_width`).
    """
    segments = index._segments
    width = segments.max_store_hashes
    alive = ~index._deleted

    matrix_parts = []
    ids_parts = []
    store_blocks = []
    kinds: set[str] = set()
    for segment in segments.segments:
        local_alive = np.flatnonzero(alive[segment.offset : segment.offset + segment.n_vectors])
        matrix_parts.append(segment.collection.matrix[local_alive])
        ids_parts.append(np.asarray(segment.ids)[local_alive])
        kinds.add(store_parts(segment.store)[0])
        store_blocks.append(_store_matrix_at_width(segment, width)[local_alive])
    (kind,) = kinds or {"bits"}

    if matrix_parts:
        merged_matrix = sp.vstack(matrix_parts, format="csr")
        merged_ids = np.concatenate(ids_parts)
        merged_store = np.concatenate(store_blocks, axis=0)
    else:
        merged_matrix = sp.csr_matrix((0, segments.n_features), dtype=np.float64)
        merged_ids = np.zeros(0, dtype=np.int64)
        merged_store = np.zeros((0, 0), dtype=np.uint32 if kind == "bits" else np.int64)

    packed = collection_arrays(VectorCollection(merged_matrix, ids=merged_ids), prefix="")
    packed["store"] = merged_store

    deleted = np.zeros(int(alive.sum()), dtype=bool)
    return [packed], kind, [int(width)], deleted, index._postings.compacted(alive)


def _snapshot_payload(index, compact: bool) -> tuple[dict, dict]:
    """The snapshot payload: ``(meta, arrays)``, checksums included."""
    family_state = index._family.state_dict()
    family_arrays: dict[str, np.ndarray] = {}
    family_scalars: dict[str, object] = {}
    for key, value in family_state.items():
        if isinstance(value, np.ndarray):
            family_arrays[f"family_{key}"] = value
        else:
            family_scalars[key] = value
    # Constructor arguments a fresh family needs *before* restore_state can
    # validate against them (currently just the simhash quantisation flag).
    family_kwargs = (
        {"quantize": bool(family_state["quantize"])} if "quantize" in family_state else {}
    )

    payload_of = _compacted_payload if compact else _segment_payload
    segment_arrays, store_kind, store_widths, deleted, postings = payload_of(index)
    runs = postings.runs

    params = index._params
    meta = {
        "measure": index._measure.name,
        "threshold": index._threshold,
        "false_negative_rate": index._false_negative_rate,
        "signature_width": index._signature_width,
        "n_signatures": index._n_signatures,
        "verification": index._verification,
        "epsilon": params.epsilon,
        "delta": params.delta,
        "gamma": params.gamma,
        "k": params.k,
        "max_hashes": params.max_hashes,
        "on_budget": params.on_budget,
        "seed": index._seed,
        "family": index._family.name,
        "family_scalars": family_scalars,
        "family_kwargs": family_kwargs,
        "store_kind": store_kind,
        "store_n_hashes": store_widths,
        "n_features": index._segments.n_features,
        "n_segments": len(segment_arrays),
        "compacted": bool(compact),
    }
    payload: dict[str, np.ndarray] = {}
    for i, packed in enumerate(segment_arrays):
        for key, value in packed.items():
            prefix = f"seg{i}_store" if key == "store" else f"seg{i}_collection_{key}"
            payload[prefix] = value
    arrays: dict[str, np.ndarray] = {
        "deleted": deleted,
        "postings_keys": np.concatenate([np.zeros(0, dtype=np.uint64), *(k for k, _ in runs)]),
        "postings_rows": np.concatenate([np.zeros(0, dtype=np.int64), *(r for _, r in runs)]),
        "postings_run_sizes": np.array([len(k) for k, _ in runs], dtype=np.int64),
        **payload,
        **family_arrays,
    }
    meta["checksums"] = {name: _array_crc(value) for name, value in arrays.items()}
    return meta, arrays


def save_query_index(index, path, compact: bool = False, layout: str | None = None) -> Path:
    """Write ``index`` to ``path`` atomically; returns the written path.

    The snapshot is a flat-layout directory; ``.flat`` is appended to
    ``path`` unless it already ends in it.  ``layout`` accepts only
    ``None`` or ``"flat"`` — the one format — and raises ``ValueError`` for
    anything else.

    With ``compact=True`` the snapshot merges all segments and drops
    tombstoned rows (see :func:`_compacted_payload`); the in-memory index is
    left untouched either way.

    Data files are written first and committed by atomically replacing the
    manifest, so a crash at any point leaves either the previous snapshot
    or the new one, never a torn snapshot under the destination name.
    Every array member's CRC32 is recorded in ``meta["checksums"]`` and
    re-verified by :func:`load_query_index` (structurally, on the lazy mmap
    backend).
    """
    from repro.search.query import QueryIndex

    if not isinstance(index, QueryIndex):
        raise TypeError(f"expected a QueryIndex, got {type(index).__name__}")
    if layout not in (None, "flat"):
        raise ValueError(f"layout must be 'flat' (the only snapshot format), got {layout!r}")
    path = _snapshot_path(path)
    wal = getattr(index, "_wal", None)
    if wal is not None:
        if compact:
            # Compaction renumbers rows; WAL delete records reference the
            # *old* numbering, so a compacted checkpoint could misapply a
            # replayed tail.  Detach the WAL (checkpoint + fresh log) to
            # compact.
            raise ValueError(
                "compact=True cannot checkpoint a WAL-attached index — "
                "row renumbering would invalidate the log's row references"
            )
        # Checkpoint: roll the log and capture the payload atomically with
        # respect to mutators, so the stamped segment number marks exactly
        # the boundary between state inside the snapshot and records that
        # must replay on top of it.  (If the save fails after the roll, the
        # previous snapshot's older position still covers the new segment.)
        with index._update_lock:
            wal_segment = wal.roll()
            meta, arrays = _snapshot_payload(index, compact)
        meta["wal_segment"] = int(wal_segment)
    else:
        meta, arrays = _snapshot_payload(index, compact)
    return write_flat(path, SNAPSHOT_VERSION, meta, arrays)


def _load_segments(arrays, meta) -> list[tuple]:
    """Read the per-segment collections and signature stores.

    Collections are adopted through the trusted restore path — the arrays
    were canonical when written, and skipping re-canonicalisation is what
    keeps memory-mapped members lazy (nothing here forces a page in).
    """
    widths = meta["store_n_hashes"]
    segments = []
    for i in range(int(meta["n_segments"])):
        collection = collection_from_arrays(
            arrays, prefix=f"seg{i}_collection_", trusted=True
        )
        store = store_from_parts(
            meta["store_kind"], arrays[f"seg{i}_store"], int(widths[i])
        )
        segments.append((collection, store, collection.ids))
    return segments


def _load_runs(path: Path, arrays) -> tuple:
    """The postings' ``(keys, rows)`` runs: views into the stored arrays, never copies."""
    keys, rows = arrays["postings_keys"], arrays["postings_rows"]
    bounds = np.concatenate([[0], np.cumsum(arrays["postings_run_sizes"])]).tolist()
    if not len(keys) == len(rows) == bounds[-1]:
        raise SnapshotCorruptError(path, "postings run sizes disagree with their arrays")
    return tuple((keys[lo:hi], rows[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))


def load_query_index(path, storage: str = "ram", wal=None):
    """Load an index snapshot written by :func:`save_query_index`.

    ``path`` is tried as given, then with ``.flat`` appended — so
    ``load(p)`` finds what ``save(p)`` wrote.  ``storage`` selects the
    backend: ``"ram"`` reads and CRC-verifies every member, ``"mmap"``
    opens read-only ``np.memmap`` views whose pages fault in lazily — a
    millisecond cold start independent of corpus size.  Either way the
    loaded index is bit-identical.

    ``wal`` (a :class:`~repro.serving.wal.WriteAheadLog` or a directory
    path for one) replays the log's tail — every mutation logged at or
    after this snapshot's checkpoint — on top of the loaded index and
    attaches the log for continued writes; see
    :meth:`~repro.search.query.QueryIndex.recover`.  A torn trailing
    record is truncated; interior log corruption raises
    :class:`SnapshotCorruptError` like any other corrupt artefact.

    Every malformed-snapshot path — missing magic, truncated or bit-flipped
    data, missing members, checksum mismatch — raises
    :class:`SnapshotCorruptError` with the offending path; an intact
    snapshot of another version, or a regular file (a retired ``.npz``
    archive), raises a plain ``ValueError``.  Wrong data is never returned
    silently.
    """
    from repro.search.query import QueryIndex

    path = Path(path)
    if not path.exists():
        path = _snapshot_path(path)
    if path.is_file():
        raise ValueError(
            f"{path} is a file: .npz snapshots are no longer read — a snapshot "
            "is a flat-layout directory (re-save it with a build that reads it)"
        )
    _, meta, arrays = read_flat(path, storage=storage)
    try:
        # The tombstone mask is mutated in place by ``delete`` and the
        # family arrays may be grown by later draws — copy both out of any
        # read-only mmap backing (they are O(N) and O(hashes), not O(nnz)).
        deleted = np.array(arrays["deleted"], dtype=bool)
        postings_runs = _load_runs(path, arrays)

        family_state: dict[str, object] = dict(meta["family_scalars"])
        for name, value in arrays.items():
            if name.startswith("family_"):
                if isinstance(value, np.memmap):
                    value = np.array(value)
                family_state[name[len("family_"):]] = value

        segments_data = _load_segments(arrays, meta)
        n_features = int(meta["n_features"])
    except (KeyError, IndexError) as exc:
        raise SnapshotCorruptError(path, f"missing or malformed member ({exc})") from exc

    index = QueryIndex._from_snapshot(
        segments_data=segments_data,
        n_features=n_features,
        meta=meta,
        family_state=family_state,
        deleted=deleted,
        postings_runs=postings_runs,
    )
    if wal is not None:
        index.recover(wal)
    return index


def _snapshot_wal_segment(path) -> int | None:
    """Read just the ``wal_segment`` checkpoint position from a snapshot.

    Answered from the manifest alone, because :class:`SnapshotStore`
    consults every retained snapshot on each checkpoint to compute the WAL
    prune cutoff.  ``None`` for snapshots saved without a WAL attached.
    """
    path = Path(path)
    meta = _parse_manifest(path).get("meta")
    if not isinstance(meta, dict):
        raise SnapshotCorruptError(path, "manifest payload is missing its meta table")
    position = meta.get("wal_segment")
    return None if position is None else int(position)


# --------------------------------------------------------------------- #
# rolling snapshot directories
# --------------------------------------------------------------------- #
class SnapshotStore:
    """A directory of rolling, numbered snapshots with a ``LATEST`` pointer.

    Layers the operational conventions on top of the single-snapshot format:
    :meth:`save` writes ``snapshot-NNNNNNNN.flat`` (monotonically numbered,
    each committed through its manifest), then atomically updates the
    ``LATEST`` pointer file and prunes old snapshots beyond ``keep``.
    :meth:`load` tries the pointer target first and *rolls back* — newest to
    oldest — past any snapshot that fails verification, so one torn or
    bit-flipped snapshot (or a crash between data write and pointer update)
    never takes the service down with it.
    """

    #: name of the pointer file holding the latest snapshot's file name
    POINTER_NAME = "LATEST"

    def __init__(self, directory, keep: int = 2):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._keep = max(int(keep), 1)

    @property
    def directory(self) -> Path:
        """The directory holding the numbered snapshots and the pointer."""
        return self._directory

    @property
    def pointer_path(self) -> Path:
        """Path of the ``LATEST`` pointer file."""
        return self._directory / self.POINTER_NAME

    def snapshots(self) -> list[Path]:
        """The numbered snapshot directories, oldest first."""
        return sorted(self._directory.glob("snapshot-*.flat"))

    def _next_path(self) -> Path:
        last = -1
        for existing in self.snapshots():
            stem = existing.stem  # snapshot-NNNNNNNN
            try:
                last = max(last, int(stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return self._directory / f"snapshot-{last + 1:08d}.flat"

    def save(self, index, compact: bool = False, layout: str | None = None) -> Path:
        """Snapshot ``index`` as the next numbered directory; update the pointer.

        ``layout`` is forwarded to :func:`save_query_index` (``None`` or
        ``"flat"``).  The snapshot is fully committed before the pointer
        moves, so a crash anywhere in between leaves the previous pointer
        target intact and loadable.

        On a WAL-attached index this is the **checkpoint** operation: the
        save rolls the log (sealing everything the snapshot contains into
        segments before the stamped ``wal_segment``), and afterwards WAL
        segments older than what the *retained* snapshots reference are
        pruned — rollback to any snapshot still in the store always finds
        the log tail it needs.
        """
        path = save_query_index(index, self._next_path(), compact=compact, layout=layout)
        with atomic_writer(self.pointer_path) as handle:
            handle.write((path.name + "\n").encode("utf-8"))
        self._prune(current=path)
        self._prune_wal(index)
        return path

    def _prune_wal(self, index) -> None:
        """Drop WAL segments no retained snapshot references.

        The cutoff is the minimum ``wal_segment`` across every snapshot
        still in the store; snapshots without a position (saved before a
        WAL was attached) do not constrain pruning — they cannot replay a
        tail anyway.  Best effort: an unreadable retained snapshot blocks
        pruning rather than risking a needed segment.
        """
        wal = getattr(index, "_wal", None)
        if wal is None:
            return
        positions: list[int] = []
        for path in self.snapshots():
            try:
                position = _snapshot_wal_segment(path)
            except Exception:
                return  # cannot prove the segment is unreferenced — keep it
            if position is not None:
                positions.append(position)
        if positions:
            wal.prune(min(positions))

    def _prune(self, current: Path) -> None:
        """Drop numbered snapshots beyond ``keep`` (never the current one)."""
        snapshots = self.snapshots()
        excess = len(snapshots) - self._keep
        for stale in snapshots[:max(excess, 0)]:
            if stale != current:
                shutil.rmtree(stale, ignore_errors=True)

    def _candidates(self) -> list[Path]:
        """Load order: pointer target first, then the rest newest-to-oldest."""
        ordered: list[Path] = []
        try:
            name = self.pointer_path.read_text(encoding="utf-8").strip()
        except OSError:
            name = ""
        if name:
            target = self._directory / name
            if target.exists():
                ordered.append(target)
        for path in reversed(self.snapshots()):
            if path not in ordered:
                ordered.append(path)
        return ordered

    def load(self, storage: str = "ram", wal=None):
        """Load the newest verifiable snapshot, rolling back past corrupt ones.

        ``storage`` and ``wal`` are forwarded to :func:`load_query_index`;
        with a ``wal``, whichever candidate verifies replays the log tail
        from *its own* checkpoint position — rollback to an older snapshot
        simply replays a longer tail (the prune policy keeps every segment
        a retained snapshot references).  Raises ``FileNotFoundError`` for
        an empty store and :class:`SnapshotCorruptError` when every
        candidate fails verification (the error lists each rejected one).
        """
        candidates = self._candidates()
        if not candidates:
            raise FileNotFoundError(f"no snapshots in {self._directory}")
        failures: list[str] = []
        for path in candidates:
            try:
                return load_query_index(path, storage=storage, wal=wal)
            except SnapshotCorruptError as exc:
                failures.append(f"{path.name}: {exc.detail}")
        raise SnapshotCorruptError(
            self._directory, "every snapshot failed verification — " + "; ".join(failures)
        )
