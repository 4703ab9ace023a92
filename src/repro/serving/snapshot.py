"""Versioned on-disk snapshots of a :class:`~repro.search.query.QueryIndex`.

A snapshot is a single ``.npz`` archive (no pickling anywhere) holding every
piece of state the index cannot re-derive bit-identically on its own:

``format`` / ``version``
    The magic string ``"repro-query-index"`` and the integer format version.
    Loaders reject archives whose magic is missing or whose version they do
    not understand, so the format can evolve without silent misreads.
``meta``
    A JSON document with the index's scalar configuration (measure,
    threshold, verification mode, BayesLSH parameters, seed, staleness
    budget and counters), the segment layout (``n_segments``, per-segment
    ``store_n_hashes``) plus the hash family's scalar state — including the
    JSON-encoded RNG bit-generator state.
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
``deleted`` / ``postings_members``
    The global tombstone mask and the band postings' member sequence in
    insertion order — replaying that sequence rebuilds every posting list in
    the exact order incremental inserts created it.

What is *not* serialised is exactly the state that is a deterministic
function of the above: the measures' prepared views, the per-segment family
clones, the BayesLSH decision tables and the posting dictionaries themselves
are rebuilt on load.

The current format is **version 3**: ``meta`` carries a mandatory
``checksums`` document mapping every array member to its CRC32, verified on
load, and the writer goes through a temp file + ``fsync`` + atomic
``os.replace`` so a crash mid-save can never tear an existing snapshot.
Archives of any other version are rejected with a plain ``ValueError`` (no
writer has produced the unchecksummed v1/v2 layouts since v3 landed).
:func:`save_query_index` with ``compact=True`` writes the same format in
**compacted** form: all segments merged into one, tombstoned rows physically
dropped, surviving rows renumbered (order and external ids preserved) and
the postings member sequence remapped accordingly.

Layouts and storage backends
----------------------------
The logical payload above can be written in two **layouts** and read back
through two **storage backends** (see :mod:`repro.serving.storage`):

* ``layout="npz"`` (default) — the single compressed archive described
  above; always deserialises fully into RAM.
* ``layout="flat"`` — a directory with one raw binary file per array plus
  a self-validating CRC-manifested JSON header.  Loading accepts
  ``storage="ram"`` (full checksum audit, bit-identical to an ``.npz``
  load) or ``storage="mmap"`` (read-only ``np.memmap`` views faulted in
  lazily by the serving kernels' chunk-map reads — millisecond cold start,
  out-of-core corpora).

``save``/``load`` pick layouts automatically: :func:`save_query_index`
defaults to the layout the ``REPRO_STORAGE`` environment variable selects,
and :func:`load_query_index` detects the layout on disk (a directory is a
flat snapshot, a file is an archive).  Both layouts carry the same ``meta``
document and the same array members, so a load from either is bit-identical
— proven by ``tests/property/test_storage_backends.py``.

Durability contract
-------------------
:func:`save_query_index` either publishes a complete, checksummed snapshot
or leaves the previous one loadable — the ``.npz`` archive is fully written
and fsynced under a temporary name first, then renamed into place
atomically (and the directory entry fsynced); the flat layout writes its
data files first and commits them by atomically replacing the manifest
(see :mod:`repro.serving.storage` for the generation scheme).
:func:`load_query_index` re-reads every array's CRC32 against the manifest
(structural + size verification on the ``mmap`` backend); any torn,
truncated or bit-flipped snapshot — and any snapshot missing the magic or
expected members — raises :class:`SnapshotCorruptError` naming the
offending path.  Wrong data is never returned silently, and no raw
``zipfile.BadZipFile``/``KeyError`` escapes.  :class:`SnapshotStore` layers
a rolling-directory convention on top: numbered snapshots, an atomically
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
import shutil
import zipfile
import zlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.datasets.io import atomic_writer, collection_arrays, collection_from_arrays
from repro.hashing.signatures import (
    BitSignatures,
    IntSignatures,
    store_from_parts,
    store_parts,
)
from repro.similarity.vectors import VectorCollection

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotCorruptError",
    "SnapshotStore",
    "save_query_index",
    "load_query_index",
]

#: magic string identifying QueryIndex snapshot archives
SNAPSHOT_FORMAT = "repro-query-index"
#: current snapshot format version — the only one this build reads
SNAPSHOT_VERSION = 3


class SnapshotCorruptError(ValueError):
    """A snapshot archive failed structural or checksum verification.

    Raised by :func:`load_query_index` for every malformed-archive path —
    truncated or bit-flipped zip data, missing format magic, missing
    members, checksum mismatches — so callers can catch one typed error
    instead of the underlying ``zipfile``/``zlib``/``KeyError`` zoo.  The
    offending ``path`` and a ``detail`` string are attached.

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    loader's historical ``ValueError`` keep working.
    """

    def __init__(self, path, detail: str):
        self.path = Path(path)
        self.detail = str(detail)
        super().__init__(f"corrupt QueryIndex snapshot {self.path}: {self.detail}")


def _snapshot_path(path, layout: str = "npz") -> Path:
    path = Path(path)
    suffix = ".flat" if layout == "flat" else ".npz"
    if path.suffix != suffix:
        path = path.with_suffix(suffix)
    return path


def _resolve_load_path(path) -> Path:
    """The on-disk snapshot ``path`` refers to, whichever layout wrote it.

    An exact match (file or flat-layout directory) wins; otherwise the
    conventional ``.npz`` and ``.flat`` suffixes are tried in turn, so
    ``load(p)`` finds whatever ``save(p)`` wrote regardless of the layout
    the environment selected at save time.
    """
    path = Path(path)
    if path.exists():
        return path
    for candidate in (path.with_suffix(".npz"), path.with_suffix(".flat")):
        if candidate.exists():
            return candidate
    return _snapshot_path(path)


def _segment_payload(index) -> tuple[list[dict], str, list[int], np.ndarray, np.ndarray]:
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
    return arrays, kind, widths, index._deleted, index._postings_members()


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


def _compacted_payload(index) -> tuple[list[dict], str, list[int], np.ndarray, np.ndarray]:
    """A single merged segment with tombstoned rows physically dropped.

    Surviving rows are renumbered monotonically (their relative order is
    preserved, so sorted query results map one-to-one) and the postings
    member sequence is remapped through the old-to-new row map.  The
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

    # Old global row -> new compacted row (only defined for alive rows).
    new_index = np.cumsum(alive, dtype=np.int64) - 1
    members = index._postings_members()
    members = new_index[members[alive[members]]]

    deleted = np.zeros(int(alive.sum()), dtype=bool)
    return [packed], kind, [int(width)], deleted, members


def _array_crc(value: np.ndarray) -> int:
    """CRC32 over an array's raw bytes (C-contiguous view)."""
    return int(zlib.crc32(np.ascontiguousarray(value).tobytes()))


def _snapshot_payload(index, compact: bool) -> tuple[dict, dict]:
    """The layout-independent snapshot payload: ``(meta, arrays)``.

    Both the ``.npz`` archive and the flat layout serialise exactly this —
    the same meta document (checksums included) and the same array members —
    which is what makes a load from either layout bit-identical.
    """
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

    if compact:
        segment_arrays, store_kind, store_widths, deleted, members = _compacted_payload(index)
        n_stale_postings = 0
    else:
        segment_arrays, store_kind, store_widths, deleted, members = _segment_payload(index)
        n_stale_postings = index._n_stale_postings

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
        "staleness_budget": index._staleness_budget,
        "n_stale_postings": n_stale_postings,
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
        "postings_members": members,
        **payload,
        **family_arrays,
    }
    meta["checksums"] = {name: _array_crc(value) for name, value in arrays.items()}
    return meta, arrays


def save_query_index(index, path, compact: bool = False, layout: str | None = None) -> Path:
    """Write ``index`` to ``path`` atomically; returns the written path.

    ``layout`` selects the on-disk format — ``"npz"`` (single compressed
    archive, the conventional ``.npz`` suffix appended if missing) or
    ``"flat"`` (a ``.flat`` directory of raw per-array files readable
    through the mmap backend; see :mod:`repro.serving.storage`).  ``None``
    defers first to an explicit layout suffix on ``path`` (``.npz`` /
    ``.flat`` — a caller naming the format gets that format), then to the
    ``REPRO_STORAGE`` environment variable (``npz`` unless it says
    ``mmap``).

    With ``compact=True`` the snapshot merges all segments and drops
    tombstoned rows (see :func:`_compacted_payload`); the in-memory index is
    left untouched either way.

    Both layouts publish atomically: the archive is fully written and
    fsynced under a temp name then renamed over ``path`` with
    ``os.replace``; the flat layout writes its data files the same way and
    commits them by atomically replacing its manifest.  A crash at any
    point leaves either the previous snapshot or the new one, never a torn
    snapshot under the destination name.  Every array member's CRC32 is
    recorded in ``meta["checksums"]`` and re-verified by
    :func:`load_query_index` (structurally, on the lazy mmap backend).
    """
    from repro.search.query import QueryIndex
    from repro.serving import storage as flat_storage

    if not isinstance(index, QueryIndex):
        raise TypeError(f"expected a QueryIndex, got {type(index).__name__}")
    if layout is None:
        suffix = Path(path).suffix
        if suffix in (".npz", ".flat"):
            layout = suffix[1:]
        else:
            layout = flat_storage.default_layout()
    if layout not in ("npz", "flat"):
        raise ValueError(f"layout must be 'npz' or 'flat', got {layout!r}")
    path = _snapshot_path(path, layout)
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
    if layout == "flat":
        return flat_storage.write_flat(path, SNAPSHOT_VERSION, meta, arrays)
    with atomic_writer(path, event="snapshot_replace") as handle:
        np.savez_compressed(
            handle,
            format=np.array(SNAPSHOT_FORMAT),
            version=np.array(SNAPSHOT_VERSION, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
            **arrays,
        )
    return path


def _load_segments(archive, meta) -> list[tuple]:
    """Read the per-segment collections and signature stores.

    Collections are adopted through the trusted restore path — the arrays
    were canonical when written, and skipping re-canonicalisation is what
    keeps memory-mapped members lazy (nothing here forces a page in).
    """
    widths = meta["store_n_hashes"]
    segments = []
    for i in range(int(meta["n_segments"])):
        collection = collection_from_arrays(
            archive, prefix=f"seg{i}_collection_", trusted=True
        )
        store = store_from_parts(
            meta["store_kind"], archive[f"seg{i}_store"], int(widths[i])
        )
        segments.append((collection, store, collection.ids))
    return segments


def _read_verified(path: Path) -> tuple[dict, dict]:
    """Read an archive fully, mapping every malformed path to a typed error.

    Returns ``(meta, arrays)`` with every member materialised in memory:
    reading everything up front forces the zip layer's per-member CRC
    checks, and lets the manifest checksums verify the raw bytes before any
    of them are interpreted.  An unsupported (but intact) version stays a
    plain ``ValueError`` — that archive is not corrupt, just newer/older
    than this build.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            raw = {name: np.asarray(archive[name]) for name in archive.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable archive ({exc})") from exc
    if "format" not in raw or str(raw["format"][()]) != SNAPSHOT_FORMAT:
        raise SnapshotCorruptError(
            path, "missing format magic — not a QueryIndex snapshot"
        )
    try:
        version = int(raw["version"][()])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable version field ({exc})") from exc
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    try:
        meta = json.loads(str(raw["meta"][()]))
    except (KeyError, ValueError) as exc:
        raise SnapshotCorruptError(path, f"unreadable meta document ({exc})") from exc
    arrays = {
        name: value
        for name, value in raw.items()
        if name not in ("format", "version", "meta")
    }
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict):
        raise SnapshotCorruptError(
            path, "archive is missing its per-array checksum manifest"
        )
    for name in sorted(set(checksums) - set(arrays)):
        raise SnapshotCorruptError(
            path, f"array {name!r} is in the checksum manifest but absent"
        )
    for name in sorted(set(arrays) - set(checksums)):
        raise SnapshotCorruptError(
            path, f"array {name!r} has no entry in the checksum manifest"
        )
    for name, value in arrays.items():
        actual = _array_crc(value)
        if actual != int(checksums[name]):
            raise SnapshotCorruptError(
                path,
                f"checksum mismatch for array {name!r} "
                f"(stored {int(checksums[name])}, computed {actual})",
            )
    return meta, arrays


def load_query_index(path, storage: str | None = None, wal=None):
    """Load an index snapshot written by :func:`save_query_index`.

    The layout is detected on disk — a directory is a flat-layout snapshot,
    a file is an ``.npz`` archive (the ``.npz``/``.flat`` suffixes are tried
    when ``path`` itself does not exist).  ``storage`` selects the flat
    layout's backend: ``"ram"`` deserialises and CRC-verifies every member
    (bit-identical to an archive load), ``"mmap"`` opens read-only
    ``np.memmap`` views whose pages fault in lazily — a millisecond cold
    start independent of corpus size.  ``None`` defers to ``REPRO_STORAGE``
    (``ram`` unless it says ``mmap``); archives always load into RAM.

    ``wal`` (a :class:`~repro.serving.wal.WriteAheadLog` or a directory
    path for one) replays the log's tail — every mutation logged at or
    after this snapshot's checkpoint — on top of the loaded index and
    attaches the log for continued writes; see
    :meth:`~repro.search.query.QueryIndex.recover`.  A torn trailing
    record is truncated; interior log corruption raises
    :class:`SnapshotCorruptError` like any other corrupt artefact.

    Reads the current checksummed format only.  Every malformed-snapshot
    path — missing magic, truncated or bit-flipped data, missing members,
    checksum mismatch — raises :class:`SnapshotCorruptError` with the
    offending path; an intact snapshot of another version (the retired v1/v2
    layouts included) raises a plain ``ValueError``.
    Wrong data is never returned silently.
    """
    from repro.search.query import QueryIndex
    from repro.serving import storage as flat_storage

    path = _resolve_load_path(path)
    if flat_storage.is_flat_snapshot(path):
        _, meta, arrays = flat_storage.read_flat(
            path, storage=storage or flat_storage.default_storage()
        )
    else:
        meta, arrays = _read_verified(path)
    try:
        # The tombstone mask is mutated in place by ``delete`` and the
        # family arrays may be grown by later draws — copy both out of any
        # read-only mmap backing (they are O(N) and O(hashes), not O(nnz)).
        deleted = np.array(arrays["deleted"], dtype=bool)
        postings_members = np.asarray(arrays["postings_members"], dtype=np.int64)

        family_state: dict[str, object] = dict(meta["family_scalars"])
        for name, value in arrays.items():
            if name.startswith("family_"):
                if isinstance(value, np.memmap):
                    value = np.array(value)
                family_state[name[len("family_"):]] = value

        segments_data = _load_segments(arrays, meta)
        n_features = int(meta["n_features"])
    except SnapshotCorruptError:
        raise
    except (KeyError, IndexError) as exc:
        raise SnapshotCorruptError(path, f"missing or malformed member ({exc})") from exc

    index = QueryIndex._from_snapshot(
        segments_data=segments_data,
        n_features=n_features,
        meta=meta,
        family_state=family_state,
        deleted=deleted,
        postings_members=postings_members,
    )
    if wal is not None:
        index.recover(wal)
    return index


def _snapshot_wal_segment(path) -> int | None:
    """Read just the ``wal_segment`` checkpoint position from a snapshot.

    Cheap by construction — the flat layout answers from its manifest, the
    archive from its ``meta`` member alone — because :class:`SnapshotStore`
    consults every retained snapshot on each checkpoint to compute the WAL
    prune cutoff.  ``None`` for snapshots saved without a WAL attached.
    """
    from repro.serving import storage as flat_storage

    path = Path(path)
    if flat_storage.is_flat_snapshot(path):
        meta = flat_storage._parse_manifest(path).get("meta")
        if not isinstance(meta, dict):
            raise SnapshotCorruptError(path, "manifest payload is missing its meta table")
    else:
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"][()]))
        except (zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError, ValueError) as exc:
            raise SnapshotCorruptError(path, f"unreadable meta document ({exc})") from exc
    position = meta.get("wal_segment")
    return None if position is None else int(position)


# --------------------------------------------------------------------- #
# rolling snapshot directories
# --------------------------------------------------------------------- #
class SnapshotStore:
    """A directory of rolling, numbered snapshots with a ``LATEST`` pointer.

    Layers the operational conventions on top of the single-file format:
    :meth:`save` writes ``snapshot-NNNNNNNN.npz`` (monotonically numbered,
    each via the atomic temp-write/rename path), then atomically updates the
    ``LATEST`` pointer file and prunes old snapshots beyond ``keep``.
    :meth:`load` tries the pointer target first and *rolls back* — newest to
    oldest — past any snapshot that fails checksum verification, so one torn
    or bit-flipped file (or a crash between temp-write and pointer update)
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
        """The numbered snapshots (``.npz`` files and ``.flat`` directories),
        oldest first."""
        return sorted(
            path
            for path in self._directory.glob("snapshot-*")
            if path.suffix in (".npz", ".flat")
        )

    def _next_path(self, layout: str) -> Path:
        last = -1
        for existing in self.snapshots():
            stem = existing.stem  # snapshot-NNNNNNNN
            try:
                last = max(last, int(stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        suffix = ".flat" if layout == "flat" else ".npz"
        return self._directory / f"snapshot-{last + 1:08d}{suffix}"

    def save(self, index, compact: bool = False, layout: str | None = None) -> Path:
        """Snapshot ``index`` as the next numbered file; update the pointer.

        ``layout`` is forwarded to :func:`save_query_index` (``None`` defers
        to ``REPRO_STORAGE``); the rolling numbering is shared between the
        layouts, so a store may hold a mix of ``.npz`` and ``.flat``
        snapshots and still roll back across all of them.  The snapshot is
        fully committed before the pointer moves, so a crash anywhere in
        between leaves the previous pointer target intact and loadable.

        On a WAL-attached index this is the **checkpoint** operation: the
        save rolls the log (sealing everything the snapshot contains into
        segments before the stamped ``wal_segment``), and afterwards WAL
        segments older than what the *retained* snapshots reference are
        pruned — rollback to any snapshot still in the store always finds
        the log tail it needs.
        """
        from repro.serving import storage as flat_storage

        if layout is None:
            layout = flat_storage.default_layout()
        path = save_query_index(index, self._next_path(layout), compact=compact, layout=layout)
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
            if stale == current:
                continue
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
            else:
                stale.unlink(missing_ok=True)

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

    def load(self, storage: str | None = None, wal=None):
        """Load the newest verifiable snapshot, rolling back past corrupt ones.

        ``storage`` and ``wal`` are forwarded to :func:`load_query_index`;
        with a ``wal``, whichever candidate verifies replays the log tail
        from *its own* checkpoint position — rollback to an older snapshot
        simply replays a longer tail (the prune policy keeps every segment
        a retained snapshot references).  Raises ``FileNotFoundError`` for
        an empty store and :class:`SnapshotCorruptError` when every
        candidate fails verification (the error lists each rejected file).
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
