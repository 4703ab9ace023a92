"""Write-ahead log for the serving index's mutation stream.

Snapshots (:mod:`repro.serving.snapshot`) make the index durable at
*checkpoint* granularity; every ``insert``/``delete`` accepted between
snapshots lives only in RAM, so a crash silently loses acknowledged
mutations.  This module closes that gap with a classic write-ahead log:
:class:`~repro.search.query.QueryIndex` appends one record per mutation
batch — under its update lock, **before** touching any in-memory state —
and recovery replays the log's tail on top of the newest snapshot.

Because the whole serving stack is deterministic (one RNG authority, the
mutation order serialised by the update lock, resolved ids logged rather
than re-derived), replay is **bit-identical**: the recovered index has the
same segment layout, the same hash-family RNG position and answers every
query with the same ``(id, similarity)`` pairs as the uncrashed original —
the snapshot bit-identity contract extended to the live mutation stream
(proven by ``tests/serving/test_wal.py`` and the SIGKILL matrix in
``tests/faults/test_wal_faults.py``).

On-disk format
--------------
A WAL is a directory of generation-numbered segment files::

    wal/
      wal-00000001.log
      wal-00000002.log        # the active segment (highest number)

Each segment starts with a fixed file header — magic ``REPROWAL``, format
version, and the segment's own number (cross-checked against the file name
so a renamed or misplaced file can never replay) — followed by a stream of
CRC-framed records.  A record is a little-endian header::

    4s  magic "WRL1"
    B   record type (1 = insert, 2 = delete)
    Q   sequence number (global, contiguous across segments)
    Q   payload length in bytes
    I   CRC32 of the payload
    I   CRC32 of the 25 header bytes above

followed by the payload: one JSON descriptor line (array names, dtypes,
shapes) and the arrays' raw C-order bytes.  Insert payloads carry the
batch's canonical CSR components plus the *resolved* external ids (so a
default-id insert replays to the same ids without consulting any counter);
delete payloads carry the validated row indices.  Each record is written
with a single unbuffered ``write`` call, so a crash leaves either a whole
record or a strict prefix of one.

Corruption taxonomy
-------------------
The two CRCs split every damage pattern into exactly two cases:

* **torn tail** — the *final* segment ends mid-record (partial header, or
  payload shorter than the validated header declares).  That is the
  expected residue of a crash mid-append: the record was never
  acknowledged, so recovery truncates it away (atomically, through the
  ``wal_replace`` seam) and replays the intact prefix.
* **interior corruption** — a bad record magic, a header- or payload-CRC
  mismatch, a sequence gap, or a torn record in a *sealed* segment.  No
  crash produces these; they mean the log itself is damaged, and replay
  refuses with the serving layer's typed
  :class:`~repro.serving.snapshot.SnapshotCorruptError` rather than
  recover wrong data.  (The header CRC is what keeps a bit-flipped length
  field from masquerading as a torn tail.)

Durability policy
-----------------
``fsync="always"`` fsyncs after every record — an acknowledged mutation
survives power loss (RPO = 0).  ``fsync="batch"`` fsyncs every
``sync_every`` records plus at every seal/roll — bounded loss on power
failure, nothing lost on a process crash (the page cache survives a
SIGKILL).  ``fsync="off"`` never fsyncs — process-crash durability only.
The measured ingest overhead of each policy is reported by
``benchmarks/multicore_smoke.py`` (``wal_recovery_smoke``) and tabulated
in ``docs/serving.md``.

Checkpoints
-----------
``save_query_index`` on a WAL-attached index first :meth:`rolls
<WriteAheadLog.roll>` the log — sealing the active segment and opening a
fresh one — and stamps the new segment number into the snapshot meta
(``wal_segment``).  Replay on top of that snapshot starts at the stamped
segment; :class:`~repro.serving.snapshot.SnapshotStore` prunes segments
older than what its *retained* snapshots reference, so rollback to any
kept snapshot always finds its tail.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

from repro.datasets.io import atomic_writer, collection_arrays, collection_from_arrays, fsync_directory
from repro.similarity.vectors import VectorCollection
from repro.testing import faults as _faults

__all__ = ["WAL_VERSION", "WriteAheadLog"]

#: magic bytes opening every WAL segment file
WAL_MAGIC = b"REPROWAL"
#: current WAL format version
WAL_VERSION = 1

#: segment file header: magic, format version, segment number
_FILE_HEADER = struct.Struct("<8sIQ")
#: record header *before* its own CRC: magic, type, seq, payload len, payload CRC
_RECORD_HEADER = struct.Struct("<4sBQQI")
_HEADER_CRC = struct.Struct("<I")
#: full framed header size (record header + header CRC)
_HEADER_SIZE = _RECORD_HEADER.size + _HEADER_CRC.size
_RECORD_MAGIC = b"WRL1"

#: record types
_INSERT, _DELETE = 1, 2


def _corrupt(path, detail: str):
    """The serving layer's typed snapshot error (imported lazily — this
    module sits below :mod:`repro.serving.snapshot` in the import order)."""
    from repro.serving.snapshot import SnapshotCorruptError

    return SnapshotCorruptError(path, detail)


def _segment_name(number: int) -> str:
    """File name of WAL segment ``number`` (``wal-NNNNNNNN.log``)."""
    return f"wal-{number:08d}.log"


def _segment_number(path: Path) -> int | None:
    """Parse a segment file's number from its name (``None`` if not a segment)."""
    name = path.name
    if not (name.startswith("wal-") and name.endswith(".log")):
        return None
    digits = name[len("wal-"):-len(".log")]
    if not digits.isdigit():
        return None
    return int(digits)


def _encode_arrays(kind: str, arrays: dict) -> bytes:
    """Pack named arrays as one payload: JSON descriptor line + raw bytes.

    Any fixed-width dtype round-trips (integers, floats, booleans,
    fixed-width unicode ids); ``object`` arrays have no defined byte layout
    and are rejected with ``ValueError`` at append time — before the record
    is written, so a failed append never leaves a half-logged mutation.
    """
    descriptors = []
    chunks = []
    for name, value in arrays.items():
        value = np.ascontiguousarray(value)
        if value.dtype.hasobject:
            raise ValueError(
                f"cannot WAL-encode {kind} array {name!r} with dtype object; "
                "use fixed-width ids (integers or strings)"
            )
        descriptors.append(
            {"name": name, "dtype": value.dtype.str, "shape": list(value.shape)}
        )
        chunks.append(value.tobytes())
    line = json.dumps({"kind": kind, "arrays": descriptors}).encode("utf-8")
    return line + b"\n" + b"".join(chunks)


def _decode_arrays(payload: bytes, path, seq: int) -> tuple[str, dict]:
    """Unpack a record payload back into ``(kind, {name: array})``.

    The payload CRC already verified the bytes; failures here mean a
    malformed descriptor (e.g. a record written by incompatible code) and
    raise the typed corruption error.
    """
    newline = payload.find(b"\n")
    if newline < 0:
        raise _corrupt(path, f"record {seq}: payload has no descriptor line")
    try:
        descriptor = json.loads(payload[:newline].decode("utf-8"))
        kind = descriptor["kind"]
        entries = descriptor["arrays"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise _corrupt(path, f"record {seq}: malformed payload descriptor ({exc})") from exc
    arrays: dict[str, np.ndarray] = {}
    offset = newline + 1
    for entry in entries:
        try:
            name = str(entry["name"])
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(path, f"record {seq}: malformed array entry ({exc})") from exc
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise _corrupt(
                path,
                f"record {seq}: array {name!r} needs {nbytes} bytes, "
                f"{len(chunk)} remain in the payload",
            )
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape)
        offset += nbytes
    return kind, arrays


class WriteAheadLog:
    """An append-only, CRC-framed log of index mutations in a directory.

    Parameters
    ----------
    directory:
        Directory holding the segment files (created if missing).  Opening
        scans the existing segments — repairing a torn tail on the active
        one — and resumes the global sequence numbering where it left off.
    fsync:
        Durability policy: ``"always"`` (fsync per record — acknowledged
        means power-loss durable), ``"batch"`` (fsync every ``sync_every``
        records and at every seal/roll) or ``"off"`` (never; the OS page
        cache still makes records survive a process crash).
    sync_every:
        Batch-policy fsync interval in records.

    Thread safety: appends, rolls and prunes serialise on an internal lock
    (the index's update lock already serialises the mutators; the WAL lock
    additionally covers checkpoint rolls racing ``stats`` readers).
    """

    def __init__(self, directory, fsync: str = "always", sync_every: int = 64):
        if fsync not in ("always", "batch", "off"):
            raise ValueError(
                f"fsync must be 'always', 'batch' or 'off', got {fsync!r}"
            )
        if int(sync_every) < 1:
            raise ValueError(f"sync_every must be at least 1, got {sync_every}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._sync_every = int(sync_every)
        self._lock = threading.RLock()
        self._handle = None
        self._active_segment = 0
        self._next_seq = 1
        self._n_records = 0
        self._unsynced = 0
        self._counters = {
            "appends": 0,
            "syncs": 0,
            "rolls": 0,
            "pruned_segments": 0,
            "repaired_tails": 0,
        }
        self._open_active()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        """The directory holding the segment files."""
        return self._directory

    @property
    def active_segment(self) -> int:
        """Number of the segment currently receiving appends."""
        return self._active_segment

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (0 when empty)."""
        return self._next_seq - 1

    def has_records(self) -> bool:
        """True when any segment holds at least one record."""
        return self._n_records > 0

    def stats(self) -> dict:
        """Durability counters: segment/record/byte totals and sync activity.

        ``bytes`` is the on-disk footprint of every live segment file;
        ``records`` counts records across all segments (scanned at open,
        maintained incrementally after); ``unsynced_records`` is the batch
        policy's current fsync debt.
        """
        with self._lock:
            paths = self._segment_paths()
            total_bytes = 0
            for path in paths:
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
            return {
                "directory": str(self._directory),
                "fsync": self._fsync,
                "sync_every": self._sync_every,
                "segments": len(paths),
                "active_segment": self._active_segment,
                "records": self._n_records,
                "bytes": total_bytes,
                "last_seq": self.last_seq,
                "unsynced_records": self._unsynced,
                **self._counters,
            }

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def append_insert(self, collection, ids) -> int:
        """Log one insert batch (canonical CSR + resolved ids); returns its seq.

        Called by ``QueryIndex.insert`` under the update lock *before* any
        in-memory state changes, with the ids already resolved — replay
        re-applies exactly these rows under exactly these ids, independent
        of any counter state.  An encoding or I/O failure propagates before
        the index mutates, so the log and the index can never disagree.
        """
        packed = collection_arrays(
            VectorCollection(collection.matrix, ids=np.asarray(ids)), prefix=""
        )
        return self._append(_INSERT, _encode_arrays("insert", packed))

    def append_delete(self, rows) -> int:
        """Log one delete batch (validated row indices); returns its seq."""
        arrays = {"rows": np.asarray(rows, dtype=np.int64)}
        return self._append(_DELETE, _encode_arrays("delete", arrays))

    def _append(self, record_type: int, payload: bytes) -> int:
        """Frame and write one record; fire the seams; apply the fsync policy."""
        with self._lock:
            if self._handle is None:
                raise ValueError("write-ahead log is closed")
            seq = self._next_seq
            header = _RECORD_HEADER.pack(
                _RECORD_MAGIC, record_type, seq, len(payload), zlib.crc32(payload)
            )
            record = header + _HEADER_CRC.pack(zlib.crc32(header)) + payload
            self._handle.write(record)
            self._next_seq = seq + 1
            self._n_records += 1
            self._counters["appends"] += 1
            self._unsynced += 1
            _faults.fire("wal_append", wal=self, path=self._active_path(), seq=seq)
            if self._fsync == "always" or (
                self._fsync == "batch" and self._unsynced >= self._sync_every
            ):
                self._sync_locked()
            return seq

    def sync(self) -> None:
        """Force an fsync of the active segment (a no-op when already clean)."""
        with self._lock:
            if self._handle is not None and self._unsynced:
                self._sync_locked()

    def _sync_locked(self) -> None:
        os.fsync(self._handle.fileno())
        self._counters["syncs"] += 1
        self._unsynced = 0
        _faults.fire(
            "wal_fsync", wal=self, path=self._active_path(), seq=self.last_seq
        )

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def roll(self) -> int:
        """Seal the active segment and open the next one; returns its number.

        The checkpoint primitive: ``save_query_index`` rolls first and
        stamps the returned number into the snapshot meta, so everything
        the snapshot already contains lives in segments *before* it and
        everything after the snapshot lands in segments *from* it.  The
        sealed segment gets a final fsync (unless the policy is ``off``)
        and the new segment's header is fsynced before the roll returns.
        """
        with self._lock:
            if self._handle is None:
                raise ValueError("write-ahead log is closed")
            if self._fsync != "off" and self._unsynced:
                self._sync_locked()
            self._handle.close()
            self._handle = None
            number = self._active_segment + 1
            self._create_segment(number)
            self._counters["rolls"] += 1
            return number

    def prune(self, keep_from_segment: int) -> int:
        """Unlink segments numbered below ``keep_from_segment``; returns count.

        Never touches the active segment.  :class:`SnapshotStore` calls
        this after a successful save with the minimum ``wal_segment`` its
        retained snapshots reference, so every snapshot that can still be
        rolled back to keeps its replay tail.
        """
        with self._lock:
            cutoff = min(int(keep_from_segment), self._active_segment)
            removed = 0
            for path in self._segment_paths():
                number = _segment_number(path)
                if number is not None and number < cutoff:
                    records, _ = self._read_segment(path, final=False, repair=False)
                    self._n_records -= len(records)
                    path.unlink()
                    removed += 1
            if removed:
                fsync_directory(self._directory)
                self._counters["pruned_segments"] += removed
            return removed

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def records(self, start_segment: int = 1):
        """Yield ``(seq, kind, arrays)`` for every record from ``start_segment`` on.

        ``kind`` is ``"insert"`` (arrays: the canonical CSR components and
        ``ids``) or ``"delete"`` (arrays: ``rows``).  A torn tail on the
        final segment is truncated — physically repaired through the
        ``wal_replace`` atomic-writer seam — before its records are
        yielded; any interior corruption (CRC mismatch, bad magic, a
        sequence gap, a torn *sealed* segment) raises
        :class:`~repro.serving.snapshot.SnapshotCorruptError`.
        """
        with self._lock:
            paths = [
                path
                for path in self._segment_paths()
                if _segment_number(path) >= int(start_segment)
            ]
        previous_seq = None
        for position, path in enumerate(paths):
            final = position == len(paths) - 1
            records, _ = self._read_segment(path, final=final, repair=final)
            for seq, record_type, payload in records:
                if previous_seq is not None and seq != previous_seq + 1:
                    raise _corrupt(
                        path,
                        f"sequence gap: record {seq} follows {previous_seq}",
                    )
                previous_seq = seq
                kind, arrays = _decode_arrays(payload, path, seq)
                expected = "insert" if record_type == _INSERT else "delete"
                if kind != expected:
                    raise _corrupt(
                        path,
                        f"record {seq}: type byte says {expected!r} but the "
                        f"payload descriptor says {kind!r}",
                    )
                yield seq, kind, arrays

    def replay_collection(self, arrays) -> VectorCollection:
        """Rebuild an insert record's collection from its decoded arrays.

        Uses the trusted restore path — the components were canonical when
        logged — so replay inserts exactly the matrix the original insert
        sealed.
        """
        return collection_from_arrays(arrays, prefix="", trusted=True)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush (per policy), fsync and close the active segment (idempotent)."""
        with self._lock:
            handle = self._handle
            self._handle = None
            if handle is not None:
                if self._fsync != "off" and self._unsynced:
                    os.fsync(handle.fileno())
                    self._counters["syncs"] += 1
                    self._unsynced = 0
                handle.close()

    def __enter__(self) -> "WriteAheadLog":
        """Context-manager entry: the opened log."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------ #
    # segment files
    # ------------------------------------------------------------------ #
    def _segment_paths(self) -> list[Path]:
        """Live segment files, ordered by segment number."""
        paths = [
            path
            for path in self._directory.iterdir()
            if _segment_number(path) is not None
        ]
        return sorted(paths, key=_segment_number)

    def _active_path(self) -> Path:
        return self._directory / _segment_name(self._active_segment)

    def _create_segment(self, number: int) -> None:
        """Write and fsync a fresh segment's file header; open it for append."""
        path = self._directory / _segment_name(number)
        with open(path, "wb") as handle:
            handle.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION, number))
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self._directory)
        self._handle = open(path, "ab", buffering=0)
        self._active_segment = number
        self._unsynced = 0

    def _open_active(self) -> None:
        """Scan existing segments, repair the active tail, resume numbering."""
        paths = self._segment_paths()
        if not paths:
            self._create_segment(1)
            return
        last_seq = 0
        total = 0
        for position, path in enumerate(paths):
            final = position == len(paths) - 1
            records, _ = self._read_segment(path, final=final, repair=final)
            total += len(records)
            if records:
                last_seq = records[-1][0]
        self._n_records = total
        # All-empty segments (a fresh log, or everything checkpointed away
        # and pruned) restart the numbering at 1 — with no surviving record
        # to collide with, contiguity is vacuously preserved.
        self._next_seq = last_seq + 1
        number = _segment_number(paths[-1])
        self._handle = open(self._directory / _segment_name(number), "ab", buffering=0)
        self._active_segment = number
        self._unsynced = 0

    def _read_segment(self, path: Path, final: bool, repair: bool):
        """Validate one segment; returns ``(records, torn_offset)``.

        ``records`` is a list of ``(seq, type, payload)`` tuples.  With
        ``final`` (the active segment) a torn tail is legal and — with
        ``repair`` — truncated in place through the ``wal_replace``
        atomic-writer seam; torn tails elsewhere, and every CRC/magic
        failure anywhere, raise the typed corruption error.
        """
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise _corrupt(path, f"unreadable segment ({exc})") from exc

        def torn(offset: int, detail: str):
            if not final:
                raise _corrupt(path, f"torn record in a sealed segment: {detail}")
            if repair:
                self._repair_tail(path, data, offset)
            return records, offset

        if len(data) < _FILE_HEADER.size:
            if not final:
                raise _corrupt(path, "segment shorter than its file header")
            records: list = []
            if repair:
                self._repair_tail(path, data, 0, rebuild_header=True)
            return records, 0
        magic, version, declared = _FILE_HEADER.unpack_from(data, 0)
        if magic != WAL_MAGIC:
            raise _corrupt(path, "missing WAL magic — not a WAL segment")
        if version != WAL_VERSION:
            raise ValueError(
                f"WAL version {version} is not supported "
                f"(this build reads version {WAL_VERSION})"
            )
        if declared != _segment_number(path):
            raise _corrupt(
                path,
                f"segment header says number {declared}, file name says "
                f"{_segment_number(path)}",
            )
        records = []
        offset = _FILE_HEADER.size
        while offset < len(data):
            remaining = len(data) - offset
            if remaining < _HEADER_SIZE:
                return torn(offset, f"{remaining} bytes of record header at EOF")
            header = data[offset : offset + _RECORD_HEADER.size]
            (stored_header_crc,) = _HEADER_CRC.unpack_from(
                data, offset + _RECORD_HEADER.size
            )
            if zlib.crc32(header) != stored_header_crc:
                raise _corrupt(
                    path, f"record header checksum mismatch at offset {offset}"
                )
            rec_magic, record_type, seq, payload_len, payload_crc = (
                _RECORD_HEADER.unpack(header)
            )
            if rec_magic != _RECORD_MAGIC:
                raise _corrupt(path, f"bad record magic at offset {offset}")
            if record_type not in (_INSERT, _DELETE):
                raise _corrupt(
                    path, f"record {seq}: unknown record type {record_type}"
                )
            body_start = offset + _HEADER_SIZE
            if payload_len > len(data) - body_start:
                return torn(
                    offset,
                    f"record {seq} declares {payload_len} payload bytes, "
                    f"{len(data) - body_start} present",
                )
            payload = data[body_start : body_start + payload_len]
            if zlib.crc32(payload) != payload_crc:
                raise _corrupt(path, f"record {seq}: payload checksum mismatch")
            records.append((seq, record_type, payload))
            offset = body_start + payload_len
        return records, None

    def _repair_tail(
        self, path: Path, data: bytes, offset: int, rebuild_header: bool = False
    ) -> None:
        """Truncate a torn tail atomically (temp + fsync + rename).

        Rewrites the segment as its intact prefix through the shared
        atomic writer, firing the ``wal_replace`` seam in the write→rename
        window.  A crash mid-repair leaves the original file — still torn,
        still repairable — never a half-truncated one.  If the repaired
        segment is the open active one, the append handle is reopened so
        subsequent appends extend the repaired file.
        """
        with self._lock:
            prefix = (
                _FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION, _segment_number(path))
                if rebuild_header
                else data[:offset]
            )
            reopen = (
                self._handle is not None
                and _segment_number(path) == self._active_segment
            )
            if reopen:
                self._handle.close()
                self._handle = None
            with atomic_writer(path, event="wal_replace") as handle:
                handle.write(prefix)
            self._counters["repaired_tails"] += 1
            if reopen:
                self._handle = open(path, "ab", buffering=0)
