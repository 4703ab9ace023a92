"""Flat on-disk snapshot layout with RAM and mmap storage backends.

The ``.npz`` snapshot format (:mod:`repro.serving.snapshot`) deserialises
the whole index into RAM: every array is decompressed and copied before the
first query can run, so cold start is O(corpus) and corpus size is bounded
by memory.  This module adds the **flat layout** — the same logical payload
written as one raw binary file per array plus a CRC-manifested JSON header —
and the **storage backend seam** that decides how those files come back:

``storage="ram"``
    Every member file is read into memory and verified against its CRC32,
    exactly like the ``.npz`` audit.  Bit-identical to an ``.npz`` load.
``storage="mmap"``
    Member files are opened as read-only ``np.memmap`` views: the load
    touches only the manifest and each file's size, and array pages fault
    in lazily as the serving kernels slice them (the chunk-map reads the
    executor already does).  Cold start becomes milliseconds, and corpus
    size is bounded by address space, not RAM.  Integrity on this path is
    structural — manifest self-CRC plus exact per-file size checks — since
    hashing every data byte would fault the whole corpus in and forfeit the
    lazy load (run a ``storage="ram"`` load when full verification of the
    data bytes is required).

On-disk layout (a *directory*)::

    index.flat/
      MANIFEST.json            # the atomic commit point
      deleted.g3.bin           # one raw C-order file per array, stamped
      seg0_store.g3.bin        # with the generation that wrote it
      ...

``MANIFEST.json`` is two sections in one file: a first line of header JSON
(format magic, flat-layout version, CRC32 and size of the payload section)
followed by the payload JSON (snapshot version, generation, the same
``meta`` document the ``.npz`` format stores — including its per-array
``checksums`` manifest — and the member table mapping each array to its
file, dtype, shape and byte size).  A bit flip anywhere in the manifest
breaks the header parse, the magic, or the payload CRC; a bit flip in the
header's own CRC field breaks the comparison — the manifest is
self-validating, and every such failure raises
:class:`~repro.serving.snapshot.SnapshotCorruptError` naming the path.

Crash safety mirrors the ``.npz`` writer, adapted to a multi-file layout
where no single ``os.replace`` can swap a directory: data files are written
first (each atomically, under a fresh generation stamp so an interrupted
writer can never tear the files a *previous* manifest references), the
directory is fsynced, and then the manifest is replaced atomically — the
single commit point, carrying the ``flat_replace`` fault seam in its
write→rename window.  A crash anywhere before the manifest rename leaves
the previous generation fully intact and loadable; stale generations are
garbage-collected only after a successful commit.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path

import numpy as np

from repro.datasets.io import atomic_writer, fsync_directory

__all__ = [
    "FLAT_FORMAT",
    "FLAT_VERSION",
    "MANIFEST_NAME",
    "default_layout",
    "default_storage",
    "is_flat_snapshot",
    "read_flat",
    "write_flat",
]

#: magic string identifying flat-layout snapshot manifests
FLAT_FORMAT = "repro-query-index-flat"
#: current flat-layout version (the *snapshot* version is carried separately)
FLAT_VERSION = 1
#: file name of the manifest — the layout's atomic commit point
MANIFEST_NAME = "MANIFEST.json"
#: environment variable selecting the default save layout / load backend
STORAGE_ENV = "REPRO_STORAGE"

_GENERATION_RE = re.compile(r"\.g(\d+)\.bin$")


def _corrupt(path, detail: str):
    """The serving layer's typed snapshot error (imported lazily — this
    module is below :mod:`repro.serving.snapshot` in the import order)."""
    from repro.serving.snapshot import SnapshotCorruptError

    return SnapshotCorruptError(path, detail)


def default_layout() -> str:
    """The save layout the environment selects: ``"flat"`` under
    ``REPRO_STORAGE=mmap``, ``"npz"`` otherwise."""
    return "flat" if os.environ.get(STORAGE_ENV, "").lower() == "mmap" else "npz"


def default_storage() -> str:
    """The flat-layout load backend the environment selects (``"ram"``
    unless ``REPRO_STORAGE=mmap``)."""
    return "mmap" if os.environ.get(STORAGE_ENV, "").lower() == "mmap" else "ram"


def is_flat_snapshot(path) -> bool:
    """True when ``path`` is a flat-layout snapshot directory."""
    return Path(path).is_dir()


def _array_bytes_crc(value: np.ndarray) -> int:
    """CRC32 over an array's raw bytes — must match the ``.npz`` manifest's
    :func:`~repro.serving.snapshot._array_crc` so the two layouts share one
    ``checksums`` document."""
    return int(zlib.crc32(np.ascontiguousarray(value).tobytes()))


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
        raise _corrupt(path, "missing MANIFEST.json — not a flat-layout snapshot") from None
    except OSError as exc:
        raise _corrupt(path, f"unreadable manifest ({exc})") from exc
    head, _, body = raw.partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _corrupt(path, f"unreadable manifest header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != FLAT_FORMAT:
        raise _corrupt(path, "missing format magic — not a QueryIndex snapshot")
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
        raise _corrupt(path, f"malformed manifest header ({exc})") from exc
    if len(body) != declared_size:
        raise _corrupt(
            path,
            f"manifest payload is {len(body)} bytes, header declares {declared_size} — truncated",
        )
    actual_crc = int(zlib.crc32(body))
    if actual_crc != declared_crc:
        raise _corrupt(
            path,
            f"manifest payload checksum mismatch (stored {declared_crc}, computed {actual_crc})",
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _corrupt(path, f"unreadable manifest payload ({exc})") from exc
    if not isinstance(payload, dict):
        raise _corrupt(path, "manifest payload is not a JSON object")
    return payload


def _member_file(path: Path, name: str, entry) -> tuple[Path, np.dtype, tuple, int]:
    """Validate one member-table entry and return its resolved parts."""
    if not isinstance(entry, dict):
        raise _corrupt(path, f"member {name!r} has a malformed manifest entry")
    try:
        file_name = str(entry["file"])
        dtype = np.dtype(str(entry["dtype"]))
        shape = tuple(int(n) for n in entry["shape"])
        nbytes = int(entry["nbytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(path, f"member {name!r} has a malformed manifest entry ({exc})") from exc
    if os.sep in file_name or file_name != os.path.basename(file_name):
        raise _corrupt(path, f"member {name!r} names a file outside the snapshot directory")
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if expected != nbytes:
        raise _corrupt(
            path,
            f"member {name!r} declares {nbytes} bytes but shape {shape} of "
            f"dtype {dtype} needs {expected}",
        )
    return path / file_name, dtype, shape, nbytes


def read_flat(path, storage: str = "ram", readable_versions=(3,)) -> tuple[int, dict, dict]:
    """Read a flat-layout snapshot; returns ``(version, meta, arrays)``.

    With ``storage="ram"`` every member is loaded into memory and verified
    against the CRC32 manifest (the ``.npz``-equivalent full audit); with
    ``storage="mmap"`` members come back as read-only ``np.memmap`` views
    after structural verification only — manifest self-CRC, member-table
    consistency and exact file sizes — so the load cost is independent of
    the corpus size.  Every malformed layout raises
    :class:`~repro.serving.snapshot.SnapshotCorruptError` naming the path;
    an intact manifest of an unsupported version raises plain
    ``ValueError``, mirroring the ``.npz`` loader.
    """
    if storage not in ("ram", "mmap"):
        raise ValueError(f"storage must be 'ram' or 'mmap', got {storage!r}")
    path = Path(path)
    payload = _parse_manifest(path)
    try:
        version = int(payload["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(path, f"unreadable version field ({exc})") from exc
    if version not in tuple(readable_versions):
        raise ValueError(
            f"snapshot version {version} is not supported "
            f"(this build reads versions {list(readable_versions)})"
        )
    meta = payload.get("meta")
    members = payload.get("members")
    if not isinstance(meta, dict) or not isinstance(members, dict):
        raise _corrupt(path, "manifest payload is missing its meta/member tables")
    checksums = meta.get("checksums")
    if not isinstance(checksums, dict):
        raise _corrupt(path, "manifest is missing its per-array checksum document")
    for name in sorted(set(checksums) - set(members)):
        raise _corrupt(path, f"array {name!r} is in the checksum manifest but absent")
    for name in sorted(set(members) - set(checksums)):
        raise _corrupt(path, f"array {name!r} has no entry in the checksum manifest")

    arrays: dict[str, np.ndarray] = {}
    for name, entry in members.items():
        file_path, dtype, shape, nbytes = _member_file(path, name, entry)
        try:
            actual_size = file_path.stat().st_size
        except FileNotFoundError:
            raise _corrupt(path, f"missing member file {file_path.name!r}") from None
        if actual_size != nbytes:
            raise _corrupt(
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
            actual_crc = _array_bytes_crc(value)
            if actual_crc != int(checksums[name]):
                raise _corrupt(
                    path,
                    f"checksum mismatch for array {name!r} "
                    f"(stored {int(checksums[name])}, computed {actual_crc})",
                )
            arrays[name] = value
    return version, meta, arrays
