"""Saving and loading vector collections to ``.npz`` files.

The synthetic generators are fast enough that persistence is rarely needed,
but the benchmark harness caches generated datasets between runs and users
may want to run the library on their own data exported from another system;
the CSR components are stored directly so round-trips are loss-less.

The low-level helpers :func:`collection_arrays` / :func:`collection_from_arrays`
pack a collection into a flat ``name -> array`` mapping (and back) so other
persistence layers — notably the serving snapshots in
:mod:`repro.serving.snapshot` — serialise collections with exactly the same
keys and dtypes as the standalone files written here.

This module also owns the **shared atomic writer**: every on-disk artefact
the library publishes (collection archives, snapshot member files and
manifests) goes through :func:`atomic_writer` — a temp file
in the destination directory, fully written and fsynced, then renamed over
the target with ``os.replace`` and the directory entry fsynced.  A crash at
any point leaves either the previous file or the new one, never a torn
write.  Temp files created by in-flight writers are tracked in a registry
(:func:`pending_temp_files`) so the test suite's leak audit can prove no
code path abandons one (deliberate leftovers from injected crashes are
exempt — a real crash would not clean up either).
"""

from __future__ import annotations

import os
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from repro.similarity.vectors import VectorCollection
from repro.testing import faults as _faults
from repro.testing.faults import InjectedCrash

__all__ = [
    "CollectionArchiveError",
    "atomic_writer",
    "collection_arrays",
    "collection_from_arrays",
    "fsync_directory",
    "load_collection",
    "pending_temp_files",
    "save_collection",
]


class CollectionArchiveError(ValueError):
    """A collection archive failed structural verification on load.

    Raised by :func:`load_collection` for every malformed-archive path —
    truncated or bit-flipped zip data, missing members, non-archive files —
    so callers catch one typed error instead of the raw
    ``zipfile``/``zlib``/``KeyError`` zoo.  The offending ``path`` and a
    ``detail`` string are attached.  Subclasses :class:`ValueError` so
    callers catching the historical error type keep working.
    """

    def __init__(self, path, detail: str):
        self.path = Path(path)
        self.detail = str(detail)
        super().__init__(f"corrupt collection archive {self.path}: {self.detail}")


def fsync_directory(directory) -> None:
    """Flush a directory entry so a rename survives power loss (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: temp files of in-flight atomic writers; the test suite audits this after
#: every test to prove no code path abandons a temp file.
_LIVE_TEMPS: set[Path] = set()


def pending_temp_files() -> set[Path]:
    """Temp files registered by writers that have neither committed nor
    cleaned up (a copy; empty unless a writer is mid-flight or leaked)."""
    return set(_LIVE_TEMPS)


@contextmanager
def atomic_writer(path: Path, event: str | None = None):
    """Write ``path`` atomically: temp file + fsync + ``os.replace``.

    Yields a binary file handle open on a temp file in ``path``'s directory.
    On normal exit the temp file is fsynced and renamed over ``path`` (and
    the directory entry fsynced); on error it is removed and the destination
    is never touched.  ``event`` optionally names a fault-injection seam
    fired between the fsync and the rename (``tmp``/``path`` in the info
    dict) — the window crash-safety tests target.  An
    :class:`~repro.testing.faults.InjectedCrash` escaping that seam
    deliberately leaves the temp file behind, exactly like a real crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    _LIVE_TEMPS.add(tmp)
    try:
        with open(tmp, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        if event is not None:
            _faults.fire(event, tmp=tmp, path=path)
        os.replace(tmp, path)
        fsync_directory(path.parent)
    except InjectedCrash:
        # A real crash would not clean its temp file up either; the leftover
        # is intentional, not a leak, so the registry drops it.
        _LIVE_TEMPS.discard(tmp)
        raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        _LIVE_TEMPS.discard(tmp)
        raise
    _LIVE_TEMPS.discard(tmp)


def collection_arrays(collection: VectorCollection, prefix: str = "") -> dict[str, np.ndarray]:
    """Pack a collection's CSR components into ``{prefix+name: array}``."""
    matrix = collection.matrix
    return {
        f"{prefix}data": matrix.data,
        f"{prefix}indices": matrix.indices,
        f"{prefix}indptr": matrix.indptr,
        f"{prefix}shape": np.asarray(matrix.shape, dtype=np.int64),
        f"{prefix}ids": collection.ids,
    }


def collection_from_arrays(
    arrays: Mapping[str, np.ndarray], prefix: str = "", trusted: bool = False
) -> VectorCollection:
    """Rebuild a collection from arrays packed by :func:`collection_arrays`.

    With ``trusted=True`` the CSR components are adopted as-is through
    :meth:`VectorCollection.restored` — no re-canonicalisation, no copies —
    which is what lets snapshot loads keep memory-mapped components lazy.
    Only pass it for arrays this module's writers produced (they are already
    canonical); untrusted input must go through the validating constructor.
    """
    components = (
        arrays[f"{prefix}data"],
        arrays[f"{prefix}indices"],
        arrays[f"{prefix}indptr"],
    )
    shape = tuple(int(n) for n in arrays[f"{prefix}shape"])
    if trusted:
        return VectorCollection.restored(components, shape, ids=arrays[f"{prefix}ids"])
    return VectorCollection(
        sp.csr_matrix(components, shape=shape), ids=arrays[f"{prefix}ids"]
    )


def save_collection(collection: VectorCollection, path: str | Path) -> Path:
    """Save a collection to ``path`` (``.npz`` appended if missing), atomically.

    The archive goes through :func:`atomic_writer`, so a crash mid-save
    leaves either the previous file or the new one — never a torn archive
    that :func:`load_collection` would have to reject.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    with atomic_writer(path, event="snapshot_replace") as handle:
        np.savez_compressed(handle, **collection_arrays(collection))
    return path


def load_collection(path: str | Path) -> VectorCollection:
    """Load a collection previously written by :func:`save_collection`.

    Any malformed archive — truncated or bit-flipped zip data, missing
    members, a non-archive file — raises :class:`CollectionArchiveError`
    naming the path; wrong data is never returned silently.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(".npz")
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: np.asarray(archive[name]) for name in archive.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, ValueError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise CollectionArchiveError(path, f"unreadable archive ({exc})") from exc
    try:
        return collection_from_arrays(arrays)
    except KeyError as exc:
        raise CollectionArchiveError(path, f"missing member ({exc})") from exc
