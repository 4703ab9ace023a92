"""Serving-layer storage and persistence for query indices.

The serving subsystem turns the in-memory :class:`~repro.search.query.QueryIndex`
into something a long-running process can operate:

* **segmented collection storage** (:mod:`repro.serving.segments`) — the
  corpus is an append-only sequence of sealed segments, so incremental
  ``insert`` costs O(batch) instead of an O(N) re-concatenation, while every
  query kernel routes global rows segment-wise with bit-identical results;
* **versioned snapshots** (:mod:`repro.serving.snapshot`) — pickle-free
  snapshots that round-trip the whole index including the hash family's RNG
  stream position, with optional compaction (merge segments, drop
  tombstoned rows) at save time.  A snapshot is one **flat-layout**
  directory of raw array files plus a CRC-manifested header that loads
  either into RAM (``storage="ram"``, full CRC audit) or as read-only
  memory maps (``storage="mmap"``) for out-of-core serving and millisecond
  cold starts.  Writes are atomic (data files first, then the manifest
  commits through temp file + fsync + rename) and every array member is
  CRC32-checksummed; malformed snapshots raise
  :class:`~repro.serving.snapshot.SnapshotCorruptError` instead of loading
  wrong data, and :class:`~repro.serving.snapshot.SnapshotStore` adds a
  rolling directory with a ``LATEST`` pointer and load-time rollback past
  corrupt files;
* **resident daemon** (:mod:`repro.serving.daemon` /
  :mod:`repro.serving.client`) — a unix-socket server that coalesces
  concurrent single-query requests into batched index calls under a
  latency window, with bounded-queue admission control (typed
  :class:`~repro.serving.daemon.Overloaded` rejection), per-request
  deadlines propagated into ``round_timeout``, exact→estimate shedding
  under pressure, and health/readiness/stats/snapshot/drain ops endpoints;
* **durable ingest** (:mod:`repro.serving.wal`) — a write-ahead log of
  CRC-framed insert/delete records appended under the index's update lock
  before each mutation, so a crash between snapshots loses nothing: a
  restart replays the tail on top of the latest snapshot bit-identically.
  Checkpoints (snapshot + segment roll) bound replay; the daemon speaks
  the same log through ``insert``/``delete``/``checkpoint``/``wal_stats``
  ops, and :class:`~repro.serving.client.DaemonClient` retries transient
  transport failures with idempotency-keyed (at-most-once) mutations,
  raising :class:`~repro.serving.client.RetriesExhausted` past the budget.

See ``docs/serving.md`` for the operational guide (snapshot format and
version history, staleness budget, compaction semantics, the batched-query
API, the estimate-vs-exact top-k trade-off, the operational-robustness
contract, and the daemon runbook).
"""

from repro.serving.client import DaemonClient, RetriesExhausted
from repro.serving.daemon import (
    DaemonError,
    DeadlineExceeded,
    Draining,
    Overloaded,
    ServingDaemon,
)
from repro.serving.segments import CollectionSegment, SegmentedCollection
from repro.serving.snapshot import (
    FLAT_FORMAT,
    FLAT_VERSION,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotStore,
    load_query_index,
    read_flat,
    save_query_index,
    write_flat,
)
from repro.serving.wal import WriteAheadLog

__all__ = [
    "CollectionSegment",
    "DaemonClient",
    "DaemonError",
    "DeadlineExceeded",
    "Draining",
    "FLAT_FORMAT",
    "FLAT_VERSION",
    "Overloaded",
    "RetriesExhausted",
    "SNAPSHOT_VERSION",
    "SegmentedCollection",
    "ServingDaemon",
    "SnapshotCorruptError",
    "SnapshotStore",
    "WriteAheadLog",
    "load_query_index",
    "read_flat",
    "save_query_index",
    "write_flat",
]
