"""Serving lifecycle: build -> snapshot -> load -> insert -> delete -> compact.

Walks a :class:`~repro.search.query.QueryIndex` through every stage of its
operational life (see ``docs/serving.md`` for the full guide):

1. **build** an index over a TF-IDF corpus;
2. **snapshot** it to a versioned flat-layout directory (one raw file per
   array plus a checksummed manifest) and **load** it back — the loaded
   index answers bit-identically to the saved one;
3. **insert** a fresh batch (sealed as a new segment, O(batch));
4. **delete** a few rows (tombstoned, filtered immediately);
5. **compact** on save — tombstones dropped, segments merged — and reload;
6. serve a **batched top-k** query against the compacted index, in both the
   exact and the estimate-ranked mode;
7. attach a **resident worker pool** (``start_pool``) so repeated batched
   calls reuse warm workers instead of forking per call, verify the pooled
   answers stay bit-identical, and tear it down deterministically with
   ``close()`` — the index is a context manager, so ``with`` blocks get the
   same teardown for free;
8. attach a **write-ahead log**, checkpoint, mutate, then **crash and
   recover**: loading the checkpoint with ``wal=`` replays the logged tail
   and the recovered index answers bit-identically to the one that "died".

Runs end-to-end in a couple of seconds and asserts its own invariants, so
CI uses it as a smoke test.  Run with:  python examples/serving_lifecycle.py
"""

import tempfile
from pathlib import Path

from repro import QueryIndex
from repro.datasets import synthetic_text_corpus
from repro.serving import WriteAheadLog
from repro.similarity import tfidf_weighting


def _kib(snapshot: Path) -> float:
    """On-disk size of a snapshot directory in KiB."""
    return sum(entry.stat().st_size for entry in snapshot.iterdir()) / 1024


def main() -> None:
    # 1. Build.  The corpus becomes segment 0 of the index's segmented store.
    corpus = synthetic_text_corpus(
        n_documents=1200,
        vocabulary_size=4000,
        average_length=50,
        duplicate_fraction=0.4,
        seed=7,
    )
    vectors = tfidf_weighting(corpus.collection)
    index = QueryIndex(
        vectors.subset(range(1000)), measure="cosine", threshold=0.7, seed=0
    )
    print(f"built   : {index.n_indexed} docs, {index.n_signatures} bands, "
          f"{index.n_segments} segment(s)")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Snapshot and load.  The snapshot round-trips the hash family's
        #    RNG position, so the loaded index is bit-identical — including
        #    hashes it will draw in the future.
        path = index.save(Path(tmp) / "corpus-index")
        index = QueryIndex.load(path)
        print(f"loaded  : {path.name} ({_kib(path):.0f} KiB)")

        # 3. Insert: each batch is sealed as a new segment in O(batch) —
        #    nothing existing is re-hashed or re-concatenated.
        new_rows = index.insert(vectors.matrix[1000:1200])
        assert index.n_segments == 2
        print(f"inserted: rows {new_rows[0]}..{new_rows[-1]}, "
              f"now {index.n_segments} segments")

        # 4. Delete: tombstoned rows vanish from results immediately; the
        #    postings clean themselves up lazily via the staleness budget.
        index.delete(range(0, 50))
        probe = vectors.matrix[0]
        assert all(pair.j != 0 for pair in index.query(probe, threshold=0.5))
        print(f"deleted : {index.n_deleted} rows tombstoned "
              f"({index.n_stale_postings} stale postings)")

        # 5. Compact on save: the snapshot merges the segments and drops the
        #    tombstoned rows; survivors are renumbered but keep their ids.
        before = {
            (index.ids[pair.j], round(pair.similarity, 12))
            for pair in index.query(vectors.matrix[100], threshold=0.5)
        }
        compact_path = index.save(Path(tmp) / "corpus-index-compact", compact=True)
        compacted = QueryIndex.load(compact_path)
        after = {
            (compacted.ids[pair.j], round(pair.similarity, 12))
            for pair in compacted.query(vectors.matrix[100], threshold=0.5)
        }
        assert compacted.n_indexed == index.n_alive
        assert compacted.n_deleted == 0 and compacted.n_segments == 1
        assert before == after, "compaction must preserve (id, similarity) answers"
        print(f"compact : {index.n_indexed} -> {compacted.n_indexed} rows, "
              f"{_kib(compact_path):.0f} KiB")

        # 6. Batched top-k, exact vs estimate-ranked.  The estimate mode
        #    ranks by the BayesLSH posterior estimates computed during
        #    pruning — no exact similarity is evaluated (see docs/serving.md
        #    for the measured latency/accuracy trade-off).
        queries = vectors.matrix[100:108]
        exact = compacted.top_k_many(queries, k=5)
        estimated = compacted.top_k_many(queries, k=5, rank_by="estimate")
        assert len(exact) == len(estimated) == 8
        print("top-k   : query  exact-best           estimate-best")
        for q, (hits_e, hits_m) in enumerate(zip(exact, estimated)):
            best_e = f"id {compacted.ids[hits_e[0].j]:4d} @ {hits_e[0].similarity:.3f}" if hits_e else "-"
            best_m = f"id {compacted.ids[hits_m[0].j]:4d} @ {hits_m[0].similarity:.3f}" if hits_m else "-"
            print(f"          {q:5d}  {best_e:20s} {best_m}")

        # 7. Resident pool: one fork, many batches.  Batched calls with
        #    n_workers unset route to the attached pool; each batch ships
        #    only its query-state delta to the warm workers.  close() (or
        #    leaving a `with` block) shuts the pool down deterministically —
        #    a long-lived process must never rely on GC for shared memory.
        compacted.start_pool(2)
        pooled = compacted.top_k_many(queries, k=5)
        stats = compacted.pool_stats()
        compacted.close()
        assert pooled == exact, "resident pool must stay bit-identical"
        assert compacted.pool_stats() is None
        print(f"resident: {stats['live_workers']} workers served "
              f"{stats['batches_served']} batch(es), closed cleanly")

        # 8. Durability: with a write-ahead log attached, every mutation is
        #    logged (under the update lock, before it applies), and save()
        #    doubles as a checkpoint — it seals the log's active segment and
        #    stamps the snapshot with the segment replay starts from.  A
        #    crash after acknowledged mutations therefore loses nothing:
        #    loading the checkpoint with wal= replays the logged tail.
        wal_dir = Path(tmp) / "wal"
        compacted.attach_wal(WriteAheadLog(wal_dir, fsync="batch"))
        checkpoint = compacted.save(Path(tmp) / "corpus-index-checkpoint")
        compacted.insert(vectors.matrix[200:260])   # logged, then applied
        compacted.delete(range(0, 10))              # likewise
        live_answers = compacted.top_k_many(queries, k=5)

        # The "crash": forget the live index entirely — everything since
        # the checkpoint exists only in the log.  Recovery replays it
        # through the ordinary insert/delete code paths, so the recovered
        # index matches the lost one bit for bit, including its RNG future.
        recovered = QueryIndex.load(checkpoint, wal=WriteAheadLog(wal_dir))
        replay = recovered.replay_stats()
        assert replay["replayed_records"] == 2
        assert recovered.n_indexed == compacted.n_indexed
        assert recovered.top_k_many(queries, k=5) == live_answers, (
            "replay must reproduce the crashed index's answers"
        )
        recovered.wal.close()
        compacted.wal.close()
        print(f"durable : crash after checkpoint replayed "
              f"{replay['replayed_records']} record(s) "
              f"({replay['replayed_inserts']} insert, "
              f"{replay['replayed_deletes']} delete) — answers identical")

    print("serving lifecycle OK")


if __name__ == "__main__":
    main()
