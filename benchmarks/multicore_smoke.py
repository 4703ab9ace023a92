#!/usr/bin/env python
"""Wall-clock validation of the multicore execution and serving pools.

The ``n_workers > 1`` paths — :class:`repro.search.executor.StreamExecutor`
for the offline all-pairs engine and the serving pool behind
``QueryIndex.query_many``/``top_k_many`` — are bit-identity tested on every
run (``tests/property/test_execution_invariance`` and
``tests/property/test_query_serving``), but bit-identity says nothing about
whether the worker pools actually *speed things up* on real hardware.  The
workers only probe band postings and score pairs exactly; every hash
agreement is counted, and every decision made, in the parent.  This
script measures both paths: each workload runs serially and with a worker
pool, the outputs are checked identical, the wall-clock ratios are printed
and the raw timings are written as JSON (uploaded as the
``multicore-timing`` CI artifact).

The speedups are *reported, not asserted*: shared CI runners are noisy, so
the job fails only if a parallel path disagrees with its serial twin or the
machine cannot fork workers at all.

Usage::

    PYTHONPATH=src python benchmarks/multicore_smoke.py --output timing.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.datasets.synthetic import synthetic_text_corpus
from repro.search.engine import all_pairs_similarity
from repro.similarity.transforms import tfidf_weighting


def build_workload(n_documents: int, seed: int):
    corpus = synthetic_text_corpus(
        n_documents=n_documents,
        vocabulary_size=4000,
        average_length=40,
        duplicate_fraction=0.35,
        cluster_size=4,
        mutation_rate=0.08,
        seed=seed,
    )
    return tfidf_weighting(corpus.collection)


def timed_best(fn, repeats: int):
    """Minimum wall clock over ``repeats`` calls (noise-robust on shared runners).

    Returns ``(result_of_fastest_call, wall_seconds)``; the single timing
    helper shared by the all-pairs and serving smoke sections so both
    measure with the same methodology.
    """
    best_result, best_wall = None, float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_result, best_wall = result, wall
    return best_result, best_wall


def best_of(collection, threshold, method, n_workers, repeats):
    """Best-of-N wrapper around :func:`run_once` for the all-pairs workload."""
    return timed_best(
        lambda: all_pairs_similarity(
            collection,
            threshold=threshold,
            measure="cosine",
            method=method,
            seed=0,
            n_workers=n_workers,
        ),
        repeats,
    )


def serving_smoke(n_documents: int, n_queries: int, n_workers: int, repeats: int) -> dict:
    """Serial vs pooled batched serving (``top_k_many`` / ``query_many``).

    Builds a cosine ``QueryIndex`` once, then times the same query batch
    through the serial path and through the per-call serving pool; results
    must be bit-identical (the forked pool shards probing and exact scoring,
    merging in serial order; the BayesLSH rounds run in the parent).
    """
    from repro.search.query import QueryIndex

    collection = build_workload(n_documents + n_queries, seed=23)
    index = QueryIndex(
        collection.subset(range(n_documents)),
        measure="cosine",
        threshold=0.7,
        verification="bayes",
        seed=3,
    )
    queries = collection.matrix[n_documents:]
    # Warm the lazy hash materialisation so both paths measure serving.
    index.top_k_many(queries[:2], k=10)

    report = {"n_documents": n_documents, "n_queries": n_queries, "n_workers": n_workers}
    identical = True
    for label, fn_serial, fn_pool in (
        (
            "top_k_many",
            lambda: index.top_k_many(queries, k=10),
            lambda: index.top_k_many(queries, k=10, n_workers=n_workers),
        ),
        (
            "query_many",
            lambda: index.query_many(queries, threshold=0.7),
            lambda: index.query_many(queries, threshold=0.7, n_workers=n_workers),
        ),
    ):
        serial_result, serial_wall = timed_best(fn_serial, repeats)
        pooled_result, pooled_wall = timed_best(fn_pool, repeats)
        same = serial_result == pooled_result
        identical = identical and same
        speedup = serial_wall / pooled_wall if pooled_wall > 0 else float("nan")
        print(
            f"serving {label}: serial {serial_wall * 1000:7.1f}ms, "
            f"n_workers={n_workers} {pooled_wall * 1000:7.1f}ms, "
            f"speedup x{speedup:.2f}, identical: {same}"
        )
        report[label] = {
            "serial_s": serial_wall,
            "parallel_s": pooled_wall,
            "speedup": speedup,
            "identical_results": same,
        }
    report["identical_results"] = identical
    return report


def recovery_smoke(n_documents: int, n_queries: int, n_workers: int, repeats: int) -> dict:
    """Pool-recovery timing: a pooled batch with one worker SIGKILLed mid-batch.

    Measures the same batched ``query_many`` call three ways — serial, pooled
    happy path, and pooled with worker 0 killed as the batch's band probes
    are dispatched (via the fault-injection harness) — and reports the
    recovery overhead.  The
    faulted call must still match the serial answers bit for bit; wall-clock
    numbers are reported, not asserted.
    """
    from repro.search.query import QueryIndex
    from repro.testing import faults

    collection = build_workload(n_documents + n_queries, seed=29)
    index = QueryIndex(
        collection.subset(range(n_documents)),
        measure="cosine",
        threshold=0.7,
        verification="bayes",
        seed=5,
    )
    queries = collection.matrix[n_documents:]
    index.query_many(queries[:2], threshold=0.7)  # warm the lazy hashing

    serial_result, serial_wall = timed_best(
        lambda: index.query_many(queries, threshold=0.7), repeats
    )
    pooled_result, pooled_wall = timed_best(
        lambda: index.query_many(queries, threshold=0.7, n_workers=n_workers), repeats
    )

    def faulted():
        with faults.inject() as plan:
            plan.kill_worker(0, event="serving_probe")
            return index.query_many(queries, threshold=0.7, n_workers=n_workers)

    faulted_result, faulted_wall = timed_best(faulted, repeats)
    identical = serial_result == pooled_result == faulted_result
    overhead = faulted_wall / pooled_wall if pooled_wall > 0 else float("nan")
    print(
        f"recovery query_many: serial {serial_wall * 1000:7.1f}ms, "
        f"pooled {pooled_wall * 1000:7.1f}ms, "
        f"worker-killed {faulted_wall * 1000:7.1f}ms "
        f"(x{overhead:.2f} vs happy path), identical: {identical}"
    )
    return {
        "n_documents": n_documents,
        "n_queries": n_queries,
        "n_workers": n_workers,
        "serial_s": serial_wall,
        "pooled_s": pooled_wall,
        "worker_killed_s": faulted_wall,
        "recovery_overhead": overhead,
        "identical_results": identical,
    }


def resident_pool_smoke(
    n_documents: int, n_queries: int, n_workers: int, repeats: int
) -> dict:
    """Per-call fork vs resident pool: the per-batch overhead reduction.

    The same stream of small query batches runs twice — once through the
    per-call pool (``n_workers=k`` forks and tears down a pool every call)
    and once through a resident pool (``start_pool(k)`` forks once; each
    batch ships only its query-state delta) — with bit-identical results
    required and the per-batch wall-clock delta reported.  Small batches
    are deliberate: that is the daemon's coalescing regime, where the
    per-call fork overhead dominates.
    """
    from repro.search.query import QueryIndex

    collection = build_workload(n_documents + n_queries, seed=31)
    index = QueryIndex(
        collection.subset(range(n_documents)),
        measure="cosine",
        threshold=0.7,
        verification="bayes",
        seed=7,
    )
    queries = collection.matrix[n_documents:]
    n_batches = 8
    step = max(1, queries.shape[0] // n_batches)
    batches = [queries[i : i + step] for i in range(0, queries.shape[0], step)]
    index.query_many(batches[0][:2], threshold=0.7)  # warm the lazy hashing

    def per_call():
        return [
            index.query_many(batch, threshold=0.7, n_workers=n_workers)
            for batch in batches
        ]

    def resident():
        index.start_pool(n_workers)
        try:
            return [index.query_many(batch, threshold=0.7) for batch in batches]
        finally:
            index.close()

    serial_result = [index.query_many(batch, threshold=0.7) for batch in batches]
    per_call_result, per_call_wall = timed_best(per_call, repeats)
    resident_result, resident_wall = timed_best(resident, repeats)
    identical = serial_result == per_call_result == resident_result
    per_batch_saving = (per_call_wall - resident_wall) / len(batches)
    reduction = 1.0 - resident_wall / per_call_wall if per_call_wall > 0 else float("nan")
    print(
        f"resident pool: {len(batches)} batches of {step}, "
        f"per-call fork {per_call_wall * 1000:7.1f}ms, "
        f"resident {resident_wall * 1000:7.1f}ms "
        f"({per_batch_saving * 1000:+.1f}ms/batch, {reduction:+.1%} overall), "
        f"identical: {identical}"
    )
    return {
        "n_documents": n_documents,
        "n_batches": len(batches),
        "batch_size": step,
        "n_workers": n_workers,
        "per_call_s": per_call_wall,
        "resident_s": resident_wall,
        "per_batch_saving_s": per_batch_saving,
        "overhead_reduction": reduction,
        "identical_results": identical,
    }


def cold_start_smoke(n_documents: int, n_queries: int, repeats: int) -> dict:
    """Cold-start latency: the RAM backend vs the mmap backend on one snapshot.

    ``storage="ram"`` reads and CRC-verifies every member file (O(corpus)),
    while ``storage="mmap"`` reads only the manifest and maps the member
    files read-only, deferring array pages, postings and decision tables to
    first use.  Both loads must answer the probe batch bit-identically to
    the index that saved the snapshot; the wall-clock ratio is the measured
    value of the out-of-core backend (reported, not asserted).
    """
    import tempfile
    from pathlib import Path

    from repro.search.query import QueryIndex

    collection = build_workload(n_documents + n_queries, seed=41)
    index = QueryIndex(
        collection.subset(range(n_documents)),
        measure="cosine",
        threshold=0.7,
        verification="bayes",
        seed=11,
    )
    queries = collection.matrix[n_documents:]
    index.query_many(queries[:2], threshold=0.7)  # warm the lazy hashing

    with tempfile.TemporaryDirectory() as tmp:
        path = index.save(Path(tmp) / "cold")
        oracle = index.query_many(queries, threshold=0.7)

        load_repeats = max(repeats, 3)
        _, ram_wall = timed_best(lambda: QueryIndex.load(path, storage="ram"), load_repeats)
        _, mmap_wall = timed_best(
            lambda: QueryIndex.load(path, storage="mmap"), load_repeats
        )
        # First queries pay the deferred work; answers must still be
        # bit-identical to the instance that saved the snapshot.
        identical = all(
            QueryIndex.load(path, storage=storage).query_many(queries, threshold=0.7)
            == oracle
            for storage in ("ram", "mmap")
        )
        snapshot_bytes = sum(entry.stat().st_size for entry in path.iterdir())
    speedup = ram_wall / mmap_wall if mmap_wall > 0 else float("nan")
    print(
        f"cold start: {n_documents} documents ({snapshot_bytes / 1e6:.1f}MB snapshot), "
        f"ram load {ram_wall * 1000:7.1f}ms, "
        f"mmap load {mmap_wall * 1000:7.1f}ms, "
        f"speedup x{speedup:.1f}, identical: {identical}"
    )
    return {
        "n_documents": n_documents,
        "snapshot_bytes": snapshot_bytes,
        "ram_load_s": ram_wall,
        "mmap_load_s": mmap_wall,
        "speedup": speedup,
        "identical_results": identical,
    }


def daemon_smoke(n_documents: int, n_queries: int, repeats: int) -> dict:
    """Daemon throughput: looped single client vs coalesced concurrency.

    The same queries go through the resident daemon twice — one client
    looping serially (every request its own batch) and many concurrent
    clients whose requests coalesce under the batch window — and both must
    return the serial in-process answers bit-identically over the wire.
    The throughput ratio is the measured value of coalescing; like every
    number in this artifact it is reported, not asserted.
    """
    import tempfile
    import threading
    from pathlib import Path

    from repro.search.query import QueryIndex
    from repro.serving import DaemonClient, ServingDaemon

    collection = build_workload(n_documents + n_queries, seed=37)
    index = QueryIndex(
        collection.subset(range(n_documents)),
        measure="cosine",
        threshold=0.7,
        verification="bayes",
        seed=9,
    )
    queries = collection.matrix[n_documents:]
    index.query_many(queries[:2], threshold=0.7)  # warm the lazy hashing
    oracle = [
        [[int(pair.j), float(pair.similarity)] for pair in scored]
        for scored in index.query_many(queries, threshold=0.7)
    ]
    n = queries.shape[0]
    n_clients = 8

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = str(Path(tmp) / "daemon.sock")
        with ServingDaemon(index, socket_path, batch_window_ms=10, max_batch=64):

            def looped():
                with DaemonClient(socket_path) as client:
                    return [client.query(queries[i], threshold=0.7) for i in range(n)]

            def coalesced():
                answers = [None] * n
                span = -(-n // n_clients)

                def drive(start: int) -> None:
                    with DaemonClient(socket_path) as client:
                        for i in range(start, min(start + span, n)):
                            answers[i] = client.query(queries[i], threshold=0.7)

                threads = [
                    threading.Thread(target=drive, args=(start,))
                    for start in range(0, n, span)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                return answers

            looped_result, looped_wall = timed_best(looped, repeats)
            coalesced_result, coalesced_wall = timed_best(coalesced, repeats)
            with DaemonClient(socket_path) as client:
                stats = client.stats()

    identical = looped_result == oracle and coalesced_result == oracle
    speedup = looped_wall / coalesced_wall if coalesced_wall > 0 else float("nan")
    print(
        f"daemon: {n} queries, looped {looped_wall * 1000:7.1f}ms "
        f"({n / looped_wall:6.0f} q/s), "
        f"coalesced x{n_clients} clients {coalesced_wall * 1000:7.1f}ms "
        f"({n / coalesced_wall:6.0f} q/s), speedup x{speedup:.2f}, "
        f"batches {stats['batches']} for {stats['requests']} requests, "
        f"identical: {identical}"
    )
    return {
        "n_documents": n_documents,
        "n_queries": n,
        "n_clients": n_clients,
        "looped_s": looped_wall,
        "coalesced_s": coalesced_wall,
        "looped_qps": n / looped_wall,
        "coalesced_qps": n / coalesced_wall,
        "speedup": speedup,
        "batches": stats["batches"],
        "requests": stats["requests"],
        "identical_results": identical,
    }


def wal_recovery_smoke(n_documents: int, n_queries: int, repeats: int) -> dict:
    """Durable-ingest overhead and crash-recovery replay wall-clock.

    The same insert stream runs three times — no WAL, ``fsync="batch"``
    and ``fsync="always"`` — to measure what each durability policy costs
    per acknowledged batch (the fsync matrix tabulated in
    ``docs/serving.md``).  The ``always`` run's log is then replayed on top
    of its pre-ingest snapshot and timed; the recovered index must answer
    a probe batch bit-identically to the index that did the live ingest.
    Wall-clock numbers are reported, not asserted.
    """
    import tempfile
    from pathlib import Path

    from repro.search.query import QueryIndex
    from repro.serving.wal import WriteAheadLog

    collection = build_workload(n_documents + n_queries, seed=43)
    base = collection.subset(range(n_documents))
    stream = collection.matrix[n_documents:]
    n_batches = 16
    step = max(1, stream.shape[0] // n_batches)
    batches = [stream[i : i + step] for i in range(0, stream.shape[0], step)]
    probes = collection.matrix[: min(32, n_documents)]

    def build() -> QueryIndex:
        return QueryIndex(
            base, measure="cosine", threshold=0.7, verification="bayes", seed=13
        )

    report: dict = {
        "n_documents": n_documents,
        "n_batches": len(batches),
        "batch_size": step,
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        walls: dict = {}
        reference = None
        for label, policy in (("no_wal", None), ("batch", "batch"), ("always", "always")):
            best_wall = float("inf")
            for attempt in range(max(repeats, 1)):
                index = build()
                wal_dir = tmp / f"wal-{label}-{attempt}"
                if policy is not None:
                    index.attach_wal(WriteAheadLog(wal_dir, fsync=policy))
                    snapshot = index.save(tmp / f"pre-{label}-{attempt}")
                start = time.perf_counter()
                for batch in batches:
                    index.insert(batch)
                best_wall = min(best_wall, time.perf_counter() - start)
                if policy is not None:
                    index.wal.close()
                if label == "always":
                    reference = index.query_many(probes, threshold=0.7)
                    replay_snapshot, replay_dir = snapshot, wal_dir
            walls[label] = best_wall

        start = time.perf_counter()
        recovered = QueryIndex.load(replay_snapshot, wal=WriteAheadLog(replay_dir))
        replay_wall = time.perf_counter() - start
        replayed = recovered.replay_stats()["replayed_records"]
        identical = recovered.query_many(probes, threshold=0.7) == reference
        recovered.wal.close()

    per_batch = lambda wall: wall / len(batches)  # noqa: E731
    overhead = {
        policy: walls[policy] / walls["no_wal"] if walls["no_wal"] > 0 else float("nan")
        for policy in ("batch", "always")
    }
    print(
        f"wal ingest: {len(batches)} batches of {step}, "
        f"no-wal {walls['no_wal'] * 1000:7.1f}ms, "
        f"fsync=batch {walls['batch'] * 1000:7.1f}ms (x{overhead['batch']:.2f}), "
        f"fsync=always {walls['always'] * 1000:7.1f}ms (x{overhead['always']:.2f}); "
        f"replay {replayed} records {replay_wall * 1000:7.1f}ms, "
        f"identical: {identical}"
    )
    report.update(
        {
            "no_wal_s": walls["no_wal"],
            "fsync_batch_s": walls["batch"],
            "fsync_always_s": walls["always"],
            "fsync_batch_overhead": overhead["batch"],
            "fsync_always_overhead": overhead["always"],
            "per_batch_no_wal_s": per_batch(walls["no_wal"]),
            "per_batch_always_s": per_batch(walls["always"]),
            "replayed_records": replayed,
            "replay_s": replay_wall,
            "identical_results": identical,
        }
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="multicore_timing.json", help="timing JSON path")
    parser.add_argument("--n-documents", type=int, default=3000)
    parser.add_argument("--n-workers", type=int, default=2)
    parser.add_argument("--threshold", type=float, default=0.7)
    parser.add_argument("--method", default="lsh_bayeslsh")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--serving-documents",
        type=int,
        default=12_000,
        help="corpus size for the batched-serving smoke",
    )
    parser.add_argument(
        "--serving-queries",
        type=int,
        default=512,
        help="query batch size for the batched-serving smoke",
    )
    args = parser.parse_args(argv)

    collection = build_workload(args.n_documents, seed=17)
    print(
        f"workload: {collection.n_vectors} vectors, {collection.n_features} features, "
        f"method={args.method}, threshold={args.threshold}, "
        f"cpu_count={os.cpu_count()}"
    )

    serial_result, serial_wall = best_of(
        collection, args.threshold, args.method, None, args.repeats
    )
    parallel_result, parallel_wall = best_of(
        collection, args.threshold, args.method, args.n_workers, args.repeats
    )

    identical = (
        serial_result.pairs() == parallel_result.pairs()
        and serial_result.n_candidates == parallel_result.n_candidates
        and serial_result.n_pruned == parallel_result.n_pruned
    )
    speedup_total = serial_wall / parallel_wall if parallel_wall > 0 else float("nan")
    serial_verify = serial_result.timings["verification"]
    parallel_verify = parallel_result.timings["verification"]
    speedup_verify = (
        serial_verify / parallel_verify if parallel_verify > 0 else float("nan")
    )

    print(f"serial:   total {serial_wall:.3f}s (verification {serial_verify:.3f}s)")
    print(
        f"parallel: total {parallel_wall:.3f}s (verification {parallel_verify:.3f}s) "
        f"with n_workers={args.n_workers} (workers only score exactly; "
        f"the parent counts hash agreements)"
    )
    print(
        f"speedup:  x{speedup_total:.2f} total, x{speedup_verify:.2f} verification, "
        f"results identical: {identical}"
    )

    serving_report = serving_smoke(
        args.serving_documents, args.serving_queries, args.n_workers, args.repeats
    )
    recovery_report = recovery_smoke(
        args.serving_documents // 4, args.serving_queries // 2, args.n_workers, args.repeats
    )
    resident_report = resident_pool_smoke(
        args.serving_documents // 4, args.serving_queries // 2, args.n_workers, args.repeats
    )
    daemon_report = daemon_smoke(
        args.serving_documents // 6, args.serving_queries // 4, args.repeats
    )
    cold_start_report = cold_start_smoke(
        args.serving_documents, args.serving_queries // 8, args.repeats
    )
    wal_report = wal_recovery_smoke(
        args.serving_documents // 6, args.serving_queries // 2, args.repeats
    )

    report = {
        "workload": {
            "n_documents": args.n_documents,
            "n_features": collection.n_features,
            "method": args.method,
            "threshold": args.threshold,
            "repeats": args.repeats,
        },
        "cpu_count": os.cpu_count(),
        "n_workers": args.n_workers,
        "n_output_pairs": len(serial_result),
        "serial": {"total_s": serial_wall, "timings": serial_result.timings},
        "parallel": {"total_s": parallel_wall, "timings": parallel_result.timings},
        "speedup_total": speedup_total,
        "speedup_verification": speedup_verify,
        "identical_results": identical,
        "serving": serving_report,
        "recovery": recovery_report,
        "resident_pool": resident_report,
        "daemon": daemon_report,
        "cold_start": cold_start_report,
        "wal_recovery": wal_report,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"timings written to {args.output}")

    if not identical:
        print("error: parallel results differ from the serial path", file=sys.stderr)
        return 1
    if not serving_report["identical_results"]:
        print("error: parallel serving results differ from the serial path", file=sys.stderr)
        return 1
    if not recovery_report["identical_results"]:
        print("error: worker-loss recovery diverged from the serial path", file=sys.stderr)
        return 1
    if not resident_report["identical_results"]:
        print("error: resident-pool results differ from the serial path", file=sys.stderr)
        return 1
    if not daemon_report["identical_results"]:
        print("error: daemon answers differ from the serial path", file=sys.stderr)
        return 1
    if not cold_start_report["identical_results"]:
        print("error: snapshot loads differ from the index that saved them", file=sys.stderr)
        return 1
    if not wal_report["identical_results"]:
        print("error: WAL replay diverged from the live ingest path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
