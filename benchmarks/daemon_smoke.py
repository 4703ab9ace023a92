#!/usr/bin/env python
"""CI smoke for the resident serving daemon: coalesce, match, drain, no leaks.

The end-to-end acceptance run the ``daemon-smoke`` CI step executes:

1. build a :class:`~repro.search.query.QueryIndex`, record the serial
   in-process answers for a query batch;
2. start a :class:`~repro.serving.daemon.ServingDaemon` that owns a resident
   worker pool, and drive the batch through *concurrent* client threads;
3. assert every wire answer is bit-identical to the serial oracle and that
   the requests really coalesced (fewer batches than requests);
4. drain the daemon gracefully and assert the whole lifecycle created no
   ``/dev/shm/psm_*`` shared-memory segment: the pools publish none, and
   this is the same audit the test suite applies per-test, here applied
   across the daemon's lifetime including the resident pool it owned.

Exits non-zero on any divergence, failed coalescing, or stray segment.

Usage::

    PYTHONPATH=src python benchmarks/daemon_smoke.py
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
from pathlib import Path

_SHM_DIR = Path("/dev/shm")


def _shm_segments() -> set:
    if not _SHM_DIR.is_dir():  # non-Linux: nothing to audit
        return set()
    return {entry.name for entry in _SHM_DIR.iterdir() if entry.name.startswith("psm_")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-documents", type=int, default=1500)
    parser.add_argument("--n-queries", type=int, default=64)
    parser.add_argument("--n-clients", type=int, default=8)
    parser.add_argument("--pool-workers", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.datasets.synthetic import synthetic_text_corpus
    from repro.search.query import QueryIndex
    from repro.serving import DaemonClient, ServingDaemon
    from repro.similarity.transforms import tfidf_weighting

    corpus = synthetic_text_corpus(
        n_documents=args.n_documents + args.n_queries,
        vocabulary_size=3000,
        average_length=40,
        duplicate_fraction=0.35,
        cluster_size=4,
        mutation_rate=0.08,
        seed=43,
    )
    collection = tfidf_weighting(corpus.collection)
    index = QueryIndex(
        collection.subset(range(args.n_documents)),
        measure="cosine",
        threshold=0.7,
        verification="bayes",
        seed=11,
    )
    queries = collection.matrix[args.n_documents :]
    index.query_many(queries[:2], threshold=0.7)  # warm the lazy hashing
    oracle = [
        [[int(pair.j), float(pair.similarity)] for pair in scored]
        for scored in index.query_many(queries, threshold=0.7)
    ]

    before = _shm_segments()
    n = queries.shape[0]
    answers: list = [None] * n
    errors: list = []

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = str(Path(tmp) / "daemon.sock")
        daemon = ServingDaemon(
            index,
            socket_path,
            batch_window_ms=15,
            max_batch=64,
            pool_workers=args.pool_workers,
        )
        with daemon:
            span = -(-n // args.n_clients)

            def drive(start: int) -> None:
                try:
                    with DaemonClient(socket_path) as client:
                        for i in range(start, min(start + span, n)):
                            answers[i] = client.query(queries[i], threshold=0.7)
                except Exception as exc:  # surfaced below, fails the run
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, args=(start,))
                for start in range(0, n, span)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            with DaemonClient(socket_path) as client:
                stats = client.stats()
                client.drain()
            daemon._stopped.wait(timeout=30)

    if errors:
        print(f"error: {len(errors)} client(s) failed: {errors[0]}", file=sys.stderr)
        return 1
    mismatched = [i for i in range(n) if answers[i] != oracle[i]]
    if mismatched:
        print(
            f"error: {len(mismatched)} answer(s) diverged from the serial oracle "
            f"(first: query {mismatched[0]})",
            file=sys.stderr,
        )
        return 1
    print(
        f"daemon-smoke: {stats['requests']} requests over {args.n_clients} clients "
        f"coalesced into {stats['batches']} batches "
        f"(max batch {stats['max_batch_observed']}), all bit-identical to serial"
    )
    if stats["batches"] >= stats["requests"]:
        print("error: requests did not coalesce (batches >= requests)", file=sys.stderr)
        return 1
    if index.pool_stats() is not None:
        print("error: daemon left its resident pool attached", file=sys.stderr)
        return 1

    leaked = sorted(_shm_segments() - before)
    if leaked:
        print(f"error: the pools created shared-memory segments: {leaked}", file=sys.stderr)
        return 1
    print("daemon-smoke: graceful drain, no /dev/shm segment created")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
