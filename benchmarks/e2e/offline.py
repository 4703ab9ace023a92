"""The offline all-pairs workloads: ``ap_text``, ``ap_graph`` and ``lsh_sets``.

An analyst's join: build the pipeline, run it over the whole corpus, wait
for the pairs.  The operation timed is ``make_pipeline`` + ``run`` on a fresh
engine — all hashing included, as the paper reports — repeated for the run's
duration, single-threaded, in this process.
"""

from __future__ import annotations

import time

import numpy as np

from . import layers, oracle
from .common import (
    DELTA,
    PROGRAM_SEED,
    Context,
    Outcome,
    gated_metrics,
    offline_matrix,
    peak_rss_mb,
    percentile,
    quiesce,
    tail_percentile,
)

#: a run this short still times this many joins
MIN_RUNS = 3


def _join(params: dict, matrix, **run_kwargs):
    # Looked up through the module on every call so the traced run's wrapper
    # around ``make_pipeline`` is the one that runs.
    from repro.search import pipelines

    engine = pipelines.make_pipeline(
        params["pipeline"], matrix, measure=params["measure"],
        threshold=params["threshold"], seed=PROGRAM_SEED,
    )
    return engine.run(matrix, **run_kwargs)


def run(workload: str, ctx: Context) -> Outcome:
    params = ctx.params(workload)
    out = Outcome(workload, params=params)
    tracer = ctx.tracer

    start = time.perf_counter()
    matrix = offline_matrix(params, ctx.seed)
    datagen_s = time.perf_counter() - start
    setups = []
    for _ in range(ctx.setup_repeats):
        start = time.perf_counter()
        _join(params, matrix)  # warm-up: imports, caches, lazy tables
        setups.append(time.perf_counter() - start)
    quiesce()

    # -- timed phase ---------------------------------------------------- #
    walls, traced_walls, plain_walls = [], [], []
    result = None
    n_pairs = set()
    begin = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - begin < ctx.seconds:
        # The traced run alternates traced and plain joins, so both see the
        # same machine state and their ratio is the tracing overhead.
        traced = tracer is not None and len(walls) % 2 == 1
        if tracer is not None:
            tracer.enabled, tracer.run = traced, f"{workload}#{len(walls)}"
        start = time.perf_counter()
        result = _join(params, matrix)
        wall = time.perf_counter() - start
        walls.append(wall)
        (traced_walls if traced else plain_walls).append(wall)
        n_pairs.add(len(result.left))
    if tracer is not None:
        tracer.enabled = False
    timed = time.perf_counter() - begin
    rss = peak_rss_mb()
    out.phases = {"datagen_s": datagen_s, "setup_s": sum(setups), "timed_s": timed}

    # -- correctness ---------------------------------------------------- #
    start = time.perf_counter()
    n = matrix.shape[0]
    left, right, _ = oracle.all_pairs_above(matrix, params["measure"], params["threshold"])
    got_left, got_right = np.asarray(result.left), np.asarray(result.right)
    got_keys = oracle.pair_keys(got_left, got_right, n)
    out.check(len(n_pairs) == 1, f"runs with one seed returned differing pair counts {n_pairs}")
    out.check(bool(np.all(got_left < got_right)), "a returned pair does not have i < j")
    out.check(len(np.unique(got_keys)) == len(got_keys), "a pair was returned twice")
    exact = oracle.pair_similarities(matrix, got_left, matrix, got_right, params["measure"])
    error = np.abs(np.asarray(result.similarities) - exact)
    if result.exact_similarities:
        out.check(
            bool(np.all(error <= 1e-9)),
            f"{int(np.sum(error > 1e-9))} exact scores differ from the oracle's by more than 1e-9",
        )
        est_ok = float(np.mean(error <= 1e-9)) if len(error) else 1.0
    else:
        est_ok = float(np.mean(error <= DELTA)) if len(error) else 1.0
    recall = oracle.recall(oracle.pair_keys(left, right, n), got_keys)
    out.phases["check_s"] = time.perf_counter() - start

    out.attempted = len(walls)
    out.failed = 0 if out.correct else len(walls)
    out.metrics = gated_metrics(setups, walls, n / percentile(walls, 50), recall, est_ok, rss)
    out.detail = {
        "op": "make_pipeline + SearchEngine.run on a fresh engine",
        "wall_s": percentile(walls, 50),
        "runs": len(walls),
        "tail_q": tail_percentile(len(walls)),
        "rows": n,
        "true_pairs": int(len(left)),
        "returned_pairs": int(len(got_left)),
        "n_candidates": int(result.n_candidates),
        "est_err_share": 1.0 - est_ok,
        "failed_share": out.failed / out.attempted,
        "walls_s": walls,
    }

    if tracer is not None:
        extra = {}
        if workload == "ap_graph":
            extra = _two_worker_run(params, matrix, got_keys, n, out)
        out.layers = layers.offline_layers(
            tracer.spans, traced_walls, plain_walls, true_pairs=len(left), extra=extra
        )
    return out


def _two_worker_run(params, matrix, serial_keys, n, out: Outcome) -> dict:
    """One extra join sharded over two forked workers (``search.executor``).

    On a 2-core box this is overhead accounting, not a speed-up; it is the
    flat-or-better evidence a later change collapsing the pools needs.  Where
    forking or shared memory is refused it is skipped and reads zero.
    """
    start = time.perf_counter()
    try:
        result = _join(params, matrix, n_workers=2)
    except OSError as exc:
        out.detail["two_worker_run_skipped"] = f"{type(exc).__name__}: {exc}"
        return {}
    wall = time.perf_counter() - start
    keys = oracle.pair_keys(result.left, result.right, n)
    out.check(
        np.array_equal(np.sort(keys), np.sort(serial_keys)),
        "the two-worker run returned different pairs from the serial run",
    )
    return {"search.executor.stream_w2_s": wall}
