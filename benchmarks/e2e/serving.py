"""The index and daemon workloads: ``index_batch``, ``serve_read``, ``serve_mixed``.

``index_batch`` calls the batched ``QueryIndex`` entry points in this
process.  The ``serve_*`` workloads fork one daemon child serving the same
kind of index over a unix socket and drive it with two client threads, each
owning one blocking ``DaemonClient`` connection.
"""

from __future__ import annotations

import functools
import itertools
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import layers, loadgen, oracle
from .common import (
    CLIENTS,
    DELTA,
    LATE_LIMIT_S,
    Context,
    Outcome,
    as_wire,
    build_index,
    dir_bytes,
    gated_metrics,
    make_work_dir,
    peak_rss_mb,
    percentile,
    quiesce,
    remove_work_dir,
    serving_data,
    shm_segments,
    timing_detail,
)

READS = ("query", "top_k:exact", "top_k:estimate")
#: The read mix — 60% ``query``, 20% ``top_k`` exact, 20% ``top_k`` estimate — as
#: a repeating pattern rather than a draw, so every run sends the same shares.
#: Near-duplicate and background queries alternate in the pool; each kind sits
#: on as many even as odd places here and so meets both equally.
READ_PATTERN = (
    "query", "top_k:exact", "query", "top_k:estimate", "query",
    "query", "top_k:estimate", "query", "top_k:exact", "query",
)
#: seconds of tracing on, then off, in the traced run of a daemon workload
TRACE_SLICE_S = 0.5
TOP_K = 10
#: requests each client sends before the timed phase
WARMUP_REQUESTS = 12
#: query rows at the end of the pool kept for warming the index, never timed
WARM_ROWS = 128


# --------------------------------------------------------------------------- #
# answers and their quality
# --------------------------------------------------------------------------- #
def _index_call(index, kind: str, rows):
    if kind == "query":
        return index.query_many(rows)
    return index.top_k_many(rows, k=TOP_K, rank_by=kind.split(":")[1])


def _single_call(index, kind: str, row):
    if kind == "query":
        return index.query(row)
    return index.top_k(row, k=TOP_K, rank_by=kind.split(":")[1])


def _client_call(client, kind: str, row):
    if kind == "query":
        return client.query(row)
    return client.top_k(row, k=TOP_K, rank_by=kind.split(":")[1])


def _returned(answers: dict):
    """Wire-shaped answers as arrays: query row, corpus row, reported similarity."""
    got = [(row, pair[0], pair[1]) for row in sorted(answers) for pair in answers[row]]
    columns = list(zip(*got)) if got else ([], [], [])
    return (
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2], dtype=np.float64),
    )


def _estimates_ok(answers: dict, queries, corpus, params: dict) -> int:
    """How many reported similarities lie within delta of the exact one."""
    got_q, got_r, got_s = _returned(answers)
    exact = oracle.pair_similarities(queries, got_q, corpus, got_r, params["measure"])
    return int(np.sum(np.abs(got_s - exact) <= DELTA))


def _quality(answers: dict, queries, corpus, params: dict, alive=None) -> dict:
    """Recall and estimate accuracy of ``query`` answers against brute force.

    ``answers`` maps a query row to its wire-shaped answer.  True pairs are
    (query, live corpus row) with exact similarity above the threshold.
    """
    rows = np.array(sorted(answers), dtype=np.int64)
    n = corpus.shape[0]
    true_q, true_r, _ = oracle.cross_above(
        queries[rows], corpus, params["measure"], params["threshold"]
    )
    true_q = rows[true_q]
    if alive is not None:
        keep = alive[true_r]
        true_q, true_r = true_q[keep], true_r[keep]
    got_q, got_r, _ = _returned(answers)
    return {
        "recall": oracle.recall(
            oracle.pair_keys(true_q, true_r, n), oracle.pair_keys(got_q, got_r, n)
        ),
        "est_ok_share": (
            _estimates_ok(answers, queries, corpus, params) / len(got_q) if len(got_q) else 1.0
        ),
        "true_pairs": int(len(true_q)),
        "returned_pairs": int(len(got_q)),
    }


def _warm(index, queries) -> None:
    """Answer the held-back query rows through every call kind, untimed.

    The index hashes lazily: the first pair to need more hash rounds than any
    before it makes its whole segment hash that far, which costs hundreds of
    milliseconds once and nothing afterwards.  Users pay that once per index
    lifetime, so it belongs to set-up; the held-back rows push the store to
    the depth the timed queries will need.
    """
    for kind in READS:
        _index_call(index, kind, queries[-WARM_ROWS:])


def _op_stream(params: dict):
    """An endless stream of read operations: ``(kind, query row)``.

    Kinds repeat in :data:`READ_PATTERN` and rows cycle through the query pool
    short of the rows :func:`_warm` used.
    """
    n_queries = params["n_queries"] - WARM_ROWS
    for position in itertools.count():
        yield READ_PATTERN[position % len(READ_PATTERN)], position % n_queries


# --------------------------------------------------------------------------- #
# index_batch
# --------------------------------------------------------------------------- #
def run_index_batch(ctx: Context) -> Outcome:
    from repro.search.query import QueryIndex

    workload = "index_batch"
    params = ctx.params(workload)
    out = Outcome(workload, params=params)
    tracer = ctx.tracer
    width = params["batch_rows"]
    n_batches = (params["n_queries"] - WARM_ROWS) // width

    start = time.perf_counter()
    data = serving_data(params, ctx.seed)
    datagen_s = time.perf_counter() - start
    setups = []
    for _ in range(ctx.setup_repeats):
        start = time.perf_counter()
        index = build_index(params, data.base)
        _warm(index, data.queries)
        setups.append(time.perf_counter() - start)
    quiesce()

    # -- timed phase: rounds of one batch through each of the three calls - #
    walls, traced_walls, plain_walls = [], [], []
    answered: dict[tuple[str, int], list] = {}
    begin = time.perf_counter()
    while len(walls) < 3 or time.perf_counter() - begin < ctx.seconds:
        batch = len(walls) % n_batches
        rows = data.queries[batch * width : (batch + 1) * width]
        traced = tracer is not None and len(walls) % 2 == 1
        if tracer is not None:
            tracer.enabled, tracer.run = traced, f"round#{len(walls)}"
        start = time.perf_counter()
        results = {kind: _index_call(index, kind, rows) for kind in READS}
        wall = time.perf_counter() - start
        walls.append(wall)
        (traced_walls if traced else plain_walls).append(wall)
        for kind, result in results.items():
            answered[kind, batch] = result
    if tracer is not None:
        tracer.enabled, tracer.run = True, "cold_start"
    timed = time.perf_counter() - begin

    # -- cold start: save flat, load memory-mapped, answer one batch ------ #
    work = make_work_dir()
    shm_before = shm_segments()
    try:
        start = time.perf_counter()
        snapshot = index.save(work / "snapshot", layout="flat")
        save_s = time.perf_counter() - start
        cold, first_query = [], []
        for _ in range(params["cold_starts"]):
            start = time.perf_counter()
            loaded = QueryIndex.load(snapshot, storage="mmap")
            loaded_at = time.perf_counter()
            first = loaded.query_many(data.queries[:width])
            cold.append(time.perf_counter() - start)
            first_query.append(time.perf_counter() - loaded_at)
            out.check(
                [as_wire(a) for a in first] == [as_wire(a) for a in answered["query", 0]],
                "the memory-mapped index answers the first batch differently",
            )
            del loaded, first
        snapshot_bytes = dir_bytes(snapshot)
        rss = peak_rss_mb()
        extra = {}
        if tracer is not None:
            tracer.enabled = False
            extra = _pool_passes(index, data.queries[:width], answered, out)
            extra["serving.snapshot.first_query_s"] = percentile(first_query, 50)
            extra["serving.snapshot.bytes"] = snapshot_bytes
            extra["serving.segments.n_segments_end"] = index.n_segments
    finally:
        remove_work_dir(work)
    out.check(not work.exists(), f"work directory {work} was left behind")
    leaked = shm_segments() - shm_before
    out.check(not leaked, f"leaked shared-memory segments {sorted(leaked)}")
    out.phases = {
        "datagen_s": datagen_s, "setup_s": sum(setups), "timed_s": timed,
        "cold_start_s": sum(cold) + save_s,
    }

    # -- correctness: batched == single, then quality --------------------- #
    start = time.perf_counter()
    checked = mismatched = 0
    for kind in READS:
        for position in range(0, width, max(width // 8, 1)):
            single = _single_call(index, kind, data.queries[position])
            checked += 1
            mismatched += as_wire(single) != as_wire(answered[kind, 0][position])
    out.check(mismatched == 0, f"{mismatched} of {checked} batched answers differ from single calls")
    answers = {
        batch * width + position: as_wire(scored)
        for (kind, batch), result in answered.items()
        if kind == "query"
        for position, scored in enumerate(result)
    }
    quality = _quality(answers, data.queries, data.base, params)
    ranked = {
        batch * width + position: as_wire(scored)
        for (kind, batch), result in answered.items()
        if kind == "top_k:estimate"
        for position, scored in enumerate(result)
    }
    # Estimate accuracy over both estimate-scored call kinds.
    returned = quality["returned_pairs"] + sum(len(answer) for answer in ranked.values())
    est_ok = (
        quality["est_ok_share"] * quality["returned_pairs"]
        + _estimates_ok(ranked, data.queries, data.base, params)
    ) / max(returned, 1)
    out.phases["check_s"] = time.perf_counter() - start

    out.attempted = len(walls) * len(READS) * width
    out.failed = int(mismatched)
    out.metrics = gated_metrics(
        setups, walls, len(READS) * width / percentile(walls, 50),
        quality["recall"], est_ok if returned else 1.0, rss,
    )
    out.detail = {
        "op": f"one {width}-row batch through query_many, top_k_many(exact), top_k_many(estimate)",
        "batch_qps": len(READS) * width / percentile(walls, 50),
        "cold_start_s": percentile(cold, 50),
        "cold_start_note": "OS page cache warm: the snapshot was written moments before",
        "save_s": save_s,
        "snapshot_bytes": snapshot_bytes,
        "rounds": len(walls),
        "est_err_share": 1.0 - est_ok,
        "failed_share": out.failed / out.attempted,
        "round_ms": timing_detail(walls),
        "walls_s": walls,
        **{key: quality[key] for key in ("true_pairs", "returned_pairs")},
    }
    if tracer is not None:
        out.layers = layers.index_layers(
            tracer.spans, traced_walls, plain_walls,
            # every round probes its batch once per call kind
            true_pairs=quality["true_pairs"] / len(answers) * width * len(READS) * len(traced_walls),
            extra=extra,
        )
    return out


def _pool_passes(index, rows, answered, out: Outcome) -> dict:
    """One extra round each on a resident pool and on per-call pools of two.

    On two cores these are overhead accounting, not speed-ups; a failure to
    fork is reported as zeros, a wrong answer as a failed check.
    """
    values = {}
    width = rows.shape[0]
    expected = {kind: [as_wire(a) for a in answered[kind, 0]] for kind in READS}
    try:
        start = time.perf_counter()
        index.start_pool(2)
        values["search.executor.pool_start_s"] = time.perf_counter() - start
        try:
            start = time.perf_counter()
            resident = {kind: _index_call(index, kind, rows) for kind in READS}
            values["search.executor.resident_qps"] = (
                len(READS) * width / (time.perf_counter() - start)
            )
            values["search.executor.serial_fallbacks"] = index.pool_stats()["serial_batches"]
        finally:
            index.close()
        start = time.perf_counter()
        per_call = {
            "query": index.query_many(rows, n_workers=2),
            "top_k:exact": index.top_k_many(rows, k=TOP_K, rank_by="exact", n_workers=2),
            "top_k:estimate": index.top_k_many(rows, k=TOP_K, rank_by="estimate", n_workers=2),
        }
        values["search.executor.percall_qps"] = len(READS) * width / (time.perf_counter() - start)
    except OSError as exc:
        out.detail["pool_passes_skipped"] = f"{type(exc).__name__}: {exc}"
        return {}
    for label, got in (("resident", resident), ("per-call", per_call)):
        out.check(
            all([as_wire(a) for a in got[kind]] == expected[kind] for kind in READS),
            f"the {label} pool answers differ from the serial answers",
        )
    return values


# --------------------------------------------------------------------------- #
# the daemon child
# --------------------------------------------------------------------------- #
@dataclass
class Daemon:
    """A forked daemon child and the scratch directory it lives in."""

    pid: int
    work: Path
    socket_path: str
    spans_path: Path
    tracing: bool = False
    reaped: bool = False

    def toggle_tracing(self) -> None:
        os.kill(self.pid, signal.SIGUSR2)
        self.tracing = not self.tracing

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def collect_spans(self, tracer) -> None:
        """Have the child write its spans, and merge them into ``tracer``."""
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not self.spans_path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("the daemon child did not write its spans")
            time.sleep(0.01)
        tracer.adopt(self.spans_path)

    def end(self, sig: int) -> None:
        """Signal the child (if still there) and wait until it has ended."""
        if self.reaped:
            return
        try:
            os.kill(self.pid, sig)
        except ProcessLookupError:
            pass
        deadline = time.perf_counter() + 30.0
        while True:
            pid, _ = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                break
            time.sleep(0.005)
        self.reaped = True


def start_daemon(index, tracer, work: Path, snapshot_store=None) -> Daemon:
    """Fork a child that serves ``index`` on a unix socket inside ``work``.

    The path handed to ``bind`` is relative to the current directory: a
    unix socket path is limited to ~100 bytes and a checkout can sit deep.
    ``work`` is removed if the child does not come up.
    """
    from repro.serving.client import DaemonClient
    from repro.serving.daemon import DaemonError

    socket_path = os.path.relpath(work / "d.sock")
    if len(socket_path) > 100:
        socket_path = str(work / "d.sock")
    spans_path = work / "child-spans.json"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        _daemon_child(index, socket_path, tracer, spans_path, snapshot_store)
    daemon = Daemon(pid, work, socket_path, spans_path)
    try:
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0]:
                daemon.reaped = True
                raise RuntimeError("the daemon child ended before it was listening")
            if os.path.exists(socket_path):
                try:
                    with DaemonClient(socket_path, retries=0) as probe:
                        if probe.ready()["ready"]:
                            return daemon
                except (OSError, DaemonError):
                    pass  # bound but not yet listening
            time.sleep(0.005)
        raise RuntimeError("the daemon child was not listening after 30 s")
    except BaseException:  # whatever went wrong, leave neither a child nor its directory
        daemon.end(signal.SIGKILL)
        remove_work_dir(work)
        raise


def _daemon_child(index, socket_path, tracer, spans_path, snapshot_store) -> None:
    """The forked child: serve until SIGTERM; never returns."""
    code = 1
    try:
        from repro.serving.daemon import ServingDaemon

        parent = os.getppid()
        stop = []
        if tracer is not None:
            tracer.reset("daemon")
            tracer.run = "daemon"

            def toggle(*_):
                tracer.enabled = not tracer.enabled

            signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(spans_path))
            signal.signal(signal.SIGUSR2, toggle)
        signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
        daemon = ServingDaemon(index, socket_path, snapshot_store=snapshot_store)
        daemon.start()
        # Signals interrupt the sleep and run their handlers.  A child whose
        # parent is gone (killed on a timeout, say) ends itself.
        while not stop and os.getppid() == parent:
            time.sleep(0.02)
        daemon.stop()
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _connect(daemon: Daemon, queries, params) -> list:
    """Two connected clients, each having sent a few requests of every kind.

    The child is a fork: the first requests fault in copies of the pages they
    write to (every object they touch, through its reference count).  A dozen
    requests per client take that transient out of the timed phase.
    """
    from repro.serving.client import DaemonClient

    clients = [DaemonClient(daemon.socket_path) for _ in range(CLIENTS)]
    last = params["n_queries"] - 1
    for client in clients:
        for position in range(WARMUP_REQUESTS):
            _client_call(client, READS[position % len(READS)], queries[last - position])
    return clients


def _close(clients) -> dict:
    totals = {"retries": 0, "reconnects": 0}
    for client in clients:
        for key in totals:
            totals[key] += client.retry_stats[key]
        client.close()
    return totals


def _health_rtt_ms(client, calls: int) -> float:
    """The floor under every request: median round trip of a ``health`` call."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        client.health()
        samples.append((time.perf_counter() - start) * 1000.0)
    return percentile(samples, 50)


class _TraceSlicer:
    """Turns the child's tracing on and off in equal slices while load runs."""

    def __init__(self, daemon: Daemon, tracer, seconds: float):
        self._daemon, self._tracer = daemon, tracer
        self._slice_s = min(TRACE_SLICE_S, seconds / 4.0)
        self.switches: list[float] = []  # perf_counter times tracing flipped

    def run(self, until) -> None:
        """Flip tracing every slice until ``until()`` says the load is done."""
        while not until():
            time.sleep(self._slice_s)
            self._flip()
        if self._daemon.tracing:
            self._flip()

    def _flip(self) -> None:
        self._daemon.toggle_tracing()
        self._tracer.enabled = self._daemon.tracing
        self.switches.append(time.perf_counter())

    def split(self, records) -> tuple[list, list]:
        """Records sent while tracing was on, and while it was off."""
        switches = np.array(self.switches)
        on = np.searchsorted(switches, [r.sent for r in records], side="right") % 2 == 1
        return (
            [r for r, flag in zip(records, on) if flag],
            [r for r, flag in zip(records, on) if not flag],
        )


def _drive(daemon: Daemon, tracer, seconds: float, load) -> tuple[list, "_TraceSlicer | None"]:
    """Run ``load()`` (which returns records); slice tracing beside it if traced."""
    if tracer is None:
        return load(), None
    slicer = _TraceSlicer(daemon, tracer, seconds)
    box: list = []
    thread = threading.Thread(target=lambda: box.append(load()), name="loadgen-main")
    thread.start()
    slicer.run(lambda: not thread.is_alive())
    thread.join()
    return box[0], slicer


def _by_kind(records) -> dict:
    """Latency from due time of the answered reads, per kind of read."""
    return {
        kind: timing_detail([r.latency for r in records if r.op[0] == kind and r.error is None])
        for kind in READS
        if any(r.op[0] == kind and r.error is None for r in records)
    }


def _slowest(records, count: int = 5) -> list:
    """The slowest operations, for reading a tail: what they were and where the time went."""
    worst = sorted(records, key=lambda r: r.latency, reverse=True)[:count]
    return [
        {
            "op": r.op[0],
            "latency_ms": r.latency * 1000.0,
            "service_ms": r.service * 1000.0,
            "late_ms": r.late * 1000.0,
            "at_s": r.due - records[0].due,
        }
        for r in worst
    ]


def _failed(record, late_limited: bool) -> bool:
    """Failed, refused, or — in an open loop — answered too long after it was due.

    A late answer counts against ``failed`` but is not a wrong output: the
    run stays ``correct``.
    """
    return record.error is not None or (late_limited and record.latency > LATE_LIMIT_S)


# --------------------------------------------------------------------------- #
# serve_sat and serve_read
# --------------------------------------------------------------------------- #
def run_serve_sat(ctx: Context) -> Outcome:
    """Closed loop: both clients back-to-back — the rate the daemon sustains."""
    return _run_read_only("serve_sat", ctx, closed=True)


def run_serve_read(ctx: Context) -> Outcome:
    """Open loop at a fixed rate below saturation — latency from the due time."""
    return _run_read_only("serve_read", ctx, closed=False)


def _run_read_only(workload: str, ctx: Context, closed: bool) -> Outcome:
    params = ctx.params(workload)
    out = Outcome(workload, params=params)
    tracer = ctx.tracer
    shm_before = shm_segments()

    start = time.perf_counter()
    data = serving_data(params, ctx.seed)
    datagen_s = time.perf_counter() - start
    setups, daemon, clients = [], None, []
    try:
        for _ in range(ctx.setup_repeats):
            if daemon is not None:
                _close(clients)
                daemon.end(signal.SIGTERM)
                remove_work_dir(daemon.work)
            start = time.perf_counter()
            index = build_index(params, data.base)
            _warm(index, data.queries)
            quiesce()
            daemon = start_daemon(index, tracer, make_work_dir())
            clients = _connect(daemon, data.queries, params)
            setups.append(time.perf_counter() - start)

        ops = _op_stream(params)

        def send(thread: int, op):
            kind, row = op
            return _client_call(clients[thread], kind, data.queries[row])

        if closed:
            load = functools.partial(loadgen.closed_loop, ops, CLIENTS, send, ctx.seconds)
        else:
            schedule = list(zip(loadgen.fixed_rate(params["read_rate"], ctx.seconds), ops))
            load = functools.partial(loadgen.open_loop, schedule, CLIENTS, send)
        begin = time.perf_counter()
        records, slicer = _drive(daemon, tracer, ctx.seconds, load)
        timed = time.perf_counter() - begin

        stats = clients[0].stats()
        health_ms = _health_rtt_ms(clients[0], params["health_calls"]) if tracer else 0.0
        rss = daemon.peak_rss_mb()
        if tracer is not None:
            daemon.collect_spans(tracer)
        clients[0].drain()
        client_stats = _close(clients)
        daemon.end(signal.SIGTERM)
        out.check(
            not os.path.exists(daemon.socket_path), "the drained daemon left its socket file behind"
        )
    finally:
        if daemon is not None:
            daemon.end(signal.SIGKILL)
            remove_work_dir(daemon.work)
    out.phases = {"datagen_s": datagen_s, "setup_s": sum(setups), "timed_s": timed}
    _leak_audit(out, daemon, shm_before)

    # -- correctness: every wire answer equals the in-process answer ------- #
    start = time.perf_counter()
    wrong, answers = _compare_with_index(index, data.queries, records, params)
    out.check(wrong == 0, f"{wrong} wire answers differ from the in-process answers")
    errors = [r.error for r in records if r.error is not None]
    out.check(not errors, f"{len(errors)} requests failed or were refused, first: {errors[:1]}")
    quality = _quality(answers, data.queries, data.base, params)
    out.phases["check_s"] = time.perf_counter() - start

    # In a closed loop a request is due the moment it is sent, so its latency
    # is its round trip; in the open loop it is counted from the due time.
    latencies = [r.latency for r in records if r.error is None]
    completed = sum(r.error is None for r in records)
    out.attempted = len(records)
    out.failed = sum(_failed(r, not closed) for r in records) + wrong
    out.metrics = gated_metrics(
        setups, latencies, completed / timed, quality["recall"], quality["est_ok_share"], rss
    )
    late_ms = [r.late * 1000.0 for r in records]
    loop = (
        "closed loop, 2 clients back-to-back"
        if closed
        else f"open loop at {params['read_rate']:g}/s, latency from due time"
    )
    out.detail = {
        "op": f"one read request, {loop}",
        "clients": CLIENTS,
        "read_latency_ms": timing_detail(latencies),
        "read_latency_by_kind_ms": _by_kind(records),
        "slowest": _slowest(records),
        "loadgen.late_ms_p90": percentile(late_ms, 90),
        "loadgen.sent": len(records),
        "est_err_share": 1.0 - quality["est_ok_share"],
        "failed_share": out.failed / out.attempted,
        "daemon_stats": {k: v for k, v in stats.items() if isinstance(v, (int, float))},
        **{key: quality[key] for key in ("true_pairs", "returned_pairs")},
    }
    if closed:
        out.detail["sat_rps"] = completed / timed
    else:
        out.detail["lat_p50_ms"] = percentile(latencies, 50) * 1000.0
        out.detail["lat_p90_ms"] = percentile(latencies, 90) * 1000.0
    if tracer is not None:
        traced, plain = slicer.split(records)
        out.layers = layers.serving_layers(
            tracer.spans, traced, plain, stats, client_stats,
            true_pairs=quality["true_pairs"] / max(len(answers), 1) * len(traced),
            extra={
                "serving.daemon.health_rtt_ms": health_ms,
                "serving.segments.n_segments_end": index.n_segments,
                "loadgen.late_ms_p90": percentile(late_ms, 90),
                "loadgen.sent": len(records),
            },
        )
    return out


def _compare_with_index(index, queries, records, params) -> tuple[int, dict]:
    """How many wire answers differ from the batched in-process answers.

    Also returns the in-process ``query`` answers for the *whole* timed query
    pool.  A run sends only a few hundred of them over the wire, too few true
    pairs for a steady recall; the wire answers are checked to equal these
    one for one, so quality is scored on all of them.
    """
    wrong, pool_answers = 0, {}
    for kind in READS:
        rows = sorted({r.op[1] for r in records if r.op[0] == kind and r.error is None})
        if kind == "query":
            rows = list(range(params["n_queries"] - WARM_ROWS))
        expected = {}
        for start in range(0, len(rows), params["batch_rows"]):
            chunk = rows[start : start + params["batch_rows"]]
            for row, scored in zip(chunk, _index_call(index, kind, queries[chunk])):
                expected[row] = as_wire(scored)
        wrong += sum(
            1
            for r in records
            if r.op[0] == kind and r.error is None and r.reply != expected[r.op[1]]
        )
        if kind == "query":
            pool_answers = expected
    return wrong, pool_answers


def _leak_audit(out: Outcome, daemon: Daemon, shm_before: set) -> None:
    out.check(daemon.reaped, "the daemon child was not reaped")
    out.check(not daemon.work.exists(), f"work directory {daemon.work} was left behind")
    leaked = shm_segments() - shm_before
    out.check(not leaked, f"leaked shared-memory segments {sorted(leaked)}")


# --------------------------------------------------------------------------- #
# serve_mixed
# --------------------------------------------------------------------------- #
def _mixed_schedule(params: dict, seconds: float, ops, n_base: int, seed: int) -> list:
    """One due-time-ordered schedule of reads, inserts and deletes."""
    rng = np.random.default_rng(seed + 2)
    rows, size = params["insert_rows"], params["delete_rows"]
    reads = [(due, op) for due, op in zip(loadgen.fixed_rate(params["read_rate"], seconds), ops)]
    # Writes start half a period in, so no two streams are due at one instant.
    insert_due = loadgen.fixed_rate(params["insert_rate"], seconds, 0.5 / params["insert_rate"])
    inserts = [(due, ("insert", slice(k * rows, (k + 1) * rows))) for k, due in enumerate(insert_due)]
    delete_due = loadgen.fixed_rate(params["delete_rate"], seconds, 0.25 / params["delete_rate"])
    victims = rng.choice(n_base, size=len(delete_due) * size, replace=False)
    deletes = [
        (due, ("delete", victims[k * size : (k + 1) * size].tolist()))
        for k, due in enumerate(delete_due)
    ]
    return sorted(reads + inserts + deletes, key=lambda item: item[0])


def run_serve_mixed(ctx: Context) -> Outcome:
    from repro.search.query import QueryIndex
    from repro.serving.snapshot import SnapshotStore
    from repro.serving.wal import WriteAheadLog

    workload = "serve_mixed"
    params = ctx.params(workload)
    out = Outcome(workload, params=params)
    tracer = ctx.tracer
    shm_before = shm_segments()
    n_insert_rows = (int(ctx.seconds * params["insert_rate"]) + 1) * params["insert_rows"]

    start = time.perf_counter()
    data = serving_data(params, ctx.seed, n_insert_rows)
    datagen_s = time.perf_counter() - start
    setups, daemon, clients = [], None, []
    try:
        for _ in range(ctx.setup_repeats):
            if daemon is not None:
                _close(clients)
                daemon.end(signal.SIGKILL)
                remove_work_dir(daemon.work)
            start = time.perf_counter()
            index = build_index(params, data.base)
            _warm(index, data.queries)
            work = make_work_dir()
            index.attach_wal(WriteAheadLog(work / "wal", fsync=params["fsync"]))
            store = SnapshotStore(work / "snapshots")
            snapshot = store.save(index, layout="flat")  # the checkpoint recovery starts from
            quiesce()
            daemon = start_daemon(index, tracer, work, snapshot_store=store)
            index.wal.close()  # the child owns the log now; this copy never writes
            clients = _connect(daemon, data.queries, params)
            setups.append(time.perf_counter() - start)

        schedule = _mixed_schedule(
            params, ctx.seconds, _op_stream(params), data.base.shape[0], ctx.seed
        )

        def send(thread: int, op):
            kind, payload = op
            if kind == "insert":
                return clients[thread].insert(data.inserts[payload])
            if kind == "delete":
                return clients[thread].delete(payload)
            return _client_call(clients[thread], kind, data.queries[payload])

        begin = time.perf_counter()
        records, slicer = _drive(
            daemon, tracer, ctx.seconds, functools.partial(loadgen.open_loop, schedule, CLIENTS, send)
        )
        timed = time.perf_counter() - begin

        stats = clients[0].stats()
        wal_stats = clients[0].wal_stats()
        health_ms = _health_rtt_ms(clients[0], params["health_calls"]) if tracer else 0.0
        rss = daemon.peak_rss_mb()
        if tracer is not None:
            daemon.collect_spans(tracer)
        client_stats = _close(clients)
        # Every scheduled operation has been answered, so nothing is in
        # flight: what the log holds is exactly the acknowledged history.
        daemon.end(signal.SIGKILL)
        snapshot_bytes, wal_bytes = dir_bytes(work / "snapshots"), dir_bytes(work / "wal")

        # -- recovery: newest snapshot + log replay until a query answers -- #
        if tracer is not None:
            tracer.enabled, tracer.run = True, "recover"
        probe = data.queries[: params["check_rows"]]
        start = time.perf_counter()
        recovered = QueryIndex.load(snapshot, wal=WriteAheadLog(work / "wal", fsync=params["fsync"]))
        loaded_at = time.perf_counter()
        recovered.query_many(probe[:1])
        recover_s = time.perf_counter() - start
        first_query_s = time.perf_counter() - loaded_at
        if tracer is not None:
            tracer.enabled = False
        replay = recovered.replay_stats()

        start = time.perf_counter()
        quality = _check_recovery(out, recovered, records, data, params, probe)
        recovered.wal.close()
        check_s = time.perf_counter() - start
    finally:
        if daemon is not None:
            daemon.end(signal.SIGKILL)
            remove_work_dir(daemon.work)
    out.phases = {
        "datagen_s": datagen_s, "setup_s": sum(setups), "timed_s": timed,
        "recover_s": recover_s, "check_s": check_s,
    }
    _leak_audit(out, daemon, shm_before)

    errors = [r.error for r in records if r.error is not None]
    out.check(not errors, f"{len(errors)} operations failed or were refused, first: {errors[:1]}")
    reads = [r.latency for r in records if r.op[0] in READS and r.error is None]
    acks = [r.latency for r in records if r.op[0] == "insert" and r.error is None]
    live_rows = recovered.n_alive
    out.attempted = len(records)
    out.failed = sum(_failed(r, True) for r in records)
    out.metrics = gated_metrics(
        setups, reads, sum(r.error is None for r in records) / timed,
        quality["recall"], quality["est_ok_share"], rss,
    )
    late_ms = [r.late * 1000.0 for r in records]
    slope_ms = layers.read_ms_per_segment(records)
    out.detail = {
        "op": (
            f"one read request at {params['read_rate']:g}/s beside inserts of "
            f"{params['insert_rows']} rows at {params['insert_rate']:g}/s and deletes of "
            f"{params['delete_rows']} rows at {params['delete_rate']:g}/s, "
            f"WAL fsync={params['fsync']}"
        ),
        "clients": CLIENTS,
        "lat_p50_ms": percentile(reads, 50) * 1000.0,
        "lat_p90_ms": percentile(reads, 90) * 1000.0,
        "read_latency_ms": timing_detail(reads),
        "ingest_ack_p50_ms": percentile(acks, 50) * 1000.0,
        "read_latency_by_kind_ms": _by_kind(records),
        "ingest_ack_ms": timing_detail(acks),
        "slowest": _slowest(records),
        "recover_s": recover_s,
        "replayed_records": replay["replayed_records"],
        "disk_bytes_per_row": (snapshot_bytes + wal_bytes) / live_rows,
        "snapshot_bytes": snapshot_bytes,
        "wal_bytes": wal_bytes,
        "wal_syncs": wal_stats["syncs"],
        "segments_end": recovered.n_segments,
        "read_ms_per_segment": slope_ms,
        "loadgen.late_ms_p90": percentile(late_ms, 90),
        "loadgen.sent": len(records),
        "est_err_share": 1.0 - quality["est_ok_share"],
        "failed_share": out.failed / out.attempted,
        "daemon_stats": {k: v for k, v in stats.items() if isinstance(v, (int, float))},
        **{key: quality[key] for key in ("true_pairs", "returned_pairs")},
    }
    if tracer is not None:
        traced, plain = slicer.split(records)
        inserted = [r.op[1] for r in records if r.op[0] == "insert" and r.error is None]
        raw_bytes = sum(
            data.inserts[s].data.nbytes + data.inserts[s].indices.nbytes + data.inserts[s].indptr.nbytes
            for s in inserted
        )
        out.layers = layers.serving_layers(
            # The twin's truth is for the recovered index, not the reads in flight.
            tracer.spans, traced, plain, stats, client_stats, true_pairs=0.0,
            extra={
                "serving.daemon.health_rtt_ms": health_ms,
                "serving.segments.n_segments_end": recovered.n_segments,
                "serving.segments.read_ms_per_segment": slope_ms,
                "serving.wal.syncs": wal_stats["syncs"],
                "serving.wal.bytes": wal_bytes,
                "serving.wal.write_amp": wal_bytes / max(raw_bytes, 1),
                "serving.snapshot.first_query_s": first_query_s,
                "serving.snapshot.bytes": snapshot_bytes,
                "loadgen.late_ms_p90": percentile(late_ms, 90),
                "loadgen.sent": len(records),
            },
        )
    return out


def _check_recovery(out, recovered, records, data, params, probe) -> dict:
    """The durability checks, and answer quality on the recovered index.

    A twin is built in this process from the acknowledged operations alone —
    inserts in the order the daemon applied them (their assigned rows say
    which), then deletes — and the recovered index must match it.
    """
    inserts = sorted(
        (r for r in records if r.op[0] == "insert" and r.error is None), key=lambda r: r.reply[0]
    )
    deletes = [r for r in records if r.op[0] == "delete" and r.error is None]
    twin = build_index(params, data.base)
    for record in inserts:
        rows = twin.insert(data.inserts[record.op[1]])
        out.check(
            rows.tolist() == record.reply,
            f"insert acknowledged as rows {record.reply[:2]}… lands on {rows[:2]}… in the twin",
        )
    deleted = np.array(sorted({row for r in deletes for row in r.op[1]}), dtype=np.int64)
    if len(deleted):
        twin.delete(deleted)
    n_rows = data.base.shape[0] + sum(len(r.reply) for r in inserts)
    out.check(
        recovered.n_indexed == n_rows,
        f"recovered index holds {recovered.n_indexed} rows, acknowledged history says {n_rows}",
    )
    out.check(
        recovered.n_alive == n_rows - len(deleted),
        f"recovered n_alive is {recovered.n_alive}, acknowledged history says {n_rows - len(deleted)}",
    )
    got = {kind: _index_call(recovered, kind, probe) for kind in READS}
    for kind in READS:
        out.check(
            [as_wire(a) for a in got[kind]] == [as_wire(a) for a in _index_call(twin, kind, probe)],
            f"the recovered index answers a {kind} batch differently from the twin",
        )
    # Presence and absence, asked of the recovered index itself: an inserted
    # row queried with its own vector must come back, a deleted row never.
    sample = [r for r in inserts[:: max(len(inserts) // 8, 1)]]
    for record in sample:
        found = recovered.query(data.inserts[record.op[1]][0])
        out.check(
            any(pair.j == record.reply[0] for pair in found),
            f"acknowledged insert row {record.reply[0]} is missing after recovery",
        )
    gone = set(deleted.tolist())
    victims = data.base[deleted[: params["check_rows"]]] if len(deleted) else None
    if victims is not None:
        for scored in recovered.query_many(victims):
            out.check(
                not any(pair.j in gone for pair in scored),
                "a deleted row was returned after recovery",
            )
    corpus = sp.vstack([data.base] + [data.inserts[r.op[1]] for r in inserts], format="csr")
    alive = np.ones(corpus.shape[0], dtype=bool)
    alive[deleted] = False
    # Quality over the whole query pool: more true pairs, a steadier recall.
    answers = {
        row: as_wire(scored) for row, scored in enumerate(recovered.query_many(data.queries))
    }
    return _quality(answers, data.queries, corpus, params, alive=alive)
