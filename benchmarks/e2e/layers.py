"""Per-layer metrics, read off the traced run's spans.

Layers are the repo's modules.  Times are **mean seconds per traced
operation** — one join offline, one round of batches in ``index_batch``, one
request in ``serve_*`` — so a run of any length reads the same; counts are
per operation too.  ``*.share`` is the layer's self time over the
operations' end-to-end time.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

import numpy as np

from .common import percentile, slope
from .trace import Span, has_ancestor, self_times

#: every per-layer metric, with its unit (BENCHMARK.json lists the same names)
LAYER_METRICS = {
    "hashing.self_s": "s",
    "hashing.calls": "count",
    "hashing.hashes_materialised": "count",
    "hashing.share": "ratio",
    "candidates.generate_s": "s",
    "candidates.probe_s": "s",
    "candidates.postings_add_s": "s",
    "candidates.n_candidates": "count",
    "candidates.precision": "ratio",
    "candidates.share": "ratio",
    "verification.self_s": "s",
    "verification.hash_comparisons": "count",
    "verification.hashes_per_pair": "count",
    "verification.pruned_share": "ratio",
    "verification.pruned_round1_share": "ratio",
    "verification.exact_computations": "count",
    "verification.share": "ratio",
    "similarity.exact_s": "s",
    "similarity.prepare_s": "s",
    "similarity.pairs_scored": "count",
    "search.engine.self_s": "s",
    "search.engine.make_s": "s",
    "search.query.self_s": "s",
    "search.query.calls": "count",
    "search.query.rows_per_call": "count",
    "search.query.insert_self_s": "s",
    "search.query.insert_s": "s",
    "search.executor.resident_qps": "1/s",
    "search.executor.percall_qps": "1/s",
    "search.executor.pool_start_s": "s",
    "search.executor.stream_w2_s": "s",
    "search.executor.serial_fallbacks": "count",
    "serving.segments.count_cross_s": "s",
    "serving.segments.append_s": "s",
    "serving.segments.n_segments_end": "count",
    "serving.segments.read_ms_per_segment": "ms",
    "serving.wal.append_s": "s",
    "serving.wal.sync_s": "s",
    "serving.wal.syncs": "count",
    "serving.wal.bytes": "B",
    "serving.wal.write_amp": "ratio",
    "serving.snapshot.save_s": "s",
    "serving.snapshot.load_s": "s",
    "serving.snapshot.replay_s": "s",
    "serving.snapshot.first_query_s": "s",
    "serving.snapshot.bytes": "B",
    "serving.daemon.overhead_ms_p50": "ms",
    "serving.daemon.health_rtt_ms": "ms",
    "serving.daemon.mean_batch": "count",
    "serving.daemon.coalesced_share": "ratio",
    "serving.daemon.queue_wait_ms_p50": "ms",
    "serving.daemon.ingest_ack_ms_p50": "ms",
    "serving.daemon.shed": "count",
    "serving.daemon.rejected": "count",
    "serving.client.encode_ms_p50": "ms",
    "serving.client.retries": "count",
    "serving.client.reconnects": "count",
    "loadgen.late_ms_p90": "ms",
    "loadgen.sent": "count",
    "trace.op_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
}

#: names of the spans that are whole index calls inside the daemon child
INDEX_CALLS = {
    "query": "search.query.query_many",
    "top_k": "search.query.top_k_many",
    "insert": "search.query.insert",
    "delete": "search.query.delete",
}


class _Sums:
    """Self time, call count and counts summed per span name and per layer."""

    def __init__(self, spans: list[Span]):
        own = self_times(spans)
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.layer_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[tuple[str, str], float] = {}
        for span in spans:
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + own[span.id]
            self.total_s[span.name] = self.total_s.get(span.name, 0.0) + span.duration
            self.layer_s[span.layer] = self.layer_s.get(span.layer, 0.0) + own[span.id]
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            for key, value in span.counts.items():
                if isinstance(value, (int, float)):
                    self.counts[span.name, key] = self.counts.get((span.name, key), 0.0) + value
            for name, (layer, calls, seconds) in span.counts.get("agg", {}).items():
                self.self_s[name] = self.self_s.get(name, 0.0) + seconds
                self.layer_s[layer] = self.layer_s.get(layer, 0.0) + seconds
                self.calls[name] = self.calls.get(name, 0) + calls

    def time(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def mean_time(self, name: str) -> float:
        return self.time(name) / max(self.calls.get(name, 0), 1)

    def count(self, name: str, key: str) -> float:
        return self.counts.get((name, key), 0.0)


def _per_op(sums: _Sums, n_ops: int, op_seconds: float) -> dict:
    """The metrics every workload derives the same way from its operations' spans."""
    per_op = 1.0 / max(n_ops, 1)
    total = max(op_seconds, 1e-12)
    layer = sums.layer_s
    fsync_in_wal = sum(
        span.duration
        for span in sums.spans
        if span.name == "os.fsync" and has_ancestor(span, sums.by_id, "serving.wal.append")
    )
    reads = ("search.query.query_many", "search.query.top_k_many")
    read_calls = sum(sums.calls.get(name, 0) for name in reads)
    compared = max(sums.count("verification.verify", "candidates"), 1.0)
    hash_comparisons = sums.count("verification.verify", "hash_comparisons")
    after_round_1 = sum(
        span.counts["survivors"][0][1]
        for span in sums.spans
        if span.name == "verification.verify" and span.counts.get("survivors")
    )
    probed = sums.count("candidates.generate", "candidates") + sums.count(
        "candidates.probe", "candidates"
    )
    # The client's request spans wait on the daemon; only its encoding is its own work.
    attributed = sums.time("serving.client.encode") + sum(
        seconds for name, seconds in layer.items() if name != "serving.client"
    )
    return {
        "hashing.self_s": layer.get("hashing", 0.0) * per_op,
        "hashing.calls": sums.calls.get("hashing.signatures", 0) * per_op,
        "hashing.hashes_materialised": sums.count("hashing.signatures", "hashes") * per_op,
        "hashing.share": layer.get("hashing", 0.0) / total,
        "candidates.generate_s": sums.time("candidates.generate") * per_op,
        "candidates.probe_s": sums.time("candidates.probe") * per_op,
        "candidates.postings_add_s": sums.time(
            "candidates.postings_add", "candidates.postings_build"
        )
        * per_op,
        "candidates.n_candidates": probed * per_op,
        "candidates.share": layer.get("candidates", 0.0) / total,
        "verification.self_s": layer.get("verification", 0.0) * per_op,
        "verification.hash_comparisons": hash_comparisons * per_op,
        "verification.hashes_per_pair": hash_comparisons / compared,
        "verification.pruned_share": sums.count("verification.verify", "pruned") / compared,
        "verification.pruned_round1_share": (
            1.0 - after_round_1 / compared if hash_comparisons else 0.0
        ),
        "verification.exact_computations": sums.count("verification.verify", "exact_computations")
        * per_op,
        "verification.share": layer.get("verification", 0.0) / total,
        "similarity.exact_s": sums.time("similarity.exact", "similarity.exact_scalar") * per_op,
        "similarity.prepare_s": sums.time("similarity.prepare") * per_op,
        "similarity.pairs_scored": (
            sums.count("similarity.exact", "pairs") + sums.calls.get("similarity.exact_scalar", 0)
        )
        * per_op,
        "search.engine.self_s": sums.time("search.engine.run") * per_op,
        "search.engine.make_s": sums.time("search.engine.make") * per_op,
        "search.query.self_s": sums.time(*reads) * per_op,
        "search.query.calls": read_calls * per_op,
        "search.query.rows_per_call": sum(sums.count(name, "rows") for name in reads)
        / max(read_calls, 1),
        "search.query.insert_self_s": sums.mean_time("search.query.insert"),
        "search.query.insert_s": sums.total_s.get("search.query.insert", 0.0)
        / max(sums.calls.get("search.query.insert", 0), 1),
        "serving.segments.count_cross_s": sums.time("serving.segments.count_cross") * per_op,
        "serving.segments.append_s": sums.mean_time("serving.segments.append"),
        "serving.wal.append_s": (sums.time("serving.wal.append") + fsync_in_wal)
        / max(sums.calls.get("serving.wal.append", 0), 1),
        "serving.wal.sync_s": (sums.time("serving.wal.sync") + fsync_in_wal)
        / max(sums.calls.get("serving.wal.append", 0), 1),
        "trace.op_s": op_seconds * per_op,
        "trace.unattributed_share": 1.0 - attributed / total,
        "trace.spans": float(len(sums.spans)),
    }


def _finish(values: dict) -> dict:
    """Every metric present, zero where the workload never entered the layer."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in LAYER_METRICS.items()}


def _overhead(traced: list[float], plain: list[float]) -> float:
    if not traced or not plain:
        return 0.0
    return percentile(traced, 50) / percentile(plain, 50) - 1.0


def survivors_by_round(spans: list[Span]) -> list:
    """The pruning curve: ``[hashes compared, pairs still alive]`` per round, summed."""
    curve: dict[int, int] = {}
    for span in spans:
        for n_hashes, alive in span.counts.get("survivors", ()):
            curve[n_hashes] = curve.get(n_hashes, 0) + alive
    return [[n_hashes, curve[n_hashes]] for n_hashes in sorted(curve)]


def offline_layers(spans, traced_walls, plain_walls, true_pairs: int, extra: dict) -> dict:
    """Per-layer metrics of an offline workload's traced joins."""
    sums = _Sums(spans)
    values = _per_op(sums, len(traced_walls), sum(traced_walls))
    candidates = sums.count("candidates.generate", "candidates")
    values["candidates.precision"] = true_pairs * len(traced_walls) / max(candidates, 1.0)
    values["trace.overhead_share"] = _overhead(traced_walls, plain_walls)
    values.update(extra)
    return _finish(values)


def index_layers(spans, traced_walls, plain_walls, true_pairs: float, extra: dict) -> dict:
    """Per-layer metrics of ``index_batch``: traced rounds, then the cold start."""
    sums = _Sums([span for span in spans if span.run.startswith("round#")])
    values = _per_op(sums, len(traced_walls), sum(traced_walls))
    values["candidates.precision"] = true_pairs / max(sums.count("candidates.probe", "candidates"), 1.0)
    values["trace.overhead_share"] = _overhead(traced_walls, plain_walls)
    cold = _Sums([span for span in spans if span.run == "cold_start"])
    values["serving.snapshot.save_s"] = cold.mean_time("serving.snapshot.save")
    values["serving.snapshot.load_s"] = cold.mean_time("serving.snapshot.load")
    values["trace.spans"] = float(len(spans))
    values.update(extra)
    return _finish(values)


def match_index_calls(records, child_spans: list[Span]) -> list[tuple[object, Span]]:
    """Pair each request with the index call that served it inside the child.

    The wire carries no request id the child could stamp on a span, so the
    match is by time: both sides read the system-wide monotonic clock, and
    the serving call of the request's kind is the last one that starts after
    the request was sent and ends before its reply arrived.
    """
    by_name: dict[str, list[Span]] = {}
    for span in sorted(child_spans, key=lambda span: span.start):
        by_name.setdefault(span.name, []).append(span)
    starts = {name: np.array([s.start for s in group]) for name, group in by_name.items()}
    matched = []
    for record in records:
        name = INDEX_CALLS[record.op[0].split(":")[0]]
        group = by_name.get(name)
        if not group:
            continue
        position = int(np.searchsorted(starts[name], record.done)) - 1
        while position >= 0 and group[position].end > record.done:
            position -= 1
        if position >= 0 and group[position].start >= record.sent:
            matched.append((record, group[position]))
    return matched


def _is_read(record) -> bool:
    return record.op[0] not in ("insert", "delete")


def serving_layers(
    spans, traced, plain, stats: dict, client_stats: dict, true_pairs: float, extra: dict
) -> dict:
    """Per-layer metrics of a daemon workload from client records and spans.

    ``traced``/``plain`` are the requests sent while tracing was on/off; the
    operations' end-to-end time is the traced requests' time from send to
    reply.  Spans of the recovery that follows ``serve_mixed`` carry the run
    name ``recover`` and feed only the snapshot metrics.
    """
    child = [span for span in spans if span.process == "daemon"]
    serving = _Sums([s for s in spans if s.process == "daemon" or s.layer == "serving.client"])
    values = _per_op(serving, len(traced), sum(r.service for r in traced))
    matched = [(r, s) for r, s in match_index_calls(traced, child) if _is_read(r)]
    if matched:
        values["serving.daemon.overhead_ms_p50"] = percentile(
            [(r.service - s.duration) * 1000.0 for r, s in matched], 50
        )
        values["serving.daemon.queue_wait_ms_p50"] = percentile(
            [(s.start - r.sent) * 1000.0 for r, s in matched], 50
        )
    acks = [r.latency * 1000.0 for r in traced + plain if r.op[0] == "insert" and r.error is None]
    if acks:
        values["serving.daemon.ingest_ack_ms_p50"] = percentile(acks, 50)
    batches = max(stats.get("batches", 0), 1)
    values["serving.daemon.mean_batch"] = stats.get("requests", 0) / batches
    values["serving.daemon.coalesced_share"] = stats.get("coalesced_batches", 0) / batches
    values["serving.daemon.shed"] = stats.get("shed", 0)
    values["serving.daemon.rejected"] = sum(
        stats.get(key, 0) for key in ("rejected_overloaded", "rejected_draining", "deadline_misses")
    )
    encodes = [s.duration * 1000.0 for s in spans if s.name == "serving.client.encode"]
    if encodes:
        values["serving.client.encode_ms_p50"] = percentile(encodes, 50)
    values["serving.client.retries"] = client_stats.get("retries", 0)
    values["serving.client.reconnects"] = client_stats.get("reconnects", 0)
    values["candidates.precision"] = true_pairs / max(
        serving.count("candidates.probe", "candidates"), 1.0
    )
    values["trace.overhead_share"] = _overhead(
        [r.service for r in traced if _is_read(r)], [r.service for r in plain if _is_read(r)]
    )
    recover = _Sums([span for span in spans if span.run == "recover"])
    values["serving.snapshot.load_s"] = recover.mean_time("serving.snapshot.load")
    values["serving.snapshot.replay_s"] = sum(
        s.duration for s in recover.spans if s.name == "serving.snapshot.replay"
    )
    values["trace.spans"] = float(len(spans))
    values.update(extra)
    return _finish(values)


def read_ms_per_segment(records) -> float:
    """Slope of read service time on the number of segments the index held.

    Every acknowledged insert seals one more segment, so the count at a
    read's send time is one plus the inserts acknowledged before it.
    """
    acks = np.sort([r.done for r in records if r.op[0] == "insert" and r.error is None])
    reads = [r for r in records if r.op[0] not in ("insert", "delete") and r.error is None]
    if not len(acks) or not reads:
        return 0.0
    segments = 1 + np.searchsorted(acks, [r.sent for r in reads])
    return slope(segments, [r.service * 1000.0 for r in reads])
