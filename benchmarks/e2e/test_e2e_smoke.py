"""Smoke test of the end-to-end benchmark (collected by tier-1, a few seconds).

Runs ``run.py --scale tiny`` over all seven workloads, untraced and traced, in
subprocesses — the traced run patches library classes, which must never leak
into the rest of the test session — and checks the harness's own parts: the
open-loop generator's accounting, the oracle, and ``compare.py``'s verdicts.
"""

from __future__ import annotations

import json
import math
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

from e2e import compare, loadgen, oracle  # noqa: E402
from e2e.layers import LAYER_METRICS  # noqa: E402
from e2e.trace import check_tree, unpack_spans  # noqa: E402

DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str) -> subprocess.Popen:
    # Its own session, so whatever it leaves running can be found afterwards.
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def _session_members(session: int) -> list:
    """Pids (with command lines) of the processes still in ``session``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            if int(stat[stat.rindex(")") + 2 :].split()[3]) == session:
                members.append((int(entry.name), (entry / "cmdline").read_text().replace("\0", " ")))
        except OSError:
            continue  # ended while we looked
    return members


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced tiny run of all seven workloads, side by side."""
    out = tmp_path_factory.mktemp("e2e")
    plain = _run("--scale", "tiny", "--seed", "1", "--out", str(out / "plain.json"))
    traced = _run("--scale", "tiny", "--seed", "1", "--trace", "--out", str(out / "traced.json"))
    results = {}
    for name, process in (("plain", plain), ("traced", traced)):
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{name} run failed:\n{stdout[-2000:]}\n{stderr[-2000:]}"
        # The traced run forks pools, which start multiprocessing's resource
        # tracker: the run must have stopped and reaped it before it exited.
        assert _session_members(process.pid) == [], f"{name} run left processes behind"
        results[name] = (json.loads((out / f"{name}.json").read_text()), stdout)
    return results


def test_benchmark_json_keeps_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8 and len(set(WORKLOADS)) == len(WORKLOADS)
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(set(names + WORKLOADS)) == len(names) + len(WORKLOADS)
    assert all(NAME.match(name) for name in names + WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == LAYER_METRICS


def test_tiny_run_reports_every_declared_metric(tiny_runs):
    document, stdout = tiny_runs["plain"]
    assert list(document["workloads"]) == WORKLOADS
    for workload in WORKLOADS:
        entry = document["workloads"][workload]
        assert entry["correct"], entry["problems"]
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert entry["detail"]["failed_share"] == 0
        for metric in DECLARED["end_to_end"]:
            got = entry["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"]) and got["value"] > 0, (workload, metric["name"])
            assert f"{workload:12s} {metric['name']:40s}" in stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
    environment = document["environment"]
    assert {"commit", "seed", "nproc", "python", "numpy", "scipy"} <= set(environment)


def test_traced_tiny_run_reports_every_layer_metric_and_a_sound_span_tree(tiny_runs):
    document, _ = tiny_runs["traced"]
    for workload in WORKLOADS:
        entry = document["workloads"][workload]
        assert entry["correct"], entry["problems"]
        assert set(entry["layers"]) == set(LAYER_METRICS)
        for name, got in entry["layers"].items():
            assert got["unit"] == LAYER_METRICS[name] and math.isfinite(got["value"]), (workload, name)
        spans = unpack_spans(entry["spans"])
        assert spans, f"{workload} recorded no span"
        assert check_tree(spans) == []
        assert entry["layers"]["trace.spans"]["value"] == len(spans)
    layers = {w: document["workloads"][w]["layers"] for w in WORKLOADS}
    # Each workload enters the layers it claims and stays out of the others.
    assert layers["ap_text"]["candidates.generate_s"]["value"] > 0
    assert layers["lsh_sets"]["verification.exact_computations"]["value"] > 0
    assert layers["index_batch"]["serving.daemon.overhead_ms_p50"]["value"] == 0
    assert layers["serve_read"]["serving.daemon.overhead_ms_p50"]["value"] > 0
    assert layers["serve_mixed"]["serving.wal.bytes"]["value"] > 0
    for workload in WORKLOADS[:-1]:
        assert layers[workload]["serving.wal.bytes"]["value"] == 0


def test_one_workload_prints_the_result_line_the_driver_reads():
    process = _run("--workload", "lsh_sets", "--scale", "tiny", "--seed", "2", "--seconds", "0.2", "--trace", "0")
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 0, stderr[-2000:]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1


class _StallingEcho:
    """A line echo server that serves one request at a time and stalls once."""

    def __init__(self, stall_at: int, stall_s: float):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.address = self._listener.getsockname()
        self._lock = threading.Lock()
        self._served = 0
        self._stall_at, self._stall_s = stall_at, stall_s
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(connection,), daemon=True).start()

    def _serve(self, connection):
        with connection, connection.makefile("rwb") as stream:
            for line in stream:
                with self._lock:  # one request at a time, like the daemon's executor
                    self._served += 1
                    if self._served == self._stall_at:
                        time.sleep(self._stall_s)
                    stream.write(line)
                    stream.flush()

    def close(self):
        self._listener.close()


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    server = _StallingEcho(stall_at=10, stall_s=0.2)
    streams = []
    for _ in range(2):
        connection = socket.create_connection(server.address)
        streams.append((connection, connection.makefile("rwb")))

    def send(thread, op):
        stream = streams[thread][1]
        stream.write(b"%d\n" % op)
        stream.flush()
        return int(stream.readline())

    try:
        schedule = list(zip(loadgen.fixed_rate(100.0, 0.6), range(60)))
        records = loadgen.open_loop(schedule, 2, send)
    finally:
        for connection, stream in streams:
            stream.close()
            connection.close()
        server.close()
    assert [r.reply for r in records] == list(range(60)) and not any(r.error for r in records)
    # ~20 requests fall due while the server sleeps.  Both client threads are
    # blocked behind it, so those requests go out late — and the wait counts:
    # measured from the due time they are slow, measured from the send they are not.
    delayed = [r for r in records if r.latency > 0.05]
    assert len(delayed) >= 10
    assert sum(r.service > 0.05 for r in delayed) <= 2
    assert max(r.late for r in records) > 0.1  # the generator reports its own lateness
    assert all(r.latency < 0.02 for r in records[:8])


def test_oracle_agrees_with_exact_all_pairs_on_a_sample():
    from repro.datasets.synthetic import synthetic_text_corpus
    from repro.evaluation import exact_all_pairs
    from repro.similarity.transforms import tfidf_weighting

    corpus = synthetic_text_corpus(
        n_documents=300, vocabulary_size=600, average_length=40, duplicate_fraction=0.6,
        cluster_size=6, mutation_rate=0.2, seed=5,
    ).collection
    for collection, measure, threshold in (
        (tfidf_weighting(corpus), "cosine", 0.6),
        (corpus.binarized(), "jaccard", 0.5),
    ):
        left, right, sims = oracle.all_pairs_above(collection.matrix, measure, threshold)
        mine = set(zip(left.tolist(), right.tolist()))
        assert len(mine) > 50
        # Pairs within a rounding of the threshold are the oracle's to leave out.
        strict = exact_all_pairs(collection, threshold + 1e-8, measure).pair_set()
        loose = exact_all_pairs(collection, threshold - 1e-8, measure)
        assert strict <= mine <= loose.pair_set()
        reference = loose.similarity_map()
        assert all(
            abs(reference[pair] - sim) < 1e-12
            for pair, sim in zip(zip(left.tolist(), right.tolist()), sims.tolist())
        )
        again = oracle.pair_similarities(collection.matrix, left, collection.matrix, right, measure)
        assert np.allclose(again, sims, rtol=0, atol=1e-12)


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [100.5, 99.5, 101.5], "lower", 0.10) == "same"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.10) == "better"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.10) == "worse"
    noisy = [100.0, 130.0, 70.0]
    assert compare.verdict(noisy, [105.0, 125.0, 75.0], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [40.0, 60.0, 50.0], "lower", 0.10) == "better"
