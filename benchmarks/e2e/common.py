"""What every workload shares: parameters, generated inputs, statistics, outcomes."""

from __future__ import annotations

import gc
import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"
SHM_DIR = Path("/dev/shm")

#: an open-loop operation answered later than this after it was due has failed
LATE_LIMIT_S = 1.0
#: Seed of everything random inside the program under test (hash families,
#: prior sampling).  It is configuration, not input: ``--seed`` picks the data,
#: and the same hash functions meet every corpus, which keeps run-to-run
#: differences down to the data and the machine.
PROGRAM_SEED = 11
#: BayesLSH's accuracy parameter: an estimate further than this from the exact
#: similarity is an estimate error (the paper bounds their share by gamma)
DELTA = 0.05
#: load is generated by this many client threads, each with its own connection
CLIENTS = 2
#: set-up is repeated this many times in a run and its median reported
SETUP_REPEATS = 3

# Half of every corpus is planted near-duplicate clusters.  Many small clusters
# rather than few large ones: the work a corpus causes then varies little
# from seed to seed.
_TEXT = dict(average_length=60, duplicate_fraction=0.5, cluster_size=4, mutation_rate=0.1)
_INDEX = dict(
    vocabulary_size=5000, threshold=0.7, measure="cosine", verification="bayes", batch_rows=64,
    **_TEXT,
)

#: Workload sizes and rates.  ``full`` is what BENCHMARK.json's numbers are
#: taken at; ``tiny`` is the smoke test's.  Rates are fixed here, never
#: derived from a measurement at run time.
PARAMS = {
    "full": {
        "ap_text": dict(
            kind="text", n_documents=1700, vocabulary_size=2500, pipeline="ap_bayeslsh",
            measure="cosine", threshold=0.7, **_TEXT,
        ),
        "ap_graph": dict(
            kind="graph", n_nodes=4000, average_degree=20, n_communities=200,
            pipeline="ap_bayeslsh", measure="cosine", threshold=0.5,
        ),
        # Near-duplicates swap 15% of their tokens, which puts the planted
        # pairs' Jaccard around 0.57: above the threshold, close enough to it
        # that banding and Lite pruning lose some.
        "lsh_sets": dict(
            kind="sets", n_documents=5000, vocabulary_size=10000, pipeline="lsh_bayeslsh_lite",
            measure="jaccard", threshold=0.5, **{**_TEXT, "cluster_size": 6, "mutation_rate": 0.15},
        ),
        "index_batch": dict(n_documents=3000, n_queries=1024, cold_starts=3, **_INDEX),
        "serve_sat": dict(
            n_documents=3000, n_queries=1024, health_calls=300, **_INDEX
        ),
        # The same read rate as serve_mixed: the two differ by the writes alone.
        "serve_read": dict(
            n_documents=3000, n_queries=1024, read_rate=25.0,
            health_calls=300, **_INDEX,
        ),
        # Inserts hold the daemon's one executor thread ~8% of the time.  At 4/s
        # it was ~11%, which put the reads queued behind an insert right at the
        # 90th percentile: the tail metric then flipped between two values run to run.
        "serve_mixed": dict(
            n_documents=3000, n_queries=512, read_rate=25.0,
            insert_rate=3.0, insert_rows=32, delete_rate=1.0, delete_rows=8,
            fsync="always", check_rows=64, health_calls=300, **_INDEX,
        ),
    },
    "tiny": {
        "ap_text": dict(
            kind="text", n_documents=300, vocabulary_size=800, pipeline="ap_bayeslsh",
            measure="cosine", threshold=0.7, **_TEXT,
        ),
        "ap_graph": dict(
            kind="graph", n_nodes=400, average_degree=12, n_communities=20,
            pipeline="ap_bayeslsh", measure="cosine", threshold=0.5,
        ),
        "lsh_sets": dict(
            kind="sets", n_documents=400, vocabulary_size=1500, pipeline="lsh_bayeslsh_lite",
            measure="jaccard", threshold=0.5, **{**_TEXT, "cluster_size": 6, "mutation_rate": 0.15},
        ),
        "index_batch": dict(
            n_documents=400, n_queries=192, cold_starts=1,
            **{**_INDEX, "vocabulary_size": 1000, "batch_rows": 16},
        ),
        "serve_sat": dict(
            n_documents=400, n_queries=192, health_calls=20,
            **{**_INDEX, "vocabulary_size": 1000},
        ),
        "serve_read": dict(
            n_documents=400, n_queries=192, read_rate=20.0,
            health_calls=20, **{**_INDEX, "vocabulary_size": 1000},
        ),
        "serve_mixed": dict(
            n_documents=400, n_queries=192, read_rate=20.0,
            insert_rate=6.0, insert_rows=8, delete_rate=3.0, delete_rows=4,
            fsync="always", check_rows=32, health_calls=20,
            **{**_INDEX, "vocabulary_size": 1000},
        ),
    },
}
WORKLOADS = tuple(PARAMS["full"])


@dataclass
class Context:
    """One invocation's settings, shared by the workloads it runs."""

    seed: int
    seconds: float
    scale: str
    tracer: object | None  # a trace.Tracer when this is the traced run
    setup_repeats: int = SETUP_REPEATS

    def params(self, workload: str) -> dict:
        return dict(PARAMS[self.scale][workload])


@dataclass
class Outcome:
    """What one workload's run produced."""

    workload: str
    metrics: dict = field(default_factory=dict)  # end-to-end: name -> (value, unit)
    detail: dict = field(default_factory=dict)  # printed and written, not gated
    layers: dict = field(default_factory=dict)  # per-layer: name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed checks and leaks
    phases: dict = field(default_factory=dict)  # seconds spent per phase
    params: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> bool:
        """Record ``message`` as a failed correctness check unless ``ok``."""
        if not ok:
            self.problems.append(message)
        return bool(ok)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> float:
    """Which percentile ``op_tail_ms`` is, given ``n`` timed operations.

    The 90th where it has ten samples beyond it (``n`` >= 100); with fewer
    samples the highest percentile that still has ten beyond it, and never
    below the median — a "p90" of a dozen joins is the slowest one or two.
    """
    return min(90.0, max(50.0, 100.0 * (1.0 - 10.0 / max(n, 1))))


def tail(values) -> float:
    """The sample's :func:`tail_percentile`, in the sample's unit."""
    return percentile(values, tail_percentile(len(values)))


def timing_detail(seconds) -> dict:
    """A sample of times in ms: count, median, the gated tail, and what lies beyond."""
    ms = np.asarray(seconds, dtype=np.float64) * 1000.0
    return {
        "n": int(len(ms)),
        "p50_ms": percentile(ms, 50),
        "tail_q": tail_percentile(len(ms)),
        "tail_ms": tail(ms),
        "p90_ms": percentile(ms, 90),
        "p95_ms": percentile(ms, 95),
        "p99_ms": percentile(ms, 99),
        "max_ms": float(ms.max()),
    }


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile, as the driver takes them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def slope(x, y) -> float:
    """Least-squares slope of ``y`` on ``x`` (0.0 when ``x`` does not vary)."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if len(x) < 2 or np.ptp(x) == 0:
        return 0.0
    return float(np.polyfit(x, y, 1)[0])


def gated_metrics(setups, op_seconds, rate, recall, est_ok_share, rss_mb) -> dict:
    """The seven end-to-end metrics every workload reports, by BENCHMARK.json's names."""
    return {
        "setup_s": (percentile(setups, 50), "s"),
        "op_p50_ms": (percentile(op_seconds, 50) * 1000.0, "ms"),
        "op_tail_ms": (tail(op_seconds) * 1000.0, "ms"),
        "rate_per_s": (rate, "1/s"),
        "recall": (recall, "ratio"),
        "est_ok_share": (est_ok_share, "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


# --------------------------------------------------------------------------- #
# the process and its leftovers
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: int | None = None) -> float:
    """``VmHWM`` of a process (this one by default), in MiB."""
    with open(f"/proc/{pid or os.getpid()}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so each workload of a run reads its own peak."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # not permitted here: a later workload may then read an earlier one's peak


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments the worker pools publish."""
    if not SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in SHM_DIR.iterdir() if entry.name.startswith("psm_")}


def make_work_dir() -> Path:
    """A fresh scratch directory inside the benchmark's own directory."""
    path = WORK_ROOT / f"{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once the last run's directory is gone
    except OSError:
        pass


def child_pids() -> list:
    """Every live process whose parent is this one, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            found.append(int(entry))
    return found


def _wait_ended(pid: int, patience_s: float) -> None:
    """Wait for child ``pid``; past ``patience_s`` kill it and wait again."""
    deadline = time.monotonic() + patience_s
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.002)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped


def reap_children() -> list:
    """End every process this one started and wait until each has ended.

    The program's forked pools start ``multiprocessing``'s resource tracker,
    which otherwise outlives the benchmark by the moment it takes to notice
    its pipe closed.  It is stopped the orderly way (its pipe closed, then
    waited for); any other child still there is a stray and is killed.
    Returns the strays' pids.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid, tracker_fd = getattr(tracker, "_pid", None), getattr(tracker, "_fd", None)
    strays = []
    for pid in child_pids():
        if pid == tracker_pid:
            continue
        strays.append(pid)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _wait_ended(pid, 10.0)
    if tracker_pid is not None:
        if tracker_fd is not None:
            try:
                os.close(tracker_fd)
            except OSError:
                pass
        tracker._fd = tracker._pid = None
        _wait_ended(tracker_pid, 10.0)
    return strays


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*") if entry.is_file())


# --------------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------------- #
def offline_matrix(params: dict, seed: int) -> sp.csr_matrix:
    """The corpus an offline workload joins, as the matrix the program receives."""
    from repro.datasets.synthetic import synthetic_graph, synthetic_text_corpus
    from repro.similarity.transforms import tfidf_weighting

    if params["kind"] == "graph":
        dataset = synthetic_graph(
            n_nodes=params["n_nodes"],
            average_degree=params["average_degree"],
            n_communities=params["n_communities"],
            seed=seed,
        )
        return dataset.collection.matrix
    dataset = synthetic_text_corpus(
        n_documents=params["n_documents"],
        vocabulary_size=params["vocabulary_size"],
        average_length=params["average_length"],
        duplicate_fraction=params["duplicate_fraction"],
        cluster_size=params["cluster_size"],
        mutation_rate=params["mutation_rate"],
        seed=seed,
    )
    if params["kind"] == "sets":
        return dataset.collection.binarized().matrix
    return tfidf_weighting(dataset.collection).matrix


@dataclass
class ServingData:
    """An indexed corpus, held-out query vectors and rows to insert later."""

    base: sp.csr_matrix
    queries: sp.csr_matrix
    inserts: sp.csr_matrix


def serving_data(params: dict, seed: int, n_insert_rows: int = 0) -> ServingData:
    """A TF-IDF corpus split into indexed rows, queries and future inserts.

    Half the query vectors are members of planted near-duplicate clusters
    whose other members stay indexed, so they have true neighbours; the
    other half are background documents, which mostly have none.  The two
    halves alternate row by row, so any stretch of the pool a run gets through
    holds the same share of each.
    """
    from repro.datasets.synthetic import synthetic_text_corpus
    from repro.similarity.transforms import tfidf_weighting

    n_queries = params["n_queries"]
    total = params["n_documents"] + n_queries + n_insert_rows
    dataset = synthetic_text_corpus(
        n_documents=total,
        vocabulary_size=params["vocabulary_size"],
        average_length=params["average_length"],
        duplicate_fraction=params["duplicate_fraction"],
        cluster_size=params["cluster_size"],
        mutation_rate=params["mutation_rate"],
        seed=seed,
    )
    matrix = tfidf_weighting(dataset.collection).matrix
    rng = np.random.default_rng(seed)
    clustered = np.flatnonzero(dataset.metadata["cluster_labels"] >= 0)
    background = np.flatnonzero(dataset.metadata["cluster_labels"] < 0)
    near = rng.choice(clustered, size=n_queries // 2, replace=False)
    far = rng.choice(background, size=n_queries - len(near), replace=False)
    query_rows = np.empty(n_queries, dtype=np.int64)
    query_rows[0::2], query_rows[1::2] = far, near[: n_queries // 2]
    remaining = np.setdiff1d(np.arange(total), query_rows)
    insert_rows = rng.choice(remaining, size=n_insert_rows, replace=False)
    base_rows = np.setdiff1d(remaining, insert_rows)
    return ServingData(matrix[base_rows], matrix[query_rows], matrix[insert_rows])


def build_index(params: dict, base):
    from repro.search.query import QueryIndex

    return QueryIndex(
        base,
        measure=params["measure"],
        threshold=params["threshold"],
        verification=params["verification"],
        seed=PROGRAM_SEED,
    )


def quiesce() -> None:
    """Collect garbage now and exempt what survives from later collections.

    Called once set-up is done: the harness's own long-lived data (corpora,
    expected answers) then costs the timed phase no collector pauses, in this
    process or in a daemon child forked from it.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def as_wire(scored) -> list:
    """A result list the way the daemon writes it: ``[[row, similarity], ...]``."""
    return [[int(pair.j), float(pair.similarity)] for pair in scored]
