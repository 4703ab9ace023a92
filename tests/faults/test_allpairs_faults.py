"""Worker-loss recovery in the all-pairs worker pool.

The workers only score pairs exactly; hash agreements are counted, and every
prune/emit decision, the per-round prune trace and the ``hash_comparisons``
counter kept, in the parent.  Recovery is therefore per *shard*: when a
worker is lost (death, hang, in-task error) only its shard of that one
exact request is recomputed in the parent with the same kernel
(``_WorkerPool.map_shards``), so the output — pairs, estimates, trace and
counters — stays bit-identical to the all-serial run.  A worker killed at
``pool_start`` is lost before its first request, so the first exact
request finds it dead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.search.engine import all_pairs_similarity
from repro.testing import faults

from .conftest import planted_collection

THRESHOLD = 0.5
BLOCK_SIZE = 64  # small enough that this corpus spans several blocks


@pytest.fixture(scope="module")
def corpus() -> np.ndarray:
    return planted_collection(47, n=70)


def _run(corpus, method: str, n_workers: int | None = None, **kwargs):
    return all_pairs_similarity(
        corpus,
        THRESHOLD,
        method=method,
        seed=7,
        block_size=BLOCK_SIZE,
        n_workers=n_workers,
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_bayes(corpus):
    return _run(corpus, "ap_bayeslsh")


def _assert_identical(result, reference) -> None:
    assert np.array_equal(result.left, reference.left)
    assert np.array_equal(result.right, reference.right)
    assert np.array_equal(result.similarities, reference.similarities)
    assert result.n_candidates == reference.n_candidates
    assert result.n_pruned == reference.n_pruned
    assert result.metadata["prune_trace"] == reference.metadata["prune_trace"]
    assert result.metadata["hash_comparisons"] == reference.metadata["hash_comparisons"]


@pytest.mark.parametrize("n_workers", [2, 4])
@pytest.mark.parametrize("victim", ["first", "last"])
def test_kill_one_worker_allpairs_bit_identical(corpus, serial_bayes, n_workers, victim):
    worker = 0 if victim == "first" else n_workers - 1
    with faults.inject() as plan:
        plan.kill_worker(worker, event="pool_start")
        result = _run(corpus, "ap_bayeslsh", n_workers=n_workers)
    assert ("kill", worker) in plan.fired
    _assert_identical(result, serial_bayes)


def test_kill_every_worker_allpairs_bit_identical(corpus, serial_bayes):
    """With no survivors every remaining block runs serially in the parent."""
    with faults.inject() as plan:
        plan.kill_worker(0, event="pool_start")
        plan.kill_worker(1, event="pool_start")
        result = _run(corpus, "ap_bayeslsh", n_workers=2)
    assert ("kill", 0) in plan.fired and ("kill", 1) in plan.fired
    _assert_identical(result, serial_bayes)


@pytest.mark.parametrize("method", ["lsh", "ap_bayeslsh"])
def test_hung_worker_allpairs_recovers_via_round_timeout(corpus, method):
    """A worker stopped before its first request: the exact verifier's and the
    hybrid's exact requests both recover through the deadline."""
    reference = _run(corpus, method)
    with faults.inject() as plan:
        plan.hang_worker(0, event="pool_start")
        result = _run(corpus, method, n_workers=2, round_timeout=3.0)
    assert ("hang", 0) in plan.fired
    _assert_identical(result, reference)


def test_kill_one_worker_lite_bit_identical(corpus):
    """BayesLSH-Lite's fallback exact-verifies survivors through the verifier."""
    reference = _run(corpus, "ap_bayeslsh_lite")
    with faults.inject() as plan:
        plan.kill_worker(0, event="pool_start")
        result = _run(corpus, "ap_bayeslsh_lite", n_workers=2)
    assert ("kill", 0) in plan.fired
    _assert_identical(result, reference)


@pytest.mark.parametrize("method", ["lsh", "ap_bayeslsh"])
def test_dropped_exact_message_recovers_via_round_timeout(corpus, method):
    """The shard fallback of exact scoring (map_exact) recovers a hang: the
    exact verifier's, and the hybrid's for the pairs that exhaust the budget."""
    reference = _run(corpus, method)
    with faults.inject() as plan:
        plan.drop_messages(0, tag="exact")
        result = _run(corpus, method, n_workers=2, round_timeout=3.0)
    assert ("drop", "exact") in plan.fired
    assert np.array_equal(result.left, reference.left)
    assert np.array_equal(result.right, reference.right)
    assert np.array_equal(result.similarities, reference.similarities)
