"""Worker-loss recovery in the serving pool: bit-identity at every seam.

The acceptance property: SIGKILLing any one worker at every stage of
``query_many``/``top_k_many`` (the fork, between the parent's rounds and the
terminal rule, exact ranking) must complete via the parent's recomputation
of the lost shard, with answers bit-identical to the all-serial run — and
create no ``/dev/shm`` segment (enforced suite-wide by the autouse
``shm_leak_audit`` fixture).  Hung and silenced workers recover through
``round_timeout``; merely slow workers must survive.
"""

from __future__ import annotations

import logging

import pytest

from repro.search.engine import all_pairs_similarity
from repro.search.executor import WorkerFailure
from repro.testing import faults

from .conftest import planted_collection

# Every seam a pooled ``query_many`` passes: the fork, the end of the parent's
# rounds and the exact scoring of the pairs they leave undecided.
EVENTS = ["pool_start", "serving_estimates", "serving_exact"]
# ``rank_by="estimate"`` scores nothing exactly, so it never reaches ``serving_exact``.
ESTIMATE_EVENTS = ["pool_start", "serving_estimates"]


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("n_workers", [2, 4])
@pytest.mark.parametrize("victim", ["first", "last"])
def test_kill_one_worker_query_many_bit_identical(
    serving_index, query_batch, serial_answers, event, n_workers, victim
):
    worker = 0 if victim == "first" else n_workers - 1
    with faults.inject() as plan:
        plan.kill_worker(worker, event=event)
        answers = serving_index.query_many(
            query_batch, threshold=0.55, n_workers=n_workers
        )
    assert ("kill", worker) in plan.fired
    assert answers == serial_answers["query"]


@pytest.mark.parametrize("event", ESTIMATE_EVENTS)
@pytest.mark.parametrize("n_workers", [2, 4])
def test_kill_one_worker_top_k_estimate_bit_identical(
    serving_index, query_batch, serial_answers, event, n_workers
):
    with faults.inject() as plan:
        plan.kill_worker(0, event=event)
        ranked = serving_index.top_k_many(
            query_batch, k=5, floor_threshold=0.2, rank_by="estimate", n_workers=n_workers
        )
    assert ("kill", 0) in plan.fired
    assert ranked == serial_answers["topk_estimate"]


# An exactly ranked top-k runs no BayesLSH rounds, so it never reaches ``serving_estimates``.
@pytest.mark.parametrize("event", ["pool_start", "serving_exact"])
def test_kill_one_worker_top_k_exact_bit_identical(
    serving_index, query_batch, serial_answers, event
):
    with faults.inject() as plan:
        plan.kill_worker(1, event=event)
        ranked = serving_index.top_k_many(
            query_batch, k=5, floor_threshold=0.2, n_workers=4
        )
    assert ("kill", 1) in plan.fired
    assert ranked == serial_answers["topk_exact"]


def test_kill_every_worker_falls_back_fully_serial(
    serving_index, query_batch, serial_answers
):
    """Losing the whole pool degrades to the plain serial path, bit-identically."""
    with faults.inject() as plan:
        plan.kill_worker(0, event="serving_exact")
        plan.kill_worker(1, event="serving_exact")
        answers = serving_index.query_many(query_batch, threshold=0.55, n_workers=2)
    assert ("kill", 0) in plan.fired and ("kill", 1) in plan.fired
    assert answers == serial_answers["query"]


@pytest.mark.parametrize("event", EVENTS)
def test_hung_worker_recovers_via_round_timeout(
    serving_index, query_batch, serial_answers, event
):
    """A SIGSTOPped worker (alive, silent) is declared hung and recovered."""
    with faults.inject() as plan:
        plan.hang_worker(1, event=event)
        answers = serving_index.query_many(
            query_batch, threshold=0.55, n_workers=2, round_timeout=0.5
        )
    assert ("hang", 1) in plan.fired
    assert answers == serial_answers["query"]


@pytest.mark.parametrize("tag", ["batch", "exact"])
def test_dropped_request_recovers_via_round_timeout(
    serving_index, query_batch, serial_answers, tag
):
    """A swallowed parent→worker batch hand-off or exact request looks like
    a hang; the deadline recovers it."""
    with faults.inject() as plan:
        plan.drop_messages(1, tag=tag)
        answers = serving_index.query_many(
            query_batch, threshold=0.55, n_workers=2, round_timeout=0.5
        )
    assert ("drop", tag) in plan.fired
    assert answers == serial_answers["query"]


def test_slow_worker_is_not_killed(serving_index, query_batch, serial_answers, caplog):
    """A worker sleeping well under the deadline must not be retired."""
    with caplog.at_level(logging.WARNING, logger="repro.search.executor"):
        with faults.inject() as plan:
            plan.delay_worker(1, 0.3, event="serving_exact")
            answers = serving_index.query_many(
                query_batch, threshold=0.55, n_workers=2, round_timeout=30.0
            )
    assert any(fired[0] == "delay" for fired in plan.fired)
    assert answers == serial_answers["query"]
    assert not caplog.records, "a merely slow worker was treated as failed"


def _serving_call(serving_index, query_batch) -> None:
    serving_index.query_many(query_batch, threshold=0.55, n_workers=2)


def _allpairs_call(serving_index, query_batch) -> None:
    all_pairs_similarity(
        planted_collection(47, n=70),
        0.5,
        method="ap_bayeslsh",
        seed=7,
        block_size=64,
        n_workers=2,
    )


@pytest.mark.parametrize(
    "event,tag,call",
    [("serving_exact", "exact", _serving_call), ("pool_start", "exact", _allpairs_call)],
    ids=["serving", "allpairs"],
)
def test_recovery_is_logged_with_worker_tag_and_fallback(
    serving_index, query_batch, caplog, event, tag, call
):
    """Worker loss surfaces as a warning naming the worker, the task and the
    recovery."""
    with caplog.at_level(logging.WARNING, logger="repro.search.executor"):
        with faults.inject() as plan:
            plan.kill_worker(1, event=event)
            call(serving_index, query_batch)
    assert ("kill", 1) in plan.fired
    messages = [record.getMessage() for record in caplog.records]
    assert any(
        "worker 1" in message and "serially" in message and f"'{tag}'" in message
        for message in messages
    )


def test_worker_failure_message_names_worker_and_tag():
    """The typed error carries worker ids and the task tag."""
    failure = WorkerFailure({1: "died without replying (exit code -9)"}, {0: "reply"}, "exact")
    message = str(failure)
    assert "worker(s) [1]" in message
    assert "'exact'" in message
    assert "exit code -9" in message
    assert failure.failed == {1: "died without replying (exit code -9)"}
    assert failure.replies == {0: "reply"}
