"""Worker-loss recovery in the serving pool: bit-identity at every seam.

The acceptance property: SIGKILLing any one worker at every stage of
``query_many``/``top_k_many`` (probing, the first count of the batch, each
round a count covers, between the rounds and the terminal rule, exact
ranking) must complete via the parent's recount of the lost shard, with
answers bit-identical to the all-serial run — and leave no ``/dev/shm``
segment behind (enforced suite-wide by the autouse ``shm_leak_audit``
fixture).  Hung and silenced workers recover through ``round_timeout``;
merely slow workers must survive.
"""

from __future__ import annotations

import logging

import pytest

from repro.search.engine import all_pairs_similarity
from repro.search.executor import WorkerFailure
from repro.testing import faults

from .conftest import planted_collection

EVENTS = ["serving_probe", "serving_verify", "serving_round", "serving_estimates"]


def _kill_plan(plan, event: str, victim: int) -> None:
    round_index = 0 if event == "serving_round" else None
    plan.kill_worker(victim, event=event, round_index=round_index)


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("n_workers", [2, 4])
@pytest.mark.parametrize("victim", ["first", "last"])
def test_kill_one_worker_query_many_bit_identical(
    serving_index, query_batch, serial_answers, event, n_workers, victim
):
    worker = 0 if victim == "first" else n_workers - 1
    with faults.inject() as plan:
        _kill_plan(plan, event, worker)
        answers = serving_index.query_many(
            query_batch, threshold=0.55, n_workers=n_workers
        )
    assert ("kill", worker) in plan.fired
    assert answers == serial_answers["query"]


@pytest.mark.parametrize("event", EVENTS)
@pytest.mark.parametrize("n_workers", [2, 4])
def test_kill_one_worker_top_k_estimate_bit_identical(
    serving_index, query_batch, serial_answers, event, n_workers
):
    with faults.inject() as plan:
        _kill_plan(plan, event, 0)
        ranked = serving_index.top_k_many(
            query_batch, k=5, floor_threshold=0.2, rank_by="estimate", n_workers=n_workers
        )
    assert ("kill", 0) in plan.fired
    assert ranked == serial_answers["topk_estimate"]


@pytest.mark.parametrize("event", ["serving_probe", "serving_exact"])
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


def test_kill_at_a_later_round_bit_identical(serving_index, query_batch, serial_answers):
    """A mid-protocol loss (round 1, after state built up) still recovers."""
    with faults.inject() as plan:
        plan.kill_worker(0, event="serving_round", round_index=1)
        answers = serving_index.query_many(query_batch, threshold=0.55, n_workers=2)
    assert answers == serial_answers["query"]
    # With this corpus several pairs survive round 0, so round 1 happens and
    # the fault really fired; guard against the test silently weakening.
    assert ("kill", 0) in plan.fired


def test_kill_every_worker_falls_back_fully_serial(
    serving_index, query_batch, serial_answers
):
    """Losing the whole pool degrades to the plain serial path, bit-identically."""
    with faults.inject() as plan:
        plan.kill_worker(0, event="serving_verify")
        plan.kill_worker(1, event="serving_verify")
        answers = serving_index.query_many(query_batch, threshold=0.55, n_workers=2)
    assert ("kill", 0) in plan.fired and ("kill", 1) in plan.fired
    assert answers == serial_answers["query"]


def test_hung_worker_recovers_via_round_timeout(
    serving_index, query_batch, serial_answers
):
    """A SIGSTOPped worker (alive, silent) is declared hung and recovered."""
    with faults.inject() as plan:
        plan.hang_worker(1, event="serving_round", round_index=0)
        answers = serving_index.query_many(
            query_batch, threshold=0.55, n_workers=2, round_timeout=3.0
        )
    assert ("hang", 1) in plan.fired
    assert answers == serial_answers["query"]


def test_dropped_round_message_recovers_via_round_timeout(
    serving_index, query_batch, serial_answers
):
    """A swallowed parent→worker count request looks like a hang; the deadline
    recovers it."""
    with faults.inject() as plan:
        plan.drop_messages(1, tag="count")
        answers = serving_index.query_many(
            query_batch, threshold=0.55, n_workers=2, round_timeout=3.0
        )
    assert ("drop", "count") in plan.fired
    assert answers == serial_answers["query"]


def test_slow_worker_is_not_killed(serving_index, query_batch, serial_answers, caplog):
    """A worker sleeping well under the deadline must not be retired."""
    with caplog.at_level(logging.WARNING, logger="repro.search.executor"):
        with faults.inject() as plan:
            plan.delay_worker(1, 0.3, event="serving_round", round_index=0)
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
    "event,round_index,call",
    [("serving_round", 0, _serving_call), ("allpairs_round", 1, _allpairs_call)],
    ids=["serving", "allpairs"],
)
def test_recovery_is_logged_with_worker_tag_and_fallback(
    serving_index, query_batch, caplog, event, round_index, call
):
    """Worker loss surfaces as a warning naming the worker, the task, the round
    and the recovery."""
    with caplog.at_level(logging.WARNING, logger="repro.search.executor"):
        with faults.inject() as plan:
            plan.kill_worker(1, event=event, round_index=round_index)
            call(serving_index, query_batch)
    assert ("kill", 1) in plan.fired
    messages = [record.getMessage() for record in caplog.records]
    assert any(
        "worker 1" in message
        and "serially" in message
        and "'count'" in message
        and f"round {round_index}" in message
        for message in messages
    )


def test_worker_failure_message_names_worker_tag_and_round():
    """The typed error carries worker ids, the task tag and the round."""
    failure = WorkerFailure(
        {1: "died without replying (exit code -9)"}, {0: "reply"}, "round", 2
    )
    message = str(failure)
    assert "worker(s) [1]" in message
    assert "'round'" in message
    assert "round 2" in message
    assert "exit code -9" in message
    assert failure.failed == {1: "died without replying (exit code -9)"}
    assert failure.replies == {0: "reply"}
