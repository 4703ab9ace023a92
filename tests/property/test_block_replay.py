"""The serving path's block replay equals the engine fed one round at a time.

``serial_verify_bayes`` counts, in one segment-routed gather, every round
whose columns both sides have already materialised and replays them through
``repro.core.rounds.replay_rounds``; past that depth it extends lazily, one
round at a time.  The reference here is ``run_rounds`` on a twin index,
counting each round on its own with a one-round ``count_matches_cross`` —
the loop the serving path ran before.  Both must agree on every value, the
exhausted mask, the per-round trace and the comparison count, and must leave
the two indices in the same hash state: no store is extended earlier (or
later) than one round at a time would extend it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.search.executor as executor
from repro.core.rounds import run_rounds
from repro.search.query import QueryIndex

from tests.property.test_query_serving import _hash_state, _random_collection

_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _index(measure: str, k: int, n_segments: int, tombstones: bool, depths) -> QueryIndex:
    corpus = _random_collection(17, n=72)
    bounds = np.linspace(24, 72, n_segments, dtype=int)[1:] if n_segments > 1 else []
    index = QueryIndex(corpus[: 72 if n_segments == 1 else 24], measure=measure,
                       threshold=0.6, k=k, seed=5)
    start = 24
    for stop in bounds:
        index.insert(corpus[start:stop])
        start = stop
    if tombstones:
        index.delete([1, 30, 71])
    for segment, extra in zip(index._segments.segments, depths):
        segment.ensure_hashes(segment.store.n_hashes + extra)
    return index


def _candidates(index: QueryIndex, queries: np.ndarray):
    prepared = index._queries_collection(queries)
    query_rows, family, store = index._hash_queries(prepared)
    positions, rows = index._postings.probe_many(store, query_rows, index._segments)
    keep = ~index._deleted[rows]
    return family, query_rows[positions[keep]], rows[keep]


def _block_replay(index, queries, on_budget):
    """``serial_verify_bayes`` and the ``PairState`` it ran."""
    states = []
    replay = executor.replay_rounds

    def spy(*args, **kwargs):
        states.append(replay(*args, **kwargs))
        return states[-1]

    family, query_rows, rows = _candidates(index, queries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "replay_rounds", spy)
        outcome = executor.serial_verify_bayes(
            index._segments, index._round_tables(), family, query_rows, rows, on_budget
        )
    return outcome, states[0]


def _round_at_a_time(index, queries, on_budget):
    family, query_rows, rows = _candidates(index, queries)
    tables = index._round_tables()
    state = run_rounds(
        tables,
        len(rows),
        lambda active, n_prev, n_now: index._segments.count_matches_cross(
            family.signatures(n_now),
            query_rows[active],
            rows[active],
            n_prev,
            n_now,
            n_now - n_prev,
        )[:, 0],
        tables.budget_for(on_budget),
    )
    return state.outcome(on_budget), state


def _assert_equivalent(measure, k, n_segments, tombstones, depths, on_budget, n_queries):
    queries = _random_collection(23, n=12)[:n_queries]
    queries[: min(3, n_queries)] = _random_collection(17, n=72)[: min(3, n_queries)]
    replayed = _index(measure, k, n_segments, tombstones, depths)
    reference = _index(measure, k, n_segments, tombstones, depths)
    (values, exhausted), state = _block_replay(replayed, queries, on_budget)
    (expected, expected_exhausted), expected_state = _round_at_a_time(reference, queries, on_budget)
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_array_equal(exhausted, expected_exhausted)
    assert state.trace == expected_state.trace
    assert state.hash_comparisons == expected_state.hash_comparisons
    assert state.n_pruned == expected_state.n_pruned
    assert _hash_state(replayed) == _hash_state(reference)
    return state


@_SETTINGS
@given(
    measure=st.sampled_from(["cosine", "jaccard"]),
    k=st.sampled_from([32, 48]),
    n_segments=st.sampled_from([1, 3, 7]),
    tombstones=st.booleans(),
    depths=st.lists(st.sampled_from([0, 0, 256, 1024]), min_size=7, max_size=7),
    on_budget=st.sampled_from(["exact", "estimate"]),
    n_queries=st.sampled_from([1, 12]),
)
def test_block_replay_equals_round_at_a_time(
    measure, k, n_segments, tombstones, depths, on_budget, n_queries
):
    _assert_equivalent(measure, k, n_segments, tombstones, depths, on_budget, n_queries)


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_past_the_materialised_depth_the_rounds_extend_lazily(measure, monkeypatch):
    """Guard: the lazy branch above is really exercised, and only where needed."""
    before = _index(measure, 32, 3, False, [0, 0, 0])
    widths_before = [segment.store.n_hashes for segment in before._segments.segments]
    calls = []
    original = type(before._segments).count_matches_cross

    def recording(self, store, other_rows, rows, start, end, round_width):
        result = original(self, store, other_rows, rows, start, end, round_width)
        calls.append((self, start, result.shape[1]))
        return result

    monkeypatch.setattr(type(before._segments), "count_matches_cross", recording)
    state = _assert_equivalent(measure, 32, 3, False, [0, 0, 0], "estimate", 12)
    # the block replay runs first; the reference then counts on its twin index
    calls = [(start, n_rounds) for owner, start, n_rounds in calls if owner is calls[0][0]]
    assert state.hashes_seen.max() > min(widths_before), "no pair outlived a store"
    # the first block replays every materialised round it may gather at once...
    assert calls[0][0] == 0 and calls[0][1] > 1
    # ...and a block that starts where a store ended is one lazily extended round
    assert {start for start, n_rounds in calls if n_rounds == 1} & set(widths_before)
