"""The shared round engine against the scalar per-pair loop.

:mod:`repro.core.rounds` is the one place every execution path (the serial
verifier, all-pairs workers, serving workers, the serial serving path)
makes its prune/emit decisions, so it is checked here directly: on random
agreement streams the array-at-a-time :class:`PairState` must reach, pair by
pair, exactly the decisions, ``(m, n)`` counts, values, trace and comparison
counter of the paper's pair-at-a-time loop
(:func:`tests.reference.bayeslsh_pair_reference`, scalar posterior queries,
no tables) in each of its three configurations: Algorithm 1, BayesLSH-Lite
and the hybrid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bayeslsh import BayesLSH
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import make_posterior
from repro.core.rounds import (
    ACTIVE,
    EMITTED,
    ESTIMATE_BUDGET,
    PRUNED,
    PairState,
    RoundTables,
    run_rounds,
)
from repro.hashing.base import get_hash_family
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection

from tests import reference

_SETTINGS = settings(max_examples=40, deadline=None)
_K = 16


_CONFIGURATIONS = ["algorithm1", "lite", "hybrid"]
_STATUS = {"pruned": PRUNED, "concentrated": EMITTED, "exhausted": ACTIVE}


def _tables(measure: str, configuration: str, budget: int) -> RoundTables:
    posterior = make_posterior(measure)
    if configuration == "lite":
        params = BayesLSHLiteParams(threshold=0.6, epsilon=0.03, h=budget, k=_K)
    else:
        params = BayesLSHParams(
            threshold=0.6,
            epsilon=0.03,
            delta=0.05,
            gamma=0.03,
            k=_K,
            max_hashes=budget,
            on_budget="estimate" if configuration == "algorithm1" else "exact",
        )
    return RoundTables(posterior, params)


def _agreement_streams(seed: int, n_pairs: int, n_rounds: int) -> np.ndarray:
    """Per-pair, per-round agreement counts for pairs of assorted similarity.

    Collision rates span 0.3 – 1.0, so a batch mixes pairs pruned in the
    first round, pairs that concentrate midway and pairs that exhaust the
    budget undecided.
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.3, 1.0, size=n_pairs)
    return rng.binomial(_K, rates[:, None], size=(n_pairs, n_rounds)).astype(np.int64)


def _assert_matches_scalar(tables: RoundTables, state: PairState, streams: np.ndarray) -> None:
    # an exact similarity above the threshold, so an exhausted pair's value
    # under "exact" is recognisably not an estimate
    expected = [
        reference.bayeslsh_pair_reference(
            tables.posterior, tables.params, tables.budget, stream, exact_similarity=2.0
        )
        for stream in streams
    ]
    status = np.array([_STATUS[entry[0]] for entry in expected], dtype=np.int8)
    matches = np.array([entry[1] for entry in expected], dtype=np.int64)
    hashes = np.array([entry[2] for entry in expected], dtype=np.int64)
    np.testing.assert_array_equal(state.status, status)
    np.testing.assert_array_equal(state.matches, matches)
    np.testing.assert_array_equal(state.hashes_seen, hashes)
    np.testing.assert_array_equal(state.active, np.flatnonzero(status == ACTIVE))
    assert state.n_pruned == int(np.sum(status == PRUNED))
    assert state.hash_comparisons == int(hashes.sum())
    # Trace: pairs not pruned after each round, while any pair was active.
    k = tables.params.k
    trace = []
    for round_index in range(int(hashes.max()) // k if len(hashes) else 0):
        n_now = (round_index + 1) * k
        trace.append((n_now, int(np.sum((status != PRUNED) | (hashes > n_now)))))
    assert state.trace == trace
    # the terminal rule: the engine leaves exactly the exhausted pairs of an
    # "exact" run for its caller to score
    values, exhausted = state.outcome(tables.on_budget)
    np.testing.assert_array_equal(exhausted, status == ACTIVE)
    if tables.on_budget == "exact":
        assert np.all(np.isnan(values[exhausted]))
        values[exhausted] = 2.0
    np.testing.assert_array_equal(values, np.array([entry[3] for entry in expected]))


def _run_on_streams(tables: RoundTables, streams: np.ndarray) -> PairState:
    return run_rounds(
        tables,
        len(streams),
        lambda active, n_prev, n_now: streams[active, n_prev // tables.params.k],
    )


@_SETTINGS
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["jaccard", "cosine"]),
    st.sampled_from(_CONFIGURATIONS),
    st.sampled_from([32, 64, 160]),
)
def test_pair_state_matches_scalar_algorithm(seed, measure, configuration, budget):
    """All three configurations, including pairs that exhaust the hash budget."""
    tables = _tables(measure, configuration, budget)
    streams = _agreement_streams(seed, 40, budget // _K)
    state = _run_on_streams(tables, streams)
    _assert_matches_scalar(tables, state, streams)
    if configuration == "lite":
        assert tables.concentration is None
        assert not np.any(state.status == EMITTED)


def test_some_pairs_exhaust_the_budget():
    """Guard: the budget-exhaustion case above is really exercised."""
    tables = _tables("cosine", "hybrid", budget=32)
    streams = _agreement_streams(3, 200, 2)
    state = _run_on_streams(tables, streams)
    assert len(state.active), "no pair reached max_hashes undecided"
    assert np.all(state.hashes_seen[state.active] == 32)


@pytest.mark.parametrize("configuration", _CONFIGURATIONS)
def test_zero_pairs(configuration):
    tables = _tables("jaccard", configuration, 64)
    calls = []
    state = run_rounds(tables, 0, lambda *args: calls.append(args))
    assert calls == [], "no hashes may be requested for an empty block"
    assert state.trace == [] and state.hash_comparisons == 0 and state.n_pruned == 0
    values, exhausted = state.outcome(tables.on_budget)
    assert values.shape == (0,) and exhausted.shape == (0,)
    assert values.dtype == np.float64 and exhausted.dtype == bool


def test_a_per_call_budget_overrides_the_tables_own():
    """One set of tables serves both terminal rules (the serving index's use)."""
    tables = RoundTables(
        make_posterior("cosine"), BayesLSHParams(threshold=0.6, k=_K), depth=ESTIMATE_BUDGET
    )
    assert tables.budget == 256 and tables.budget_for("estimate") == ESTIMATE_BUDGET
    assert tables.min_matches.checkpoints[-1] == ESTIMATE_BUDGET
    streams = _agreement_streams(11, 30, 20)
    state = run_rounds(
        tables, 30, lambda active, n_prev, n_now: streams[active, n_prev // _K], budget=20 * _K
    )
    assert state.hashes_seen.max() > tables.budget
    assert state.hashes_seen.max() <= 20 * _K


@_SETTINGS
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_super_block_replay_equals_one_round_at_a_time(seed, block_rounds):
    """Replaying cached multi-round counts, as ``BayesLSH.verify`` does."""
    tables = _tables("cosine", "algorithm1", budget=160)
    n_rounds = 160 // _K
    streams = _agreement_streams(seed, 60, n_rounds)
    expected = _run_on_streams(tables, streams)

    state = PairState(tables, len(streams))
    round_index = 0
    while round_index < n_rounds and len(state.active):
        block = min(block_rounds, n_rounds - round_index)
        cached = streams[state.active, round_index : round_index + block]
        local = np.arange(len(cached))
        for s in range(block):
            local = local[state.advance(cached[local, s], (round_index + s + 1) * _K)]
            if len(local) == 0:
                break
        round_index += s + 1

    for name in ("status", "matches", "hashes_seen", "active"):
        np.testing.assert_array_equal(getattr(state, name), getattr(expected, name))
    assert state.trace == expected.trace
    assert state.hash_comparisons == expected.hash_comparisons
    assert state.n_pruned == expected.n_pruned


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_verify_super_blocks_equal_round_at_a_time_on_real_stores(measure):
    """``BayesLSH.verify`` (super-blocked) == the engine fed one round at a time."""
    rng = np.random.default_rng(5)
    dense = rng.random((40, 60)) * (rng.random((40, 60)) < 0.3)
    dense[:10] = dense[20:30]
    dense[:10][rng.random((10, 60)) < 0.1] = 0.0
    resolved = get_measure(measure)
    prepared = resolved.prepare(VectorCollection.from_dense(dense))
    left, right = np.triu_indices(40, k=1)
    params = BayesLSHParams(threshold=0.5, k=32, max_hashes=512, on_budget="estimate")
    posterior = make_posterior(measure)

    family = get_hash_family(resolved.lsh_family, prepared, seed=3)
    output = BayesLSH(family, posterior, params).verify(left, right)

    family = get_hash_family(resolved.lsh_family, prepared, seed=3)
    state = run_rounds(
        RoundTables(posterior, params),
        len(left),
        lambda active, n_prev, n_now: family.signatures(n_now).count_matches_rounds(
            left[active], right[active], n_prev, n_now, n_now - n_prev
        )[:, 0],
    )
    values, exhausted = state.outcome("estimate")
    mask = ~np.isnan(values)
    np.testing.assert_array_equal(output.left, left[mask])
    np.testing.assert_array_equal(output.right, right[mask])
    np.testing.assert_array_equal(output.estimates, values[mask])
    assert output.n_unconcentrated == int(exhausted.sum())
    assert output.trace == state.trace
    assert output.hash_comparisons == state.hash_comparisons
    assert output.n_pruned == state.n_pruned
