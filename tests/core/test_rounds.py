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

from unittest import mock

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
    replay_rounds,
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


class _MemoisedPosterior:
    """A posterior whose scalar queries are each computed once.

    The reference loop still asks the posterior per ``(m, n)``; remembering
    the answers only lets it run over thousands of pairs in a test.
    """

    def __init__(self, posterior):
        self._posterior = posterior
        self._answers: dict[tuple, float] = {}

    def __getattr__(self, name):
        query = getattr(self._posterior, name)

        def memoised(*args):
            key = (name, *args)
            if key not in self._answers:
                self._answers[key] = query(*args)
            return self._answers[key]

        return memoised


def _assert_matches_scalar(tables: RoundTables, state: PairState, streams: np.ndarray) -> None:
    # an exact similarity above the threshold, so an exhausted pair's value
    # under "exact" is recognisably not an estimate
    posterior = _MemoisedPosterior(tables.posterior)
    expected = [
        reference.bayeslsh_pair_reference(
            posterior, tables.params, tables.budget, stream, exact_similarity=2.0
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


def _streams_pruning_first_round(
    tables: RoundTables, seed: int, n_pairs: int, n_rounds: int, share: float
) -> np.ndarray:
    """Agreement streams whose first round prunes ``share`` of the pairs, exactly.

    The first round's count is drawn below ``minMatches(k)`` for that share
    of the pairs and at or above it for the rest; later rounds are those of
    :func:`_agreement_streams`.
    """
    rng = np.random.default_rng(seed + 1)
    streams = _agreement_streams(seed, n_pairs, n_rounds)
    floor = tables.min_matches.min_matches(_K)
    pruned = rng.permutation(n_pairs) < round(share * n_pairs)
    streams[pruned, 0] = rng.integers(0, floor, size=int(pruned.sum()))
    streams[~pruned, 0] = rng.integers(floor, _K + 1, size=int((~pruned).sum()))
    return streams


def _advance_returning_positions(advance):
    """``PairState.advance``, checked to return ascending positions into the previous ``active``."""

    def checked(self, new_matches, n_now):
        before = self.active.copy()
        kept = advance(self, new_matches, n_now)
        assert kept.dtype.kind == "i", kept.dtype
        assert np.all(np.diff(kept) > 0), "positions are not strictly ascending"
        assert len(kept) == 0 or (kept[0] >= 0 and kept[-1] < len(before))
        np.testing.assert_array_equal(before[kept], self.active)
        return kept

    return checked


@settings(max_examples=24, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2_000, max_value=5_000),
    st.sampled_from(["jaccard", "cosine"]),
    st.sampled_from(_CONFIGURATIONS),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.integers(min_value=1, max_value=4),
)
def test_compacting_engine_matches_scalar_at_scale(
    seed, n_pairs, measure, configuration, share, block_rounds
):
    """Thousands of pairs, a first round that prunes none, some, most or all.

    Run one round at a time (``block_rounds == 1``) or replayed in
    super-blocks of up to ``block_rounds`` rounds; every advance must hand
    back ascending positions into the active set it was given.
    """
    tables = _tables(measure, configuration, 160)
    n_rounds = 160 // _K
    streams = _streams_pruning_first_round(tables, seed, n_pairs, n_rounds, share)

    def count_block(active, n_prev, remaining):
        first = n_prev // _K
        return streams[active, first : first + min(block_rounds, remaining)]

    checked = _advance_returning_positions(PairState.advance)
    with mock.patch.object(PairState, "advance", checked):
        state = replay_rounds(tables, n_pairs, count_block)
    _assert_matches_scalar(tables, state, streams)
    assert state.trace[0][1] == n_pairs - round(share * n_pairs)


def _one_round_tables(configuration: str = "hybrid") -> RoundTables:
    return _tables("cosine", configuration, 64)


@pytest.mark.parametrize(
    "extra_rows, n_columns, dtype, message",
    [
        (0, 0, np.int64, r"shape \(5, 0\)"),
        (0, 5, np.int64, r"1 <= r <= 4"),  # a 64-hash budget is 4 rounds of 16
        (-1, 1, np.int64, r"expected \(5, r\)"),
        (1, 1, np.int64, r"expected \(5, r\)"),
        (0, 1, np.float64, "dtype float64"),
    ],
    ids=["no-columns", "past-the-budget", "a-row-short", "a-row-over", "fractional"],
)
def test_a_malformed_block_is_refused(extra_rows, n_columns, dtype, message):
    def block(active, n_prev, rounds_left):
        return np.zeros((len(active) + extra_rows, n_columns), dtype=dtype)

    with pytest.raises(ValueError, match=message):
        replay_rounds(_one_round_tables(), 5, block)


@pytest.mark.parametrize("count", [_K + 24, -1])
def test_counts_outside_a_round_are_refused_even_by_lite(count):
    """Lite has no concentration test to trip over ``m > n``; the driver refuses it."""
    tables = _one_round_tables("lite")
    assert tables.concentration is None
    with pytest.raises(ValueError, match=f"holds {count} agreements"):
        run_rounds(tables, 5, lambda active, n_prev, n_now: np.full(len(active), count))


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
