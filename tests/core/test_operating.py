"""The operating characteristic against its definition and against simulation.

:func:`repro.core.operating.operating_characteristic` is a forward recursion
over the engine's own decision tables; here it is checked to be a
probability distribution, to behave as a pruning curve must, and to agree
with a Monte-Carlo of the paper's scalar pair-at-a-time loop
(:func:`repro.reference.bayeslsh_pair_reference`, which consults the
posterior directly and knows nothing of tables) on Bernoulli(r) hash streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.operating import operating_characteristic
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import GridCollisionPosterior, make_posterior
from repro.core.rounds import RoundTables

# derandomised: the Monte-Carlo tolerance is statistical, CI must not be
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

_POSTERIORS = {
    "jaccard": lambda: make_posterior("jaccard"),
    "cosine": lambda: make_posterior("cosine"),
    "grid": lambda: GridCollisionPosterior(lambda r: r**3, grid_size=513),
}
_params = st.fixed_dictionaries(
    {
        "threshold": st.sampled_from([0.4, 0.6, 0.8]),
        "epsilon": st.sampled_from([0.01, 0.03, 0.1]),
        "k": st.sampled_from([8, 16]),
        "rounds": st.integers(min_value=1, max_value=6),
        "on_budget": st.sampled_from(["estimate", "exact"]),
        "concentrate": st.booleans(),
    }
)


def _tables(posterior_name: str, drawn: dict) -> RoundTables:
    budget = drawn["k"] * drawn["rounds"]
    if drawn["concentrate"]:
        params = BayesLSHParams(
            drawn["threshold"],
            epsilon=drawn["epsilon"],
            delta=0.1,  # loose enough to concentrate within ~100 hashes
            k=drawn["k"],
            max_hashes=budget,
            on_budget=drawn["on_budget"],
        )
    else:
        params = BayesLSHLiteParams(drawn["threshold"], drawn["epsilon"], h=budget, k=drawn["k"])
    return RoundTables(_POSTERIORS[posterior_name](), params)


class _Memoised:
    """A posterior whose scalar queries are cached by ``(m, n)`` (they are pure)."""

    def __init__(self, posterior):
        self._posterior, self._cache = posterior, {}

    def __getattr__(self, name):
        method = getattr(self._posterior, name)

        def cached(*args):
            key = (name, *args)
            if key not in self._cache:
                self._cache[key] = method(*args)
            return self._cache[key]

        return cached


@_SETTINGS
@given(st.sampled_from(sorted(_POSTERIORS)), _params)
def test_masses_sum_to_one_and_pruning_falls_with_similarity(posterior_name, drawn):
    tables = _tables(posterior_name, drawn)
    similarities = np.linspace(0.02, 0.98, 49)
    oc = operating_characteristic(tables, similarities)
    np.testing.assert_allclose(oc.p_pruned + oc.p_concentrated + oc.p_exhausted, 1.0, atol=1e-12)
    np.testing.assert_allclose(oc.p_pruned_by_round.sum(axis=1), oc.p_pruned, atol=1e-15)
    assert oc.p_pruned_by_round.shape == (49, drawn["rounds"])
    assert np.all(np.diff(oc.p_pruned) <= 1e-12), "a more similar pair is pruned more often"
    assert np.all((oc.p_delta_miss >= 0) & (oc.p_delta_miss <= 1 - oc.p_pruned + 1e-12))
    assert np.all(oc.expected_hashes >= drawn["k"] - 1e-9)
    assert np.all(oc.expected_hashes <= tables.budget + 1e-9)
    if not drawn["concentrate"]:
        assert not oc.p_concentrated.any()
    if tables.on_budget == "exact":  # an exhausted pair is scored exactly: no estimate error
        assert np.all(oc.p_delta_miss <= oc.p_concentrated + 1e-12)


@_SETTINGS
@given(
    st.sampled_from(sorted(_POSTERIORS)),
    _params,
    st.floats(min_value=-0.25, max_value=0.3),
    st.integers(min_value=0, max_value=2**16),
)
def test_agrees_with_monte_carlo_of_the_scalar_loop(posterior_name, drawn, offset, seed):
    tables = _tables(posterior_name, drawn)
    params, k = tables.params, tables.params.k
    similarity = float(np.clip(params.threshold + offset, 0.05, 0.97))
    oc = operating_characteristic(tables, [similarity])
    collision = float(tables.posterior.collision_probability(similarity))
    n_streams = 600
    streams = np.random.default_rng(seed).binomial(k, collision, size=(n_streams, tables.budget // k))
    posterior = _Memoised(tables.posterior)
    counts = {"pruned": 0, "concentrated": 0, "exhausted": 0, "miss": 0, "hashes": 0}
    for stream in streams:
        outcome, _, n, value = reference.bayeslsh_pair_reference(
            posterior, params, tables.budget, stream, exact_similarity=similarity
        )
        counts[outcome] += 1
        counts["hashes"] += n
        counts["miss"] += bool(abs(value - similarity) > params.delta)  # NaN compares False
    for name, probability in (
        ("pruned", oc.p_pruned[0]),
        ("concentrated", oc.p_concentrated[0]),
        ("exhausted", oc.p_exhausted[0]),
        ("miss", oc.p_delta_miss[0]),
    ):
        probability = float(np.clip(probability, 0.0, 1.0))  # 1 + 2e-16 happens
        tolerance = 4.5 * np.sqrt(probability * (1 - probability) * n_streams) + 1.0
        assert abs(counts[name] - probability * n_streams) <= tolerance, (name, counts, oc)
    # n is bounded by the budget, so its mean is within 4.5 worst-case standard errors
    spread = 4.5 * tables.budget / (2 * np.sqrt(n_streams)) + 1e-9
    assert abs(counts["hashes"] / n_streams - oc.expected_hashes[0]) <= spread


def test_default_budget_and_rule_come_from_the_tables():
    tables = RoundTables(make_posterior("cosine"), BayesLSHParams(0.5))
    own = operating_characteristic(tables, [0.5, 0.7])
    assert own.checkpoints.tolist() == list(range(32, 257, 32))
    as_algorithm1 = operating_characteristic(tables, [0.5, 0.7], on_budget="estimate")
    assert as_algorithm1.checkpoints[-1] == 2048
    # the first 256 hashes are the same chain under either rule
    np.testing.assert_array_equal(
        as_algorithm1.p_pruned_by_round[:, :8], own.p_pruned_by_round
    )
    assert np.all(as_algorithm1.p_pruned > own.p_pruned), "more looks, more false prunes"
    assert np.all(as_algorithm1.p_delta_miss > own.p_delta_miss)


@pytest.mark.parametrize("threshold, at_t, at_t_plus_delta", [(0.5, 0.195, 0.046), (0.7, 0.213, 0.042)])
def test_reproduces_the_probe_behind_the_roadmap(threshold, at_t, at_t_plus_delta):
    """The re-anchor probe's numbers for Algorithm 1, cosine, paper defaults."""
    tables = RoundTables(
        make_posterior("cosine"), BayesLSHParams(threshold, on_budget="estimate")
    )
    oc = operating_characteristic(tables, [threshold, threshold + 0.05])
    assert oc.p_pruned[0] == pytest.approx(at_t, abs=2e-3)
    assert oc.p_pruned[1] == pytest.approx(at_t_plus_delta, abs=2e-3)
