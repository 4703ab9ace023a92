"""The operating characteristic of a set of BayesLSH decision tables.

The paper's guarantees are statements per look and under the prior: a pair
is pruned at one checkpoint only if its posterior probability of being a
true positive is below ``epsilon`` *there*, and an estimate is emitted at the
first checkpoint where it is concentrated.  What an operator experiences —
the chance that a pair of true similarity ``s`` is lost over all the looks it
gets, or comes back with an estimate further than ``delta`` from ``s`` — is a
property of the tables, the hash budget and the terminal rule, and it can be
computed exactly instead of sampled: the number of agreements ``m`` after
``n`` hashes of such a pair is a sum of independent Bernoulli(``r(s)``)
draws, every decision depends on ``(m, n)`` only, so the rounds are a Markov
chain over at most ``budget + 1`` counts with pruned / concentrated mass
absorbed at each of the ``budget / k`` checkpoints.
:func:`operating_characteristic` runs that forward recursion for any number
of similarities in lockstep, on the very tables the engine decides with.

The model's one assumption is that the hashes compared are independent of
how the pair became a candidate (true for AllPairs candidates; the LSH
pipelines re-use their banding hashes in the first rounds, which favours
survival — see ``docs/reproduction.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from repro.core.rounds import RoundTables

__all__ = ["OperatingCharacteristic", "operating_characteristic"]


@dataclass(frozen=True)
class OperatingCharacteristic:
    """What the rounds do to a pair of each similarity, as probabilities.

    Every array has one entry (or row) per entry of ``similarities``, and
    ``p_pruned + p_concentrated + p_exhausted == 1``.

    Attributes
    ----------
    similarities:
        The true similarities the characteristic was computed for.
    checkpoints:
        The ``n`` at which decisions are made: ``k, 2k, ..., budget``.
    p_pruned, p_pruned_by_round:
        Probability that the pruning test eliminates the pair, in total and
        at each checkpoint — for a pair above the threshold, a false
        negative.
    p_concentrated:
        Probability that the pair is emitted with a concentrated estimate.
    p_exhausted:
        Probability that the pair is still undecided at the budget.  Under
        ``on_budget="exact"`` it is then scored exactly: no estimate error,
        and it is output precisely when it is above the threshold.
    p_delta_miss:
        Probability that the pair is output with an estimate further than
        ``delta`` from its true similarity (a joint probability: divide by
        the estimated share of the output for the rate among estimates).
    expected_hashes:
        Expected number of hashes compared for the pair.
    """

    similarities: np.ndarray
    checkpoints: np.ndarray
    p_pruned: np.ndarray
    p_pruned_by_round: np.ndarray
    p_concentrated: np.ndarray
    p_exhausted: np.ndarray
    p_delta_miss: np.ndarray
    expected_hashes: np.ndarray


def operating_characteristic(
    tables: RoundTables,
    similarities,
    budget: int | None = None,
    on_budget: str | None = None,
) -> OperatingCharacteristic:
    """Exact outcome probabilities of the rounds for pairs of given similarity.

    ``tables`` are the engine's own (their ``minMatches`` and concentration
    rows are used unchanged); ``budget`` and ``on_budget`` default to the
    tables' and select the terminal rule as they do for the engine.
    """
    on_budget = tables.on_budget if on_budget is None else on_budget
    budget = tables.budget_for(on_budget) if budget is None else int(budget)
    params, posterior = tables.params, tables.posterior
    k = params.k
    similarities = np.atleast_1d(np.asarray(similarities, dtype=np.float64))
    collision = np.clip(posterior.collision_probability(similarities), 0.0, 1.0)
    # agreements gained in one round: (similarity, j) -> Pr[j of k hashes agree]
    step = binom.pmf(np.arange(k + 1)[None, :], k, collision[:, None])

    n_rounds = budget // k
    n_similarities = len(similarities)
    # dist[i, m]: probability that pair i is still undecided with m agreements
    dist = np.zeros((n_similarities, n_rounds * k + 1))
    dist[:, 0] = 1.0
    p_pruned_by_round = np.zeros((n_similarities, n_rounds))
    p_concentrated = np.zeros(n_similarities)
    p_delta_miss = np.zeros(n_similarities)
    expected_hashes = np.zeros(n_similarities)

    def miss_mass(mass: np.ndarray, matches: np.ndarray, n: int) -> np.ndarray:
        """Mass at ``matches`` whose MAP estimate is off by more than delta."""
        estimates = posterior.map_estimate_many(matches, np.full(len(matches), n))
        off = np.abs(estimates[None, :] - similarities[:, None]) > params.delta
        return np.sum(mass * off, axis=1)

    for round_index in range(n_rounds):
        n = (round_index + 1) * k
        expected_hashes += k * dist.sum(axis=1)
        occupied = n - k + 1  # counts 0 .. n - k carry mass before the round
        advanced = np.zeros_like(dist)
        for gained in range(k + 1):
            advanced[:, gained : gained + occupied] += dist[:, :occupied] * step[:, gained, None]
        dist = advanced
        matches = np.arange(n + 1)
        passes = tables.min_matches.passes_many(matches, n)
        p_pruned_by_round[:, round_index] = dist[:, matches[~passes]].sum(axis=1)
        dist[:, matches[~passes]] = 0.0
        if tables.concentration is not None:
            alive = matches[passes]
            emitted = alive[tables.concentration.is_concentrated_many(alive, n)]
            if len(emitted):
                p_concentrated += dist[:, emitted].sum(axis=1)
                p_delta_miss += miss_mass(dist[:, emitted], emitted, n)
                dist[:, emitted] = 0.0

    p_exhausted = dist.sum(axis=1)
    if on_budget == "estimate" and n_rounds:
        # Algorithm 1 emits the unconcentrated estimate of an exhausted pair
        reached = np.flatnonzero(dist.any(axis=0))
        p_delta_miss += miss_mass(dist[:, reached], reached, n_rounds * k)
    return OperatingCharacteristic(
        similarities=similarities,
        checkpoints=np.arange(1, n_rounds + 1) * k,
        p_pruned=p_pruned_by_round.sum(axis=1),
        p_pruned_by_round=p_pruned_by_round,
        p_concentrated=p_concentrated,
        p_exhausted=p_exhausted,
        p_delta_miss=p_delta_miss,
        expected_hashes=expected_hashes,
    )
