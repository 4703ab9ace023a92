"""The round engine shared by every execution path of BayesLSH.

Algorithms 1 and 2 and the hybrid are one small loop per candidate pair:
compare ``k`` more hashes, prune the pair if ``m < minMatches(n)``, emit it
if the posterior is concentrated (unless the parameters turn the test off),
otherwise continue until the hash budget; what a pair still undecided at the
budget reports is the terminal rule, ``on_budget``.  Every decision depends
only on the pair's own ``(m, n)``, which is why the loop can be run
round-synchronously over arrays of pairs and split into blocks with
bit-identical results.  Counting hash agreements is cheap next to moving
signature columns between processes, so the calling process counts them
too; pool workers only probe and score exactly, and never see this state.
This module holds that loop's state, its one decision step and its one
driver, and every verification path — all-pairs and serving, pooled or
not — counts and decides in the calling process through them:

* :class:`RoundTables` builds the decision tables for a posterior and a
  :class:`~repro.core.params.BayesLSHParams` and resolves the hash budget;
* :class:`PairState` holds ``status`` / ``matches`` / ``hashes_seen`` for a
  block of pairs, advances them one round at a time and reports their
  :meth:`~PairState.outcome` under a terminal rule;
* :func:`replay_rounds` is the one driver: it runs a :class:`PairState` to
  completion over blocks of per-round agreement counts, wherever they were
  counted (:func:`run_rounds` for callers that count one round at a time).

``src/repro/reference.py`` keeps the scalar per-pair loop these are tested
against, and :mod:`repro.core.operating` computes what the loop does to a
pair of given similarity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.concentration_cache import ConcentrationCache
from repro.core.min_matches import MinMatchesTable
from repro.core.params import BayesLSHParams
from repro.core.posteriors import PosteriorModel

__all__ = [
    "ACTIVE",
    "EMITTED",
    "ESTIMATE_BUDGET",
    "PRUNED",
    "PairState",
    "RoundTables",
    "replay_rounds",
    "run_rounds",
]

#: per-pair status codes; a pair still ``ACTIVE`` when the rounds end has
#: exhausted the hash budget
ACTIVE, PRUNED, EMITTED = 0, 1, 2

#: default budget under ``on_budget="estimate"``: the paper's LSH-Approx
#: setting for cosine, which is what an exhausted estimate amounts to
ESTIMATE_BUDGET = 2048


class RoundTables:
    """Decision tables of one ``(posterior, params)`` configuration.

    ``minMatches(n)`` and the concentration row at ``n`` do not depend on
    the budget, so one instance serves every terminal rule: ``budget`` /
    ``on_budget`` are the parameters' own, and a caller that runs another
    rule on the same tables (the serving index ranks by estimate beside its
    default) asks :meth:`budget_for` and names the deepest budget it will
    use as ``depth``.  ``concentration`` is ``None`` when the parameters
    turn the test off (BayesLSH-Lite).
    """

    def __init__(self, posterior: PosteriorModel, params: BayesLSHParams, depth: int = 0):
        self.posterior = posterior
        self.params = params
        self.on_budget = params.on_budget
        self.budget = self.budget_for(params.on_budget)
        self.min_matches = MinMatchesTable(
            posterior,
            threshold=params.threshold,
            epsilon=params.epsilon,
            k=params.k,
            max_hashes=max(self.budget, depth),
        )
        self.concentration = (
            ConcentrationCache(posterior, delta=params.delta, gamma=params.gamma)
            if params.concentrate
            else None
        )

    def budget_for(self, on_budget: str) -> int:
        """Hashes a pair may see under ``on_budget``; an explicit ``max_hashes`` wins."""
        if self.params.max_hashes is not None:
            return self.params.max_hashes
        return ESTIMATE_BUDGET if on_budget == "estimate" else self.posterior.exact_budget


class PairState:
    """Round-synchronous state of a block of candidate pairs.

    Attributes
    ----------
    status, matches, hashes_seen:
        Per-pair status code, agreement count ``m`` and hashes compared ``n``.
    active:
        Indices of the pairs still undecided, ascending.
    n_pruned:
        Pairs eliminated by the pruning test so far.
    trace:
        ``(n_hashes_examined, n_pairs_not_pruned)`` after each round.
    hash_comparisons:
        Individual hash comparisons performed so far.
    """

    def __init__(self, tables: RoundTables, n_pairs: int):
        self._tables = tables
        self.status = np.full(n_pairs, ACTIVE, dtype=np.int8)
        self.matches = np.zeros(n_pairs, dtype=np.int64)
        self.hashes_seen = np.zeros(n_pairs, dtype=np.int64)
        self.active = np.arange(n_pairs, dtype=np.int64)
        self.n_pruned = 0
        self.trace: list[tuple[int, int]] = []
        self.hash_comparisons = 0

    @property
    def n_alive(self) -> int:
        """Pairs not pruned (still active or emitted)."""
        return len(self.status) - self.n_pruned

    def advance(self, new_matches: np.ndarray, n_now: int) -> np.ndarray:
        """Apply one round to the active pairs.

        ``new_matches[p]`` is the number of agreements pair ``active[p]``
        gained over the ``k`` hashes ending at ``n_now``.  Runs the pruning
        test (line 10 of Algorithm 1) and, when the tables carry a
        concentration cache, the concentration test (line 15) on the pairs
        that survived it.  Returns the mask over the *previous* ``active``
        of pairs that stay active; ``active`` is updated to match.
        """
        tables = self._tables
        rows = self.active
        self.matches[rows] += new_matches
        self.hashes_seen[rows] = n_now
        self.hash_comparisons += len(rows) * tables.params.k
        still = tables.min_matches.passes_many(self.matches[rows], n_now)
        self.status[rows[~still]] = PRUNED
        self.n_pruned += len(rows) - int(np.count_nonzero(still))
        if tables.concentration is not None:
            survivors = rows[still]
            if len(survivors):
                concentrated = tables.concentration.is_concentrated_many(
                    self.matches[survivors], n_now
                )
                self.status[survivors[concentrated]] = EMITTED
                still[still] = ~concentrated
        self.active = rows[still]
        self.trace.append((n_now, self.n_alive))
        return still

    def outcome(self, on_budget: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair values once the rounds have ended, and the exhausted mask.

        A pruned pair's value is NaN and a concentrated pair's its MAP
        estimate (bit-identical to the scalar ``map_estimate``).  A pair
        that exhausted the budget undecided reports its current estimate
        under ``"estimate"`` (0 if it never saw a hash); under ``"exact"``
        its value is left NaN for the caller, who holds the vectors, to
        fill with the exact similarity.
        """
        exhausted = self.status == ACTIVE
        estimated = self.status == EMITTED
        if on_budget == "estimate":
            estimated |= exhausted
        values = np.full(len(self.status), np.nan, dtype=np.float64)
        if estimated.any():
            hashes = self.hashes_seen[estimated]
            values[estimated] = np.where(
                hashes > 0,
                self._tables.posterior.map_estimate_many(self.matches[estimated], hashes),
                0.0,
            )
        return values, exhausted


def replay_rounds(
    tables: RoundTables,
    n_pairs: int,
    count_block: Callable[[np.ndarray, int, int], np.ndarray],
    budget: int | None = None,
) -> PairState:
    """Run every pair to a decision, replaying blocks of per-round counts.

    ``count_block(active, n_prev, n_rounds)`` returns an ``(len(active), r)``
    array, ``1 <= r <= n_rounds``, whose column ``s`` holds the agreements of
    the pairs ``active`` over hashes ``[n_prev + s*k, n_prev + (s+1)*k)``.  How
    many rounds a block holds is the callee's policy under one rule: past its
    first round, only columns that are already materialised — so hashes no
    pair reaches are never generated (the lazy hashing the paper's cost
    argument rests on) and the RNG stream is consumed as by one round at a
    time.  Decisions are that loop's too: each pair's ``(m, n)`` evolves as
    before, and a pair decided inside a block ignores its remaining columns.
    ``budget`` defaults to the tables' own.
    """
    k = tables.params.k
    n_rounds = (tables.budget if budget is None else budget) // k
    state = PairState(tables, n_pairs)
    round_index = 0
    while round_index < n_rounds and len(state.active):
        n_prev = round_index * k
        counts = count_block(state.active, n_prev, n_rounds - round_index)
        local = np.arange(len(counts))
        for s in range(counts.shape[1]):
            local = local[state.advance(counts[local, s], n_prev + (s + 1) * k)]
            if len(local) == 0:
                break
        round_index += s + 1
    return state


def run_rounds(
    tables: RoundTables,
    n_pairs: int,
    count_matches: Callable[[np.ndarray, int, int], np.ndarray],
    budget: int | None = None,
) -> PairState:
    """:func:`replay_rounds` for callers that count one round at a time.

    ``count_matches(active, n_prev, n_now)`` returns the agreements of the
    pairs ``active`` over hashes ``[n_prev, n_now)``.
    """
    k = tables.params.k
    return replay_rounds(
        tables,
        n_pairs,
        lambda active, n_prev, _: count_matches(active, n_prev, n_prev + k)[:, None],
        budget,
    )
