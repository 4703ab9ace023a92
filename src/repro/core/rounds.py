"""The round engine shared by every execution path of Algorithms 1 and 2.

Both algorithms are one small loop per candidate pair: compare ``k`` more
hashes, prune the pair if ``m < minMatches(n)``, (BayesLSH only) emit it if
the posterior is concentrated, otherwise continue.  Every decision depends
only on the pair's own ``(m, n)``, which is why the loop can be run
round-synchronously over arrays of pairs, split into blocks, sharded across
worker processes and re-executed after a worker loss with bit-identical
results.  This module holds that loop's state and its one decision step, so
the serial verifiers, the all-pairs workers, the serving workers and the
serial serving path all make decisions with the same code:

* :class:`RoundTables` builds the decision tables for a posterior and a
  parameter object (:class:`~repro.core.params.BayesLSHLiteParams` selects
  the Lite variant: the budget is ``h`` and there is no concentration test);
* :class:`PairState` holds ``status`` / ``matches`` / ``hashes_seen`` for a
  block of pairs and advances them one round at a time;
* :func:`run_rounds` drives a :class:`PairState` to completion for callers
  that count agreements one round at a time.

``src/repro/reference.py`` keeps the scalar per-pair loops these are tested
against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.concentration_cache import ConcentrationCache
from repro.core.min_matches import MinMatchesTable
from repro.core.params import BayesLSHLiteParams
from repro.core.posteriors import PosteriorModel

__all__ = ["ACTIVE", "EMITTED", "PRUNED", "PairState", "RoundTables", "run_rounds"]

#: per-pair status codes
ACTIVE, PRUNED, EMITTED = 0, 1, 2


class RoundTables:
    """Decision tables of one ``(posterior, params)`` configuration.

    The tables are deterministic functions of their inputs, so a worker
    process that rebuilds them from the broadcast posterior and parameters
    agrees with the parent's.  ``concentration`` is ``None`` for
    BayesLSH-Lite, which never estimates.
    """

    def __init__(self, posterior: PosteriorModel, params):
        lite = isinstance(params, BayesLSHLiteParams)
        self.posterior = posterior
        self.params = params
        self.min_matches = MinMatchesTable(
            posterior,
            threshold=params.threshold,
            epsilon=params.epsilon,
            k=params.k,
            max_hashes=params.h if lite else params.max_hashes,
        )
        self.concentration = (
            None
            if lite
            else ConcentrationCache(posterior, delta=params.delta, gamma=params.gamma)
        )


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

    def survivors(self) -> tuple[np.ndarray, np.ndarray]:
        """The not-pruned mask and those pairs' MAP similarity estimates.

        Pairs that exhausted the hash budget without concentrating report
        their current estimate; a pair that never saw a hash reports 0.
        Estimates are bit-identical to the scalar ``map_estimate`` per pair.
        """
        mask = self.status != PRUNED
        matches = self.matches[mask]
        if not len(matches):
            return mask, np.zeros(0, dtype=np.float64)
        hashes = self.hashes_seen[mask]
        estimates = np.where(
            hashes > 0, self._tables.posterior.map_estimate_many(matches, hashes), 0.0
        )
        return mask, estimates.astype(np.float64, copy=False)


def run_rounds(
    tables: RoundTables,
    n_pairs: int,
    count_matches: Callable[[np.ndarray, int, int], np.ndarray],
) -> PairState:
    """Run every pair to a decision, one ``k``-hash round at a time.

    ``count_matches(active, n_prev, n_now)`` returns the agreements of the
    pairs ``active`` over hashes ``[n_prev, n_now)``; it is only called
    while pairs remain undecided, so hashes no pair reaches are never
    requested (the lazy hashing the paper's cost argument rests on).
    """
    params = tables.params
    state = PairState(tables, n_pairs)
    for round_index in range(params.n_rounds):
        active = state.active
        if len(active) == 0:
            break
        n_prev = round_index * params.k
        state.advance(count_matches(active, n_prev, n_prev + params.k), n_prev + params.k)
    return state
