"""Pre-computation of the minimum-matches pruning table (Section 4.3).

Line 10 of Algorithm 1 prunes a pair when ``Pr[S >= t | M(m, n)] < epsilon``.
Because that probability is monotone non-decreasing in ``m`` for fixed ``n``,
the test is equivalent to ``m < minMatches(n)`` where

    minMatches(n) = min { m : Pr[S >= t | M(m, n)] >= epsilon }

The table is computed once per (posterior, threshold, epsilon) by binary
search over ``m`` for every ``n`` that the algorithm will actually encounter
(multiples of the batch size ``k`` up to the hash budget), removing all
per-pair inference from the pruning step.  The searches of all those ``n``
run in lockstep: one batched posterior call per bisection step.
"""

from __future__ import annotations

import numpy as np

from repro.core.posteriors import PosteriorModel

__all__ = ["MinMatchesTable"]


class MinMatchesTable:
    """Pre-computed ``minMatches(n)`` for all the ``n`` values a run will see.

    Parameters
    ----------
    posterior:
        The posterior model (Beta for Jaccard, truncated collision posterior
        for cosine).
    threshold:
        Similarity threshold ``t``.
    epsilon:
        Recall parameter.
    k:
        Hash batch size; the table holds entries for ``n = k, 2k, ...``.
    max_hashes:
        Largest ``n`` in the table.
    """

    def __init__(
        self,
        posterior: PosteriorModel,
        threshold: float,
        epsilon: float,
        k: int,
        max_hashes: int,
    ):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if max_hashes < k:
            raise ValueError(f"max_hashes ({max_hashes}) must be at least k ({k})")
        self._posterior = posterior
        self._threshold = float(threshold)
        self._epsilon = float(epsilon)
        self._k = int(k)
        self._max_hashes = int(max_hashes)
        self._ns = np.arange(k, max_hashes + 1, k, dtype=np.int64)
        self._table = dict(zip(self._ns.tolist(), self._search(self._ns).tolist()))

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def checkpoints(self) -> np.ndarray:
        """The ``n`` values for which the table holds entries."""
        return self._ns

    def _reaches(self, m: np.ndarray, n: np.ndarray) -> np.ndarray:
        """Element-wise ``Pr[S >= t | M(m, n)] >= epsilon``."""
        return (
            self._posterior.prob_above_threshold_many(m, n, self._threshold) >= self._epsilon
        )

    def _search(self, ns: np.ndarray) -> np.ndarray:
        """Binary search, per ``n``, for the smallest ``m`` reaching ``epsilon``.

        An entry is ``n + 1`` when even ``m = n`` cannot reach the target,
        which makes ``passes()`` False for every possible match count.
        """
        entries = ns + 1
        searching = np.flatnonzero(self._reaches(ns, ns))
        immediate = self._reaches(np.zeros_like(searching), ns[searching])
        entries[searching[immediate]] = 0
        searching = searching[~immediate]
        low = np.zeros_like(searching)  # invariant: prob(low) < eps <= prob(high)
        high = ns[searching]
        while len(still := np.flatnonzero(high - low > 1)):
            mid = (low[still] + high[still]) // 2
            reached = self._reaches(mid, ns[searching[still]])
            high[still[reached]] = mid[reached]
            low[still[~reached]] = mid[~reached]
        entries[searching] = high
        return entries

    def min_matches(self, n: int) -> int:
        """``minMatches(n)``; computed on demand for ``n`` outside the table."""
        entry = self._table.get(int(n))
        if entry is None:
            entry = int(self._search(np.array([n], dtype=np.int64))[0])
            self._table[int(n)] = entry
        return entry

    def passes(self, m: int, n: int) -> bool:
        """True when a pair with ``m`` of ``n`` matches survives the pruning test."""
        return m >= self.min_matches(n)

    def passes_many(self, matches: np.ndarray, n: int) -> np.ndarray:
        """Vectorised :meth:`passes` for an array of match counts at one ``n``."""
        return np.asarray(matches) >= self.min_matches(n)

    def as_array(self) -> np.ndarray:
        """The table as an ``(n, minMatches(n))`` array over the checkpoints."""
        return np.array([[int(n), self._table[int(n)]] for n in self._ns], dtype=np.int64)
