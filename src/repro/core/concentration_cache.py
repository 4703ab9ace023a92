"""Cache of concentration-test outcomes (Section 4.3).

Line 15 of Algorithm 1 stops comparing hashes for a pair once the similarity
estimate is sufficiently concentrated:
``Pr[|S - S_hat| < delta | M(m, n)] >= 1 - gamma``.  The outcome depends only
on the pair's match counts ``(m, n)``, never on the pair itself, so the
decisions are shared across all pairs.

The cache stores one *decision row* per ``n``: an array over ``m = 0 .. n``
holding "concentrated?" (or "not computed yet").  Batched queries answer by
array lookup; fresh ``m`` values are resolved with **one** vectorised
posterior call (:meth:`PosteriorModel.concentration_probability_many`) per
batch instead of a Python loop over pairs.

A note on why this is a *row* table rather than a single ``minConcentrated(n)``
threshold per ``n`` (the analogue of
:class:`~repro.core.min_matches.MinMatchesTable`): the concentration test is
**not** monotone in ``m`` for fixed ``n``.  The posterior of a pair with very
few matches piles up against the similarity-0 boundary, so the mass within
``delta`` of the (boundary) mode can exceed ``1 - gamma`` at tiny ``m``, dip
below it for intermediate ``m`` where the posterior variance peaks, and only
then rise monotonically towards ``m = n``.  A single threshold would flip
decisions for the low-``m`` band, so the cache keeps the exact per-``m``
decision instead — still O(1) per query, still at most ``n + 1`` inferences
per ``n``, and bit-identical to evaluating Equation 6 per pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.posteriors import PosteriorModel

__all__ = ["ConcentrationCache"]

#: decision-row states
_UNKNOWN, _NO, _YES = -1, 0, 1


class ConcentrationCache:
    """Memoised "is the estimate concentrated enough?" test keyed by ``(m, n)``.

    Parameters
    ----------
    posterior:
        Posterior model providing :meth:`concentration_probability` and its
        batched variant.
    delta, gamma:
        Accuracy parameters: the test passes when the posterior places at
        least ``1 - gamma`` probability within ``delta`` of the MAP estimate.
    """

    def __init__(self, posterior: PosteriorModel, delta: float, gamma: float):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
        self._posterior = posterior
        self._delta = float(delta)
        self._gamma = float(gamma)
        self._rows: dict[int, np.ndarray] = {}
        self._hits = 0
        self._misses = 0

    @property
    def delta(self) -> float:
        return self._delta

    @property
    def gamma(self) -> float:
        return self._gamma

    @property
    def hits(self) -> int:
        """Number of queries answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of ``(m, n)`` keys that required fresh inference."""
        return self._misses

    def __len__(self) -> int:
        return int(sum(np.count_nonzero(row != _UNKNOWN) for row in self._rows.values()))

    def _row(self, n: int) -> np.ndarray:
        row = self._rows.get(n)
        if row is None:
            row = np.full(n + 1, _UNKNOWN, dtype=np.int8)
            self._rows[n] = row
        return row

    def is_concentrated(self, m: int, n: int) -> bool:
        """Whether the estimate after ``m`` of ``n`` matches meets the accuracy target."""
        m, n = int(m), int(n)
        if not 0 <= m <= n:
            # Delegate the error to the posterior for a consistent message.
            self._posterior.concentration_probability(m, n, self._delta)
        row = self._row(n)
        state = row[m]
        if state != _UNKNOWN:
            self._hits += 1
            return bool(state)
        self._misses += 1
        result = (
            self._posterior.concentration_probability(m, n, self._delta)
            >= 1.0 - self._gamma
        )
        row[m] = _YES if result else _NO
        return result

    def is_concentrated_many(self, matches: np.ndarray, n: int) -> np.ndarray:
        """Vectorised :meth:`is_concentrated` for an array of match counts at one ``n``.

        Decisions come straight from the decision row; match counts not yet in
        the row are resolved with a single batched posterior call.  Counter
        semantics for batches: one miss per *fresh* ``(m, n)`` key, one hit
        per element already decided.
        """
        n = int(n)
        matches = np.asarray(matches, dtype=np.int64)
        if matches.size and (matches.min() < 0 or matches.max() > n):
            bad = int(matches.min()) if matches.min() < 0 else int(matches.max())
            self._posterior.concentration_probability(bad, n, self._delta)
        row = self._row(n)
        states = row[matches]
        # Distinct undecided counts, ascending: marked in an (n + 1)-slot row
        # rather than deduplicated (np.unique hashes from NumPy 2.3 on).
        fresh = np.zeros(n + 1, dtype=bool)
        fresh[matches[states == _UNKNOWN]] = True
        unknown = np.flatnonzero(fresh)
        if len(unknown):
            probabilities = self._posterior.concentration_probability_many(
                unknown, n, self._delta
            )
            row[unknown] = np.where(probabilities >= 1.0 - self._gamma, _YES, _NO)
            self._misses += len(unknown)
            self._hits += int(np.count_nonzero(states != _UNKNOWN))
            states = row[matches]
        else:
            self._hits += matches.size
        return states == _YES
