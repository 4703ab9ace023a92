"""Algorithm 2: BayesLSH-Lite — Bayesian pruning with exact verification.

BayesLSH-Lite uses the same early-pruning test as BayesLSH but never
*estimates* similarities: pairs that survive ``h`` hashes' worth of pruning
have their similarity computed exactly and are output only if it exceeds the
threshold.  This trades the ``delta``/``gamma`` accuracy machinery for a
single extra parameter ``h`` and is the faster variant whenever exact
similarity computations are cheap (binary data, short vectors, high
thresholds).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.bayeslsh import VerificationOutput
from repro.core.min_matches import MinMatchesTable
from repro.core.params import BayesLSHLiteParams
from repro.core.posteriors import PosteriorModel
from repro.core.rounds import PRUNED, RoundTables, run_rounds
from repro.hashing.base import HashFamily

__all__ = ["BayesLSHLite"]


class BayesLSHLite:
    """The BayesLSH-Lite candidate verifier (Algorithm 2).

    Parameters
    ----------
    family:
        Hash family bound to the vector collection.
    posterior:
        Posterior model used for the pruning test.
    params:
        ``threshold`` / ``epsilon`` / ``h`` / ``k``.
    exact_similarities:
        Batched callable ``(left, right) -> float64 array`` computing the exact
        similarities of pairs of rows given as parallel index arrays; invoked
        once per :meth:`verify` call, on the pairs that survive pruning.
    """

    def __init__(
        self,
        family: HashFamily,
        posterior: PosteriorModel,
        params: BayesLSHLiteParams,
        exact_similarities: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ):
        self._family = family
        self._tables = RoundTables(posterior, params)
        self._exact_similarities = exact_similarities

    @property
    def family(self) -> HashFamily:
        return self._family

    @property
    def params(self) -> BayesLSHLiteParams:
        return self._tables.params

    @property
    def tables(self) -> RoundTables:
        """The decision tables (shared with the pooled execution paths)."""
        return self._tables

    @property
    def min_matches_table(self) -> MinMatchesTable:
        return self._tables.min_matches

    def verify(self, left, right) -> VerificationOutput:
        """Verify candidate pairs given as parallel index arrays.

        Pairs surviving the pruning rounds are checked exactly; only pairs
        whose exact similarity exceeds the threshold are output, and the
        reported "estimates" are those exact values.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left and right index arrays must have the same shape")

        def count_matches(active: np.ndarray, n_prev: int, n_now: int) -> np.ndarray:
            store = self._family.signatures(n_now)
            return store.count_matches_many(left[active], right[active], n_prev, n_now)

        state = run_rounds(self._tables, len(left), count_matches)
        survivors = np.flatnonzero(state.status != PRUNED)
        exact_values = np.asarray(
            self._exact_similarities(left[survivors], right[survivors]), dtype=np.float64
        )
        above = exact_values > self._tables.params.threshold
        return VerificationOutput(
            left=left[survivors][above],
            right=right[survivors][above],
            estimates=exact_values[above],
            n_candidates=len(left),
            n_pruned=state.n_pruned,
            trace=state.trace,
            hash_comparisons=state.hash_comparisons,
            exact_computations=len(survivors),
        )
