"""Exact candidate verification.

Computes the true similarity of every candidate pair and keeps the pairs
exceeding the threshold.  This is the verification phase of the exact
baselines (AllPairs, plain LSH, PPJoin+) in the paper's evaluation.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.candidates.base import CandidateSet
from repro.core.bayeslsh import VerificationOutput
from repro.verification.base import Verifier

__all__ = ["ExactVerifier"]


class ExactVerifier(Verifier):
    """Verify candidates by computing their similarity exactly."""

    name = "exact"
    exact_output = True

    def _verify_arrays(self, left, right, similarities) -> VerificationOutput:
        above = similarities > self._threshold
        return VerificationOutput(
            left=left[above],
            right=right[above],
            estimates=similarities[above],
            n_candidates=len(left),
            n_pruned=int((~above).sum()),
            trace=[],
            hash_comparisons=0,
            exact_computations=len(left),
            exact_mask=np.ones(int(above.sum()), dtype=bool),
        )

    def verify(
        self, candidates: CandidateSet, block_size: int | None = None, pool=None
    ) -> VerificationOutput:
        """Exact similarity for every candidate; emits pairs above the threshold.

        Deterministic and independent of the block and shard split:
        similarities are row-local computations on the prepared collection,
        and the serial fallback a ``pool`` uses for failed shards is the very
        kernel its workers run.
        """
        score = self.exact_similarities
        if pool is not None:
            score = partial(pool.map_exact, fallback=self.exact_similarities)
        return VerificationOutput.merge(
            [
                self._verify_arrays(left, right, score(left, right))
                for left, right in candidates.blocks(block_size)
            ]
        )
