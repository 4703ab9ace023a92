"""Exact candidate verification.

Computes the true similarity of every candidate pair and keeps the pairs
exceeding the threshold.  This is the verification phase of the exact
baselines (AllPairs, plain LSH, PPJoin+) in the paper's evaluation.
"""

from __future__ import annotations

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

    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """Exact similarity for every candidate; emits pairs above the threshold.

        Deterministic and batching-independent: similarities are row-local
        computations on the prepared collection.
        """
        similarities = self.exact_similarities(candidates.left, candidates.right)
        return self._verify_arrays(candidates.left, candidates.right, similarities)

    def verify_source(self, source, pool=None) -> VerificationOutput:
        """Block-streamed (and optionally sharded) exact verification.

        Exact similarities are computed row-pair-wise, so any block/shard
        split produces the same floats as the monolithic call — the serial
        fallback the pool uses for failed shards is the very kernel the
        workers run.
        """
        outputs = []
        for left, right in source.blocks():
            if pool is not None:
                similarities = pool.map_exact(left, right, fallback=self.exact_similarities)
            else:
                similarities = self.exact_similarities(left, right)
            outputs.append(self._verify_arrays(left, right, similarities))
        return VerificationOutput.merge(outputs)
