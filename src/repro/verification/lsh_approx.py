"""Standard LSH similarity estimation (the "LSH Approx" baseline, Section 3).

Every candidate pair is compared on a *fixed* number of hashes ``n`` and the
similarity is estimated with the maximum likelihood estimator ``m / n``
(converted from the collision scale back to cosine for the simhash family).
Pairs whose estimate exceeds the threshold are output.

This baseline is exactly what the paper criticises: ``n`` has to be tuned by
hand, a single global value over- or under-spends hashes depending on the
(unknown) similarity being estimated, and there is no early pruning.  The
paper uses ``n = 2048`` bits for cosine and ``n = 360`` minhashes for
Jaccard.
"""

from __future__ import annotations

import numpy as np

from repro.candidates.base import CandidateSet
from repro.core.bayeslsh import VerificationOutput
from repro.hashing.base import HashFamily, get_hash_family
from repro.hashing.simhash import collision_to_cosine
from repro.verification.base import Verifier

__all__ = ["LSHApproxVerifier"]

#: the paper's hash budgets per similarity measure
DEFAULT_NUM_HASHES = {"cosine": 2048, "binary_cosine": 2048, "jaccard": 360}


class LSHApproxVerifier(Verifier):
    """Fixed-budget maximum-likelihood similarity estimation.

    Parameters
    ----------
    collection, measure, threshold:
        As for every verifier.
    num_hashes:
        The fixed number of hashes ``n``; defaults to the paper's settings
        (2048 for the cosine measures, 360 for Jaccard).
    family:
        Optional shared hash family (so candidate generation hashes are
        reused); built on demand otherwise.
    seed:
        Seed for a freshly created family.
    """

    name = "lsh_approx"
    exact_output = False

    def __init__(
        self,
        collection,
        measure,
        threshold: float,
        num_hashes: int | None = None,
        family: HashFamily | None = None,
        seed: int = 0,
    ):
        super().__init__(collection, measure, threshold)
        if num_hashes is None:
            num_hashes = DEFAULT_NUM_HASHES[self._measure.name]
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self._num_hashes = int(num_hashes)
        if family is None:
            family = get_hash_family(self._measure.lsh_family, self._prepared, seed=seed)
        self._family = family

    @property
    def num_hashes(self) -> int:
        """Fixed number of hashes every pair is compared on."""
        return self._num_hashes

    @property
    def family(self) -> HashFamily:
        """The hash family whose signatures the estimates are read from."""
        return self._family

    def _estimates_from_matches(self, matches: np.ndarray) -> np.ndarray:
        fractions = matches / self._num_hashes
        if self._measure.lsh_family == "simhash":
            return np.asarray(collision_to_cosine(fractions), dtype=np.float64)
        return fractions.astype(np.float64)

    def _verify_arrays(self, left, right, matches) -> VerificationOutput:
        estimates = self._estimates_from_matches(matches)
        above = estimates > self._threshold
        return VerificationOutput(
            left=left[above],
            right=right[above],
            estimates=estimates[above],
            n_candidates=len(left),
            n_pruned=int((~above).sum()),
            trace=[(self._num_hashes, len(left))],
            hash_comparisons=int(self._num_hashes) * len(left),
            exact_computations=0,
        )

    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """MLE estimates from a fixed hash budget; emits pairs above the threshold.

        Deterministic in ``(candidates, family seed, num_hashes)`` and
        independent of pair batching (each pair's estimate reads only its
        own signature rows).
        """
        store = self._family.signatures(self._num_hashes)
        matches = store.count_matches_many(
            candidates.left, candidates.right, 0, self._num_hashes
        )
        return self._verify_arrays(candidates.left, candidates.right, matches)

    def verify_source(self, source, pool=None) -> VerificationOutput:
        """Block-streamed fixed-budget estimation.

        Match counting and the MLE map are per-pair operations, so any block
        split reproduces the monolithic floats; the parent materialises the
        fixed hash budget once and counts every block itself (a worker
        ``pool`` only scores pairs exactly, which this verifier never does).
        """
        store = self._family.signatures(self._num_hashes)
        outputs = []
        for left, right in source.blocks():
            matches = store.count_matches_many(left, right, 0, self._num_hashes)
            outputs.append(self._verify_arrays(left, right, matches))
        return VerificationOutput.merge(outputs)
