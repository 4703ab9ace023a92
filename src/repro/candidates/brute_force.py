"""Brute-force candidate generation.

Generates every pair ``(i, j)`` with ``i < j`` — or, with
``require_shared_feature=True`` (the default), every pair whose supports
intersect, since pairs with disjoint supports have similarity zero under all
three measures the library supports.  Used as the reference generator for
ground truth and in tests; quadratic, so only suitable for small collections.
"""

from __future__ import annotations

import numpy as np

from repro.candidates.base import BlockStream, CandidateGenerator, CandidateSet
from repro.similarity.vectors import VectorCollection

__all__ = ["BruteForceGenerator"]


class BruteForceGenerator(CandidateGenerator):
    """Every pair of vectors (optionally only pairs sharing a feature)."""

    name = "brute_force"

    def __init__(
        self,
        measure="cosine",
        threshold: float = 0.5,
        require_shared_feature: bool = True,
    ):
        super().__init__(measure, threshold)
        self._require_shared_feature = bool(require_shared_feature)

    def generate_blocks(
        self, collection: VectorCollection, block_size: int | None = None
    ) -> BlockStream:
        """:meth:`generate`'s pairs as one block, whatever the ``block_size``."""
        pairs = self.generate(collection)
        return BlockStream(iter([(pairs.left, pairs.right)]), pairs.metadata)

    def generate(self, collection: VectorCollection, block_size: int | None = None) -> CandidateSet:
        """Every pair (optionally restricted to pairs sharing a feature).

        Built in one pass whatever the ``block_size``; the pairs are distinct
        by construction, so there is nothing to deduplicate in blocks, and
        they keep the order they are built in.
        """
        n = collection.n_vectors
        if n < 2:
            return CandidateSet.from_pairs([], generator=self.name)
        if not self._require_shared_feature:
            left, right = np.triu_indices(n, k=1)
            return CandidateSet(
                left=left.astype(np.int64),
                right=right.astype(np.int64),
                metadata={"generator": self.name, "n_raw": len(left)},
            )
        # Pairs sharing at least one feature: non-zeros of the co-occurrence
        # matrix B @ B.T where B is the binary view of the data.
        binary = collection.binarized().matrix
        co_occurrence = (binary @ binary.T).tocoo()
        mask = co_occurrence.row < co_occurrence.col
        left = co_occurrence.row[mask].astype(np.int64)
        right = co_occurrence.col[mask].astype(np.int64)
        return CandidateSet(
            left=left,
            right=right,
            metadata={"generator": self.name, "n_raw": len(left)},
        )
