"""Result containers for all-pairs similarity search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

__all__ = ["QueryHits", "ScoredPair", "SearchResult"]


class ScoredPair(NamedTuple):
    """One output pair: row indices (``i < j``) and the reported similarity."""

    i: int
    j: int
    similarity: float


class QueryHits(list):
    """One query's answer: a list of :class:`ScoredPair`, plus which are exact.

    ``exact[p]`` says whether ``self[p].similarity`` is an exact value or a
    posterior estimate.  Equal to any list of the same pairs; two
    ``QueryHits`` must agree on the flags as well.
    """

    exact: tuple = ()

    @property
    def n_exact(self) -> int:
        """How many of the similarities are exact values."""
        return sum(self.exact)

    def __eq__(self, other) -> bool:
        same_flags = not isinstance(other, QueryHits) or self.exact == other.exact
        return list.__eq__(self, other) and same_flags

    def __ne__(self, other) -> bool:
        return not self == other


@dataclass
class SearchResult:
    """The output of one all-pairs similarity search run.

    Attributes
    ----------
    left, right:
        Parallel row-index arrays of the reported pairs (``left[k] < right[k]``).
    similarities:
        Reported similarity per pair — exact for exact pipelines, an estimate
        for LSH Approx, and for BayesLSH an estimate or, where
        ``exact_mask`` is set, the exact value.
    exact_mask:
        Which ``similarities`` are exact values.
    method:
        Pipeline name that produced the result.
    threshold, measure:
        The query parameters.
    n_candidates, n_pruned:
        Size of the candidate set entering verification and how many of those
        candidates verification discarded.
    timings:
        Wall-clock seconds per phase: ``generation``, ``verification`` and
        ``total``.
    exact_similarities:
        Whether *every* similarity is exact (True) or some are estimates
        (False); ``metadata["n_exact"]`` counts the exact ones.
    metadata:
        Generator / verifier statistics (index sizes, hash comparisons, the
        Figure-4 pruning trace, ``n_exact`` / ``n_unconcentrated`` and so on).
    """

    left: np.ndarray
    right: np.ndarray
    similarities: np.ndarray
    method: str
    threshold: float
    measure: str
    n_candidates: int = 0
    n_pruned: int = 0
    timings: dict = field(default_factory=dict)
    exact_similarities: bool = True
    metadata: dict = field(default_factory=dict)
    exact_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.exact_mask is None:
            self.exact_mask = np.full(len(self.left), self.exact_similarities, dtype=bool)

    def __len__(self) -> int:
        return len(self.left)

    def __iter__(self) -> Iterator[ScoredPair]:
        for i, j, s in zip(self.left, self.right, self.similarities):
            yield ScoredPair(int(i), int(j), float(s))

    def pairs(self) -> list[ScoredPair]:
        """The result as a list of :class:`ScoredPair`."""
        return list(self)

    def pair_set(self) -> set[tuple[int, int]]:
        """The reported pairs as a set of ``(i, j)`` tuples."""
        return {(int(i), int(j)) for i, j in zip(self.left, self.right)}

    def similarity_map(self) -> dict[tuple[int, int], float]:
        """Mapping from pair to reported similarity."""
        return {
            (int(i), int(j)): float(s)
            for i, j, s in zip(self.left, self.right, self.similarities)
        }

    @property
    def total_time(self) -> float:
        """Total wall-clock time in seconds (0.0 when timings were not recorded)."""
        return float(self.timings.get("total", 0.0))

    def top(self, k: int = 10) -> list[ScoredPair]:
        """The ``k`` highest-similarity pairs."""
        if len(self) == 0 or k <= 0:
            return []
        order = np.argsort(-self.similarities, kind="stable")[:k]
        return [
            ScoredPair(int(self.left[idx]), int(self.right[idx]), float(self.similarities[idx]))
            for idx in order
        ]

    def __repr__(self) -> str:
        return (
            f"SearchResult(method={self.method!r}, n_pairs={len(self)}, "
            f"threshold={self.threshold}, measure={self.measure!r})"
        )
