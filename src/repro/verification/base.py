"""Common interface of candidate verifiers."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.candidates.base import CandidateSet
from repro.core.bayeslsh import VerificationOutput
from repro.similarity.measures import SimilarityMeasure, get_measure
from repro.similarity.vectors import VectorCollection

__all__ = ["Verifier", "cross_similarities_for_pairs", "exact_similarities_for_pairs"]


def exact_similarities_for_pairs(
    prepared: VectorCollection,
    measure: SimilarityMeasure,
    left: np.ndarray,
    right: np.ndarray,
    chunk_size: int = 8192,
) -> np.ndarray:
    """Exact similarities for parallel index arrays, computed in vectorised chunks.

    ``prepared`` must already be the measure's preferred view
    (``measure.prepare(collection)``).
    """
    return cross_similarities_for_pairs(prepared, prepared, measure, left, right, chunk_size)


def cross_similarities_for_pairs(
    prepared_left: VectorCollection,
    prepared_right: VectorCollection,
    measure: SimilarityMeasure,
    left: np.ndarray,
    right: np.ndarray,
    chunk_size: int = 8192,
) -> np.ndarray:
    """Exact similarities between rows of *two* prepared collections.

    Entry ``p`` is the similarity of row ``left[p]`` of ``prepared_left`` to
    row ``right[p]`` of ``prepared_right`` — the cross-collection kernel the
    serving layer uses to verify a batch of queries against an indexed
    corpus.  Every operation is per-pair and row-local, so results do not
    depend on how pairs are batched (a batch of one reproduces the batched
    value bit for bit).  With ``prepared_left is prepared_right`` this is
    exactly :func:`exact_similarities_for_pairs`.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    n_pairs = len(left)
    result = np.empty(n_pairs, dtype=np.float64)
    name = measure.name
    for start in range(0, n_pairs, chunk_size):
        end = min(start + chunk_size, n_pairs)
        chunk_l = left[start:end]
        chunk_r = right[start:end]
        rows_l = prepared_left.matrix[chunk_l]
        rows_r = prepared_right.matrix[chunk_r]
        inner = np.asarray(rows_l.multiply(rows_r).sum(axis=1)).ravel()
        if name == "cosine":
            denom = prepared_left.norms[chunk_l] * prepared_right.norms[chunk_r]
            values = np.divide(inner, denom, out=np.zeros_like(inner), where=denom > 0)
        elif name == "jaccard":
            union = prepared_left.row_nnz[chunk_l] + prepared_right.row_nnz[chunk_r] - inner
            values = np.divide(inner, union, out=np.zeros_like(inner), where=union > 0)
        elif name == "binary_cosine":
            denom = np.sqrt(
                prepared_left.row_nnz[chunk_l].astype(np.float64)
                * prepared_right.row_nnz[chunk_r].astype(np.float64)
            )
            values = np.divide(inner, denom, out=np.zeros_like(inner), where=denom > 0)
        elif prepared_left is prepared_right:
            # fall back to the measure's scalar implementation
            values = np.array(
                [
                    measure.exact(prepared_left, int(i), int(j))
                    for i, j in zip(chunk_l, chunk_r)
                ]
            )
        else:  # cross-collection fallback: scalar measure on a joint pair view
            import scipy.sparse as sp

            values = np.empty(end - start, dtype=np.float64)
            for offset, (i, j) in enumerate(zip(chunk_l, chunk_r)):
                joint = VectorCollection(
                    sp.vstack(
                        [prepared_left.matrix.getrow(int(i)), prepared_right.matrix.getrow(int(j))]
                    )
                )
                values[offset] = measure.exact(measure.prepare(joint), 0, 1)
        result[start:end] = np.minimum(values, 1.0)
    return result


class Verifier(ABC):
    """A candidate verifier bound to a vector collection and a measure.

    Subclasses turn a :class:`CandidateSet` into a
    :class:`~repro.core.bayeslsh.VerificationOutput`: the pairs they consider
    part of the answer, together with exact or estimated similarities.
    """

    #: machine-readable name used by pipelines and reports
    name: str = ""
    #: whether the reported similarities are exact (True) or estimates (False)
    exact_output: bool = True

    def __init__(self, collection: VectorCollection, measure, threshold: float):
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        self._measure = get_measure(measure)
        self._collection = collection
        self._prepared = self._measure.prepare(collection)
        self._threshold = float(threshold)

    @property
    def measure(self) -> SimilarityMeasure:
        """The similarity measure candidates are verified under."""
        return self._measure

    @property
    def threshold(self) -> float:
        """The similarity threshold emitted pairs must exceed."""
        return self._threshold

    @property
    def prepared(self) -> VectorCollection:
        """The measure-specific view of the collection the verifier works on."""
        return self._prepared

    def exact_similarity(self, i: int, j: int) -> float:
        """Exact similarity of one pair; equals :meth:`exact_similarities` on it."""
        return self._measure.exact(self._prepared, i, j)

    def exact_similarities(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Exact similarities of pairs given as parallel index arrays.

        The one scoring call of BayesLSH-Lite's survivors (in the parent and
        in the pool workers alike) and of the Jaccard prior sample.
        """
        return exact_similarities_for_pairs(self._prepared, self._measure, left, right)

    @abstractmethod
    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """Verify a candidate set."""

    def verify_source(self, source, pool=None) -> VerificationOutput:
        """Verify a deduplicated :class:`~repro.search.executor.PairBlockSource`.

        Called by the streamed executor.  Subclasses shipped with the library
        override this with true block-by-block (and optionally multicore)
        processing whose outputs are bit-identical to :meth:`verify` on the
        concatenated pairs; this fallback simply materialises the pairs so
        third-party verifiers keep working under the streamed engine.
        """
        left, right = source.all_pairs()
        return self.verify(CandidateSet(left=left, right=right, metadata={}))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(measure={self._measure.name!r}, "
            f"threshold={self._threshold})"
        )
