"""Similarity measures used throughout the paper.

Three measures appear in the evaluation:

* **Cosine** on TF-IDF weighted real-valued vectors (the primary setting),
* **Jaccard** on binary vectors / sets,
* **Binary cosine**, i.e. cosine similarity after binarising the vectors.

Each measure is exposed both as a plain function operating on a
:class:`~repro.similarity.vectors.VectorCollection` and a pair of row indices,
and as a small strategy object (:class:`SimilarityMeasure`) that algorithms
hold on to.  The strategy objects also know which LSH family estimates them
(``"minhash"`` for Jaccard, ``"simhash"`` for the two cosine variants), which
is what lets the verification layer pick the right posterior model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import scipy.sparse as sp

from repro.similarity.vectors import VectorCollection

__all__ = [
    "SimilarityMeasure",
    "CosineSimilarity",
    "JaccardSimilarity",
    "BinaryCosineSimilarity",
    "get_measure",
    "cosine_similarity",
    "jaccard_similarity",
    "binary_cosine_similarity",
]


def _sparse_dot(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    """Dot product of two 1 x d CSR rows.

    Summed with ``sum(axis=1)`` — the expression the batched pair kernel
    (:func:`repro.verification.base.cross_similarities_for_pairs`) applies to
    its stacked row products — because a full ``sum()`` adds the same
    products in another order and lands one ulp away on a third of pairs.
    """
    return float(a.multiply(b).sum(axis=1)[0, 0])


def cosine_similarity(collection: VectorCollection, i: int, j: int) -> float:
    """Exact cosine similarity between rows ``i`` and ``j``."""
    norm_i = collection.norms[i]
    norm_j = collection.norms[j]
    if norm_i == 0.0 or norm_j == 0.0:
        return 0.0
    dot = _sparse_dot(collection.row(i), collection.row(j))
    return min(1.0, dot / (norm_i * norm_j))


def jaccard_similarity(collection: VectorCollection, i: int, j: int) -> float:
    """Exact Jaccard similarity between the supports of rows ``i`` and ``j``."""
    features_i = collection.row_features(i)
    features_j = collection.row_features(j)
    if len(features_i) == 0 and len(features_j) == 0:
        return 0.0
    intersection = np.intersect1d(features_i, features_j, assume_unique=True).size
    union = len(features_i) + len(features_j) - intersection
    if union == 0:
        return 0.0
    return intersection / union


def binary_cosine_similarity(collection: VectorCollection, i: int, j: int) -> float:
    """Exact cosine similarity between the *binarised* rows ``i`` and ``j``."""
    features_i = collection.row_features(i)
    features_j = collection.row_features(j)
    if len(features_i) == 0 or len(features_j) == 0:
        return 0.0
    intersection = np.intersect1d(features_i, features_j, assume_unique=True).size
    return intersection / float(np.sqrt(len(features_i) * len(features_j)))


class SimilarityMeasure(ABC):
    """A similarity measure with an associated LSH family.

    Subclasses provide exact pairwise computation, dataset-level preparation
    (e.g. cosine wants the L2-normalised view, the binary measures want the
    binarised view), and the name of the LSH family whose collision
    probability estimates them.
    """

    #: short machine-readable name ("cosine", "jaccard", "binary_cosine")
    name: str = ""
    #: LSH family used for this measure ("simhash" or "minhash")
    lsh_family: str = ""

    @abstractmethod
    def prepare(self, collection: VectorCollection) -> VectorCollection:
        """Return the view of ``collection`` this measure operates on."""

    @abstractmethod
    def exact(self, collection: VectorCollection, i: int, j: int) -> float:
        """Exact similarity between rows ``i`` and ``j`` of a *prepared* collection.

        Bit for bit the value ``exact_similarities_for_pairs`` returns for
        the pair, alone or inside any batch.
        """

    def pairwise_matrix(self, collection: VectorCollection) -> np.ndarray:
        """Dense ``n x n`` matrix of exact similarities (for ground truth / tests).

        Quadratic in the number of vectors; only intended for the evaluation
        harness and for small collections.
        """
        prepared = self.prepare(collection)
        n = prepared.n_vectors
        result = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            result[i, i] = 1.0 if prepared.row_nnz[i] > 0 else 0.0
            for j in range(i + 1, n):
                sim = self.exact(prepared, i, j)
                result[i, j] = sim
                result[j, i] = sim
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CosineSimilarity(SimilarityMeasure):
    """Cosine similarity on real-valued (typically TF-IDF weighted) vectors."""

    name = "cosine"
    lsh_family = "simhash"

    def prepare(self, collection: VectorCollection) -> VectorCollection:
        return collection.normalized()

    def exact(self, collection: VectorCollection, i: int, j: int) -> float:
        return cosine_similarity(collection, i, j)


class JaccardSimilarity(SimilarityMeasure):
    """Jaccard similarity on binary vectors (sets of feature ids)."""

    name = "jaccard"
    lsh_family = "minhash"

    def prepare(self, collection: VectorCollection) -> VectorCollection:
        return collection.binarized()

    def exact(self, collection: VectorCollection, i: int, j: int) -> float:
        return jaccard_similarity(collection, i, j)


class BinaryCosineSimilarity(SimilarityMeasure):
    """Cosine similarity computed on the binarised vectors."""

    name = "binary_cosine"
    lsh_family = "simhash"

    def prepare(self, collection: VectorCollection) -> VectorCollection:
        return collection.binarized()

    def exact(self, collection: VectorCollection, i: int, j: int) -> float:
        return binary_cosine_similarity(collection, i, j)


_MEASURES: dict[str, type[SimilarityMeasure]] = {
    "cosine": CosineSimilarity,
    "jaccard": JaccardSimilarity,
    "binary_cosine": BinaryCosineSimilarity,
}


def get_measure(name: str | SimilarityMeasure) -> SimilarityMeasure:
    """Resolve a measure name (or pass an instance through).

    Accepts ``"cosine"``, ``"jaccard"`` and ``"binary_cosine"``.
    """
    if isinstance(name, SimilarityMeasure):
        return name
    try:
        return _MEASURES[name]()
    except KeyError:
        known = ", ".join(sorted(_MEASURES))
        raise ValueError(f"unknown similarity measure {name!r}; expected one of: {known}") from None
