"""Canonical in-memory representation of a vector collection.

Every algorithm in the library (hashing, candidate generation, verification)
operates on a :class:`VectorCollection`, a thin immutable wrapper around a
``scipy.sparse.csr_matrix`` that pre-computes the per-row statistics the
algorithms need over and over again: L2 norms, number of non-zeros,
maximum weights, and (lazily) the binary version of the data.

The wrapper exists for three reasons:

* the paper's algorithms mix *weighted* and *binary* views of the same data
  (AllPairs works on L2-normalised weighted vectors, PPJoin+ and minhash work
  on the binary token sets), and keeping both views coherent in one object
  avoids a whole class of bugs;
* per-row statistics such as ``max_weights`` and ``norms`` are needed by the
  pruning bounds of AllPairs and by TF-IDF construction, and computing them
  once is markedly cheaper than recomputing inside inner loops;
* the class normalises the many accepted input formats (dense arrays, CSR
  matrices, lists of token iterables, lists of ``{feature: weight}`` dicts)
  into one predictable shape.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["VectorCollection"]


def _as_csr(matrix) -> sp.csr_matrix:
    """Convert ``matrix`` to a canonical float64 CSR matrix."""
    if sp.issparse(matrix):
        csr = matrix.tocsr()
    else:
        array = np.asarray(matrix, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(
                f"expected a 2-D array of shape (n_vectors, n_features), got ndim={array.ndim}"
            )
        csr = sp.csr_matrix(array)
    csr = csr.astype(np.float64)
    csr.sum_duplicates()  # also sorts the indices; scipy accepts repeated columns
    csr.eliminate_zeros()
    return csr


class VectorCollection:
    """An immutable collection of sparse vectors with cached row statistics.

    Parameters
    ----------
    matrix:
        Anything convertible to a CSR matrix of shape
        ``(n_vectors, n_features)``.  Negative weights are rejected: every
        similarity measure in the paper (cosine on TF-IDF data, Jaccard on
        sets) assumes non-negative data, and the cosine LSH posterior relies
        on the collision probability living in ``[0.5, 1]``, which requires
        non-negative vectors.
    ids:
        Optional external identifiers, one per vector.  Defaults to
        ``0..n_vectors-1``.
    """

    def __init__(self, matrix, ids: Sequence | None = None):
        self._matrix = _as_csr(matrix)
        if self._matrix.nnz and self._matrix.data.min() < 0:
            raise ValueError(
                "VectorCollection requires non-negative weights; "
                "cosine-LSH pruning assumes similarities in [0, 1]"
            )
        n = self._matrix.shape[0]
        if ids is None:
            self._ids = np.arange(n, dtype=np.int64)
        else:
            self._ids = np.asarray(list(ids))
            if len(self._ids) != n:
                raise ValueError(
                    f"ids has length {len(self._ids)} but the matrix has {n} rows"
                )
        self._norms: np.ndarray | None = None
        self._row_nnz: np.ndarray | None = None
        self._max_weights: np.ndarray | None = None
        self._binary: VectorCollection | None = None
        self._normalized: VectorCollection | None = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, array, ids: Sequence | None = None) -> "VectorCollection":
        """Build a collection from a dense 2-D array."""
        return cls(np.asarray(array, dtype=np.float64), ids=ids)

    @classmethod
    def restored(
        cls,
        components: tuple[np.ndarray, np.ndarray, np.ndarray],
        shape: tuple[int, int],
        ids: Sequence | None = None,
    ) -> "VectorCollection":
        """Adopt canonical CSR ``(data, indices, indptr)`` components as-is.

        The snapshot-restore twin of the constructor: the components must
        have been produced by this class (so they are already float64,
        index-sorted, zero-free and non-negative) and are adopted without
        re-canonicalisation or copies.  That is what keeps memory-mapped
        snapshot components *lazy* — the validating constructor would fault
        in and copy every page.  Never pass untrusted input here.
        """
        instance = cls.__new__(cls)
        instance._matrix = sp.csr_matrix(components, shape=shape, copy=False)
        n = instance._matrix.shape[0]
        if ids is None:
            instance._ids = np.arange(n, dtype=np.int64)
        else:
            instance._ids = np.asarray(ids)
            if len(instance._ids) != n:
                raise ValueError(
                    f"ids has length {len(instance._ids)} but the matrix has {n} rows"
                )
        instance._norms = None
        instance._row_nnz = None
        instance._max_weights = None
        instance._binary = None
        instance._normalized = None
        return instance

    @classmethod
    def from_sets(
        cls,
        sets: Iterable[Iterable[int]],
        n_features: int | None = None,
        ids: Sequence | None = None,
    ) -> "VectorCollection":
        """Build a binary collection from an iterable of token-id sets."""
        rows: list[int] = []
        cols: list[int] = []
        n_rows = 0
        max_feature = -1
        for row_index, tokens in enumerate(sets):
            n_rows = row_index + 1
            for token in set(tokens):
                token = int(token)
                if token < 0:
                    raise ValueError("token ids must be non-negative integers")
                rows.append(row_index)
                cols.append(token)
                max_feature = max(max_feature, token)
        if n_features is None:
            n_features = max_feature + 1 if max_feature >= 0 else 0
        elif max_feature >= n_features:
            raise ValueError(
                f"token id {max_feature} out of range for n_features={n_features}"
            )
        data = np.ones(len(rows), dtype=np.float64)
        matrix = sp.csr_matrix(
            (data, (rows, cols)), shape=(n_rows, n_features), dtype=np.float64
        )
        return cls(matrix, ids=ids)

    @classmethod
    def from_dicts(
        cls,
        dicts: Iterable[Mapping[int, float]],
        n_features: int | None = None,
        ids: Sequence | None = None,
    ) -> "VectorCollection":
        """Build a weighted collection from ``{feature_id: weight}`` mappings."""
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        n_rows = 0
        max_feature = -1
        for row_index, mapping in enumerate(dicts):
            n_rows = row_index + 1
            for token, weight in mapping.items():
                token = int(token)
                rows.append(row_index)
                cols.append(token)
                vals.append(float(weight))
                max_feature = max(max_feature, token)
        if n_features is None:
            n_features = max_feature + 1 if max_feature >= 0 else 0
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(n_rows, n_features), dtype=np.float64
        )
        return cls(matrix, ids=ids)

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def matrix(self) -> sp.csr_matrix:
        """The underlying CSR matrix (do not mutate)."""
        return self._matrix

    @property
    def ids(self) -> np.ndarray:
        """External identifiers, one per row."""
        return self._ids

    @property
    def n_vectors(self) -> int:
        return self._matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self._matrix.shape[1]

    @property
    def nnz(self) -> int:
        """Total number of stored non-zero entries."""
        return int(self._matrix.nnz)

    def __len__(self) -> int:
        return self.n_vectors

    def __repr__(self) -> str:
        return (
            f"VectorCollection(n_vectors={self.n_vectors}, "
            f"n_features={self.n_features}, nnz={self.nnz})"
        )

    # ------------------------------------------------------------------ #
    # cached row statistics
    # ------------------------------------------------------------------ #
    @property
    def norms(self) -> np.ndarray:
        """Per-row L2 norms."""
        if self._norms is None:
            matrix = self._matrix
            squares = matrix.data * matrix.data
            if squares.all():
                # scipy's own row sum, without the product matrix around it
                squared = np.zeros(self.n_vectors, dtype=np.float64)
                nonempty = np.flatnonzero(self.row_nnz)
                squared[nonempty] = np.add.reduceat(squares, matrix.indptr[nonempty])
            else:  # a square underflowed: scipy drops it before it sums
                squared = np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel()
            self._norms = np.sqrt(squared)
        return self._norms

    @property
    def row_nnz(self) -> np.ndarray:
        """Per-row number of non-zero features (the "length" in the paper)."""
        if self._row_nnz is None:
            self._row_nnz = np.diff(self._matrix.indptr).astype(np.int64)
        return self._row_nnz

    @property
    def max_weights(self) -> np.ndarray:
        """Per-row maximum weight (0 for empty rows); used by AllPairs bounds."""
        if self._max_weights is None:
            result = np.zeros(self.n_vectors, dtype=np.float64)
            matrix = self._matrix
            nonempty = np.flatnonzero(np.diff(matrix.indptr) > 0)
            if len(nonempty):
                # One segmented reduction over the non-empty rows; consecutive
                # non-empty starts bound each row's data segment exactly.
                result[nonempty] = np.maximum.reduceat(
                    matrix.data, matrix.indptr[nonempty]
                )
            self._max_weights = result
        return self._max_weights

    @property
    def average_length(self) -> float:
        """Average number of non-zeros per vector (Table 1's "Avg. len")."""
        if self.n_vectors == 0:
            return 0.0
        return float(self.row_nnz.mean())

    @property
    def is_binary(self) -> bool:
        """True when every stored value equals 1."""
        if self._matrix.nnz == 0:
            return True
        return bool(np.all(self._matrix.data == 1.0))

    # ------------------------------------------------------------------ #
    # row access
    # ------------------------------------------------------------------ #
    def row(self, index: int) -> sp.csr_matrix:
        """The ``index``-th vector as a 1 x n_features CSR matrix."""
        return self._matrix.getrow(index)

    def row_features(self, index: int) -> np.ndarray:
        """Feature ids of the non-zero entries of row ``index`` (sorted)."""
        start, end = self._matrix.indptr[index], self._matrix.indptr[index + 1]
        return self._matrix.indices[start:end]

    def row_values(self, index: int) -> np.ndarray:
        """Weights of the non-zero entries of row ``index``."""
        start, end = self._matrix.indptr[index], self._matrix.indptr[index + 1]
        return self._matrix.data[start:end]

    def row_set(self, index: int) -> frozenset:
        """The feature ids of row ``index`` as a frozenset (for Jaccard)."""
        return frozenset(int(f) for f in self.row_features(index))

    def subset(self, indices: Sequence[int]) -> "VectorCollection":
        """A new collection containing only the given row indices, in order."""
        indices = np.asarray(indices, dtype=np.int64)
        return VectorCollection(self._matrix[indices], ids=self._ids[indices])

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def binarized(self) -> "VectorCollection":
        """Binary view of this collection (all non-zero weights become 1)."""
        if self.is_binary:
            return self
        if self._binary is None:
            binary = self._matrix.copy()
            binary.data = np.ones_like(binary.data)
            self._binary = VectorCollection(binary, ids=self._ids)
        return self._binary

    def normalized(self) -> "VectorCollection":
        """L2-normalised view (rows with zero norm are left untouched)."""
        if self._normalized is None:
            norms = self.norms.copy()
            norms[norms == 0.0] = 1.0
            matrix = self._matrix
            data = matrix.data * np.repeat(1.0 / norms, self.row_nnz)
            if data.all():  # still zero-free, hence canonical: adopt as is
                self._normalized = VectorCollection.restored(
                    (data, matrix.indices, matrix.indptr), matrix.shape, ids=self._ids
                )
            else:  # a product underflowed; the constructor drops the entry
                scaled = sp.csr_matrix((data, matrix.indices, matrix.indptr), shape=matrix.shape)
                self._normalized = VectorCollection(scaled, ids=self._ids)
        return self._normalized
