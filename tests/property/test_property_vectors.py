"""Property-based tests for the similarity substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.similarity.measures import (
    binary_cosine_similarity,
    cosine_similarity,
    jaccard_similarity,
)
from repro.similarity.transforms import l2_normalize, tfidf_weighting
from repro.similarity.vectors import VectorCollection

_SETTINGS = settings(max_examples=40, deadline=None)

dense_collections = st.integers(min_value=0, max_value=10_000).map(
    lambda seed: VectorCollection.from_dense(
        np.random.default_rng(seed).random((8, 6))
        * (np.random.default_rng(seed + 1).random((8, 6)) < 0.6)
    )
)
row_indices = st.tuples(
    st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
)


class TestSimilarityProperties:
    @_SETTINGS
    @given(dense_collections, row_indices)
    def test_similarities_bounded_and_symmetric(self, collection, indices):
        i, j = indices
        for function in (cosine_similarity, jaccard_similarity, binary_cosine_similarity):
            value = function(collection, i, j)
            assert 0.0 <= value <= 1.0 + 1e-12
            assert value == function(collection, j, i)

    @_SETTINGS
    @given(dense_collections, st.integers(min_value=0, max_value=7))
    def test_self_similarity_is_one_for_nonempty_rows(self, collection, i):
        if collection.row_nnz[i] == 0:
            return
        assert abs(cosine_similarity(collection, i, i) - 1.0) < 1e-9
        assert jaccard_similarity(collection, i, i) == 1.0

    @_SETTINGS
    @given(dense_collections, row_indices)
    def test_jaccard_lower_bounds_binary_cosine(self, collection, indices):
        """For sets, J(x,y) <= binary-cosine(x,y): AM-GM on the denominator."""
        i, j = indices
        assert (
            jaccard_similarity(collection, i, j)
            <= binary_cosine_similarity(collection, i, j) + 1e-12
        )

    @_SETTINGS
    @given(dense_collections, row_indices)
    def test_cosine_invariant_to_normalization(self, collection, indices):
        i, j = indices
        normalized = l2_normalize(collection)
        assert abs(
            cosine_similarity(collection, i, j) - cosine_similarity(normalized, i, j)
        ) < 1e-9

    @_SETTINGS
    @given(dense_collections)
    def test_tfidf_preserves_shape_and_support(self, collection):
        weighted = tfidf_weighting(collection)
        assert weighted.n_vectors == collection.n_vectors
        assert weighted.n_features == collection.n_features
        assert weighted.nnz == collection.nnz


class TestRowStatisticsMatchScipy:
    """``norms`` / ``normalized()`` work on the CSR arrays; scipy's expressions
    (what they replaced) stay here as the reference, equal bit for bit."""

    @staticmethod
    def _reference(matrix):
        import scipy.sparse as sp

        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        scale = norms.copy()
        scale[scale == 0.0] = 1.0
        return norms, VectorCollection(sp.diags(1.0 / scale) @ matrix).matrix

    @staticmethod
    def _assert_equal(collection):
        norms, normalized = TestRowStatisticsMatchScipy._reference(collection.matrix)
        np.testing.assert_array_equal(collection.norms, norms)
        result = collection.normalized().matrix
        assert result.shape == normalized.shape
        np.testing.assert_array_equal(result.data, normalized.data)
        np.testing.assert_array_equal(result.indices, normalized.indices)
        np.testing.assert_array_equal(result.indptr, normalized.indptr)
        assert result.has_canonical_format

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([1.0, 1e-3, 1e150, 1e-160]),
    )
    def test_random_collections(self, seed, n_rows, n_features, density, scale):
        rng = np.random.default_rng(seed)
        dense = rng.random((n_rows, n_features)) * (rng.random((n_rows, n_features)) < density)
        dense[::4] *= scale  # 1e-160: squares underflow and scipy drops them
        if n_rows > 2:
            dense[1] = 0.0  # an all-zero row among the others
        self._assert_equal(VectorCollection.from_dense(dense))

    def test_degenerate_shapes(self):
        self._assert_equal(VectorCollection.from_dense(np.zeros((0, 5))))
        self._assert_equal(VectorCollection.from_dense(np.zeros((3, 5))))
        self._assert_equal(VectorCollection.from_dense(np.array([[0.0, 3.0, 4.0]])))
        self._assert_equal(VectorCollection.from_sets([{1, 2}, set(), {0}], n_features=4))
        # a product that underflows to zero is dropped, as the constructor would
        tiny = VectorCollection.from_dense(np.array([[5e-324, 3.0], [0.0, 2.0]]))
        self._assert_equal(tiny)
        assert tiny.normalized().nnz == 2
