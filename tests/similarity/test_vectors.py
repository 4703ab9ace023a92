"""Unit tests for repro.similarity.vectors.VectorCollection."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.similarity.vectors import VectorCollection


class TestConstruction:
    def test_from_dense(self):
        collection = VectorCollection.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        assert collection.n_vectors == 2
        assert collection.n_features == 3
        assert collection.nnz == 3

    def test_from_sparse_matrix(self):
        matrix = sp.random(20, 30, density=0.1, random_state=0, format="csr")
        matrix.data = np.abs(matrix.data)
        collection = VectorCollection(matrix)
        assert collection.n_vectors == 20
        assert collection.n_features == 30

    def test_from_sets(self):
        collection = VectorCollection.from_sets([{0, 2}, {1}, set()], n_features=4)
        assert collection.n_vectors == 3
        assert collection.n_features == 4
        assert collection.row_set(0) == frozenset({0, 2})
        assert collection.row_set(2) == frozenset()
        assert collection.is_binary

    def test_from_sets_infers_feature_count(self):
        collection = VectorCollection.from_sets([{0, 5}, {3}])
        assert collection.n_features == 6

    def test_from_sets_rejects_out_of_range_token(self):
        with pytest.raises(ValueError, match="out of range"):
            VectorCollection.from_sets([{0, 9}], n_features=5)

    def test_from_sets_rejects_negative_token(self):
        with pytest.raises(ValueError, match="non-negative"):
            VectorCollection.from_sets([{-1, 2}])

    def test_from_dicts(self):
        collection = VectorCollection.from_dicts([{0: 1.5, 3: 2.0}, {1: 0.5}], n_features=5)
        assert collection.n_vectors == 2
        assert collection.row_values(0).tolist() == [1.5, 2.0]
        assert not collection.is_binary

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            VectorCollection.from_dense([[1.0, -0.5]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            VectorCollection.from_dense([1.0, 2.0, 3.0])

    def test_ids_default_and_custom(self):
        collection = VectorCollection.from_dense(np.ones((3, 2)))
        assert collection.ids.tolist() == [0, 1, 2]
        named = VectorCollection.from_dense(np.ones((2, 2)), ids=["a", "b"])
        assert list(named.ids) == ["a", "b"]

    def test_ids_length_mismatch(self):
        with pytest.raises(ValueError, match="ids has length"):
            VectorCollection.from_dense(np.ones((3, 2)), ids=["only-one"])

    def test_explicit_zeros_are_dropped(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        collection = VectorCollection(matrix)
        assert collection.nnz == 1
        assert collection.row_nnz.tolist() == [1, 0]


class TestRepeatedColumnIndices:
    """scipy accepts a CSR row that names a column twice; the entries add up."""

    @pytest.fixture()
    def pair(self):
        # row 0 names column 1 twice (and column 2 once); row 1 is canonical
        repeated = sp.csr_matrix(
            ([1.0, 1.0, 1.0, 1.0, 1.0], [1, 1, 2, 1, 2], [0, 3, 5]), shape=(2, 4)
        )
        dense = np.array([[0.0, 2.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        return repeated, VectorCollection(repeated), VectorCollection.from_dense(dense)

    def test_collection_equals_the_dense_input(self, pair):
        repeated, collection, expected = pair
        for got, want in (
            (collection, expected),
            (collection.binarized(), expected.binarized()),
            (collection.normalized(), expected.normalized()),
        ):
            assert got.matrix.has_canonical_format
            assert got.matrix.indptr.tolist() == want.matrix.indptr.tolist()
            assert got.matrix.indices.tolist() == want.matrix.indices.tolist()
            assert got.matrix.data.tolist() == want.matrix.data.tolist()
            assert got.row_nnz.tolist() == want.row_nnz.tolist()
            assert got.norms.tolist() == want.norms.tolist()
        assert collection.row_nnz.tolist() == [2, 2]
        assert repeated.indices.tolist() == [1, 1, 2, 1, 2]  # the caller's matrix is untouched

    @pytest.mark.parametrize("name", ["cosine", "jaccard", "binary_cosine"])
    def test_measures_return_the_dense_input_values(self, pair, name):
        from repro.similarity.measures import get_measure
        from repro.verification.base import exact_similarities_for_pairs

        _, collection, expected = pair
        measure = get_measure(name)
        want = measure.exact(measure.prepare(expected), 0, 1)
        prepared = measure.prepare(collection)
        assert want <= 1.0
        assert measure.exact(prepared, 0, 1) == want
        assert exact_similarities_for_pairs(prepared, measure, [0], [1]).tolist() == [want]

    def test_cancelling_duplicates_leave_no_stored_zero(self):
        matrix = sp.csr_matrix(([1.0, -1.0, 2.0], [0, 0, 1], [0, 3]), shape=(1, 2))
        collection = VectorCollection(matrix)
        assert collection.row_nnz.tolist() == [1]
        assert collection.matrix.indices.tolist() == [1]


class TestStatistics:
    def test_norms(self, tiny_collection):
        assert tiny_collection.norms[0] == pytest.approx(np.sqrt(3.0))
        assert tiny_collection.norms[2] == pytest.approx(np.sqrt(5.0))
        assert tiny_collection.norms[5] == 0.0

    def test_row_nnz(self, tiny_collection):
        assert tiny_collection.row_nnz.tolist() == [3, 4, 2, 3, 1, 0]

    def test_max_weights(self, tiny_collection):
        assert tiny_collection.max_weights[2] == 2.0
        assert tiny_collection.max_weights[5] == 0.0

    def test_average_length(self, tiny_collection):
        assert tiny_collection.average_length == pytest.approx((3 + 4 + 2 + 3 + 1 + 0) / 6)

    def test_average_length_empty_collection(self):
        collection = VectorCollection.from_dense(np.zeros((0, 4)))
        assert collection.average_length == 0.0

    def test_len_and_repr(self, tiny_collection):
        assert len(tiny_collection) == 6
        assert "n_vectors=6" in repr(tiny_collection)


class TestRowAccess:
    def test_row_features_sorted(self, tiny_collection):
        features = tiny_collection.row_features(1)
        assert features.tolist() == sorted(features.tolist())

    def test_row_returns_sparse_row(self, tiny_collection):
        row = tiny_collection.row(0)
        assert row.shape == (1, 8)
        assert row.nnz == 3

    def test_subset_preserves_rows(self, tiny_collection):
        subset = tiny_collection.subset([1, 3])
        assert subset.n_vectors == 2
        assert subset.row_set(0) == tiny_collection.row_set(1)
        assert subset.row_set(1) == tiny_collection.row_set(3)
        assert subset.ids.tolist() == [1, 3]


class TestDerivedViews:
    def test_binarized_sets_all_weights_to_one(self, tiny_collection):
        binary = tiny_collection.binarized()
        assert binary.is_binary
        assert binary.row_nnz.tolist() == tiny_collection.row_nnz.tolist()
        # weighted collection untouched
        assert tiny_collection.max_weights[2] == 2.0

    def test_binarized_is_cached_and_idempotent(self, tiny_collection):
        first = tiny_collection.binarized()
        assert tiny_collection.binarized() is first
        assert first.binarized() is first

    def test_normalized_rows_have_unit_norm(self, tiny_collection):
        normalized = tiny_collection.normalized()
        norms = normalized.norms
        nonzero = tiny_collection.row_nnz > 0
        np.testing.assert_allclose(norms[nonzero], 1.0, rtol=1e-12)
        assert norms[~nonzero].tolist() == [0.0]

    def test_normalized_is_cached(self, tiny_collection):
        assert tiny_collection.normalized() is tiny_collection.normalized()
