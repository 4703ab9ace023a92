"""Unit tests for query-centric similarity search (QueryIndex)."""

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.similarity.measures import get_measure


@pytest.fixture(scope="module")
def cosine_index(sparse_text_collection):
    return QueryIndex(sparse_text_collection, measure="cosine", threshold=0.7, seed=3)


class TestQueryIndexCosine:
    def test_query_with_existing_row_finds_itself(self, sparse_text_collection, cosine_index):
        row = 5
        query = sparse_text_collection.matrix[row].toarray().ravel()
        hits = cosine_index.query(query, threshold=0.9)
        assert row in {pair.j for pair in hits}
        by_row = {pair.j: pair.similarity for pair in hits}
        assert by_row[row] > 0.9

    def test_query_results_are_truly_similar(self, sparse_text_collection, cosine_index):
        measure = get_measure("cosine")
        prepared = measure.prepare(sparse_text_collection)
        query_row = 10
        query = sparse_text_collection.matrix[query_row].toarray().ravel()
        for pair in cosine_index.query(query, threshold=0.7):
            if pair.j == query_row:
                continue
            exact = measure.exact(prepared, query_row, pair.j)
            assert exact > 0.5  # estimates can wobble, but hits must be genuinely similar

    def test_exact_verification_mode(self, sparse_text_collection):
        index = QueryIndex(
            sparse_text_collection, measure="cosine", threshold=0.7, verification="exact", seed=3
        )
        query = sparse_text_collection.matrix[7].toarray().ravel()
        hits = index.query(query)
        measure = get_measure("cosine")
        prepared = measure.prepare(sparse_text_collection)
        for pair in hits:
            if pair.j != 7:
                assert pair.similarity == pytest.approx(measure.exact(prepared, 7, pair.j), abs=1e-9)

    def test_top_k_ordering_and_size(self, sparse_text_collection, cosine_index):
        query = sparse_text_collection.matrix[3].toarray().ravel()
        top = cosine_index.top_k(query, k=5)
        assert len(top) <= 5
        similarities = [pair.similarity for pair in top]
        assert similarities == sorted(similarities, reverse=True)
        assert top[0].j == 3  # the row itself is its own nearest neighbour

    def test_empty_query_returns_nothing(self, sparse_text_collection, cosine_index):
        assert cosine_index.query(np.zeros(sparse_text_collection.n_features)) == []

    def test_feature_mismatch_rejected(self, cosine_index):
        with pytest.raises(ValueError, match="features"):
            cosine_index.query(np.ones(3))

    def test_invalid_parameters(self, sparse_text_collection):
        with pytest.raises(ValueError):
            QueryIndex(sparse_text_collection, threshold=1.5)
        with pytest.raises(ValueError):
            QueryIndex(sparse_text_collection, verification="magic")
        with pytest.raises(ValueError):
            QueryIndex(sparse_text_collection).query(np.ones(1), threshold=0.0)
        with pytest.raises(ValueError):
            QueryIndex(sparse_text_collection).top_k(np.ones(1), k=0)

    def test_index_properties(self, sparse_text_collection, cosine_index):
        assert cosine_index.n_indexed == sparse_text_collection.n_vectors
        assert cosine_index.n_signatures >= 1


class TestQueryIndexServing:
    def test_query_many_accepts_matrix_and_row_lists(self, sparse_text_collection):
        index = QueryIndex(
            sparse_text_collection, measure="cosine", threshold=0.7, verification="exact", seed=3
        )
        dense = sparse_text_collection.matrix[:4].toarray()
        from_matrix = index.query_many(dense, threshold=0.8)
        from_sparse = index.query_many(sparse_text_collection.matrix[:4], threshold=0.8)
        assert from_matrix == from_sparse
        assert len(from_matrix) == 4
        for row, hits in enumerate(from_matrix):
            assert row in {pair.j for pair in hits}

    def test_insert_then_query_finds_new_rows(self, sparse_text_collection):
        index = QueryIndex(
            sparse_text_collection, measure="cosine", threshold=0.7, verification="exact", seed=3
        )
        fresh = sparse_text_collection.matrix[:3].toarray() * 1.5  # same directions
        rows = index.insert(fresh)
        assert rows.tolist() == [150, 151, 152]
        assert index.n_indexed == 153
        assert index.n_alive == 153
        hits = index.query(fresh[0], threshold=0.95)
        assert {0, 150} <= {pair.j for pair in hits}

    def test_insert_validates_shapes_and_ids(self, sparse_text_collection):
        index = QueryIndex(sparse_text_collection, measure="cosine", seed=3)
        with pytest.raises(ValueError, match="features"):
            index.insert(np.ones((2, 3)))
        with pytest.raises(ValueError, match="ids"):
            index.insert(
                sparse_text_collection.matrix[:2].toarray(), ids=["only-one"]
            )
        assert index.insert([]).size == 0

    def test_delete_tombstones_and_accounting(self, sparse_text_collection):
        index = QueryIndex(
            sparse_text_collection,
            measure="cosine",
            threshold=0.7,
            verification="exact",
            seed=3,
        )
        query = sparse_text_collection.matrix[5].toarray().ravel()
        assert 5 in {pair.j for pair in index.query(query, threshold=0.9)}
        assert index.delete([5]) == 1
        assert index.n_deleted == 1
        assert index.n_alive == index.n_indexed - 1
        assert 5 not in {pair.j for pair in index.query(query, threshold=0.9)}
        # Idempotent, and bounds are validated.
        assert index.delete([5]) == 0
        with pytest.raises(IndexError):
            index.delete([index.n_indexed])

    def test_insert_merge_drops_tombstoned_rows_from_the_postings(
        self, sparse_text_collection
    ):
        """An insert whose run merges into the corpus's drops the rows
        tombstoned by then; the tombstones themselves stay."""
        matrix = sparse_text_collection.matrix
        index = QueryIndex(matrix[:-2], measure="cosine", threshold=0.7, seed=3)
        ((_, rows),) = index._postings.runs
        assert {1, 2} <= set(rows.tolist())
        index.delete([1, 2])
        index.insert(matrix[-2:])
        assert len(index._postings.runs) == 2  # the small run merges later
        index.insert(matrix[-1:].toarray().repeat(len(set(rows.tolist())) // 2, axis=0))
        ((_, rows),) = index._postings.runs
        assert not {1, 2} & set(rows.tolist())
        assert index.n_deleted == 2


class TestQueryIndexJaccard:
    def test_set_query(self, binary_sets_collection):
        index = QueryIndex(binary_sets_collection, measure="jaccard", threshold=0.5, seed=1)
        row = 4
        query_set = set(binary_sets_collection.row_features(row).tolist())
        hits = index.query(query_set, threshold=0.8)
        assert row in {pair.j for pair in hits}

    def test_dict_query_binary_cosine(self, binary_sets_collection):
        index = QueryIndex(
            binary_sets_collection, measure="binary_cosine", threshold=0.7, verification="exact", seed=1
        )
        row = 9
        query = {int(f): 1.0 for f in binary_sets_collection.row_features(row)}
        hits = index.query(query)
        assert row in {pair.j for pair in hits}


def _top_k_by_python_sort(index, queries, k, floor_threshold, rank_by):
    """The per-object ranking ``top_k_many`` replaced, kept as the reference:
    wrap every candidate, filter, ``list.sort`` and slice, one query at a time."""
    n_queries, query_rows, rows, values, exact = index._scored_candidates(
        queries, "estimate" if rank_by == "estimate" else None, None, None
    )
    if rank_by == "estimate":
        keep = ~np.isnan(values)
        query_rows, rows, values, exact = query_rows[keep], rows[keep], values[keep], exact[keep]
    results = []
    for scored in QueryIndex._group_pairs(n_queries, query_rows, rows, values, exact):
        scored = [pair for pair in scored if pair.similarity > floor_threshold]
        scored.sort(key=lambda pair: pair.similarity, reverse=True)
        results.append(scored[:k])
    return results


class TestTopKSelection:
    """Array-side top-k selection == the per-object Python sort, ties included."""

    @pytest.fixture(scope="class")
    def duplicated(self):
        """15 distinct sparse rows, each present five times, plus an empty query."""
        rng = np.random.default_rng(23)
        distinct = rng.random((15, 40)) * (rng.random((15, 40)) < 0.3)
        corpus = np.tile(distinct, (5, 1))
        queries = np.vstack([distinct, np.zeros((1, 40))])
        index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=5)
        return index, queries

    @pytest.mark.parametrize("rank_by", ["exact", "estimate"])
    @pytest.mark.parametrize("k", [1, 10, 1000])
    @pytest.mark.parametrize("floor_threshold", [0.1, 0.7])
    def test_equals_python_sort(self, duplicated, rank_by, k, floor_threshold):
        index, queries = duplicated
        result = index.top_k_many(queries, k=k, floor_threshold=floor_threshold, rank_by=rank_by)
        assert result == _top_k_by_python_sort(index, queries, k, floor_threshold, rank_by)
        assert len(result) == len(queries) and result[-1] == []
        assert all(len(hits) <= k for hits in result)

    @pytest.mark.parametrize("rank_by", ["exact", "estimate"])
    def test_ties_are_real_and_keep_ascending_row_order(self, duplicated, rank_by):
        index, queries = duplicated
        for hits in index.top_k_many(queries[:15], k=10, rank_by=rank_by):
            copies = [pair.j for pair in hits if pair.similarity == hits[0].similarity]
            assert len(copies) >= 5, "every query row has five identical copies indexed"
            assert copies == sorted(copies)
            similarities = [pair.similarity for pair in hits]
            assert similarities == sorted(similarities, reverse=True)

    @pytest.mark.parametrize("rank_by", ["exact", "estimate"])
    def test_floor_above_every_similarity_returns_nothing(self, duplicated, rank_by):
        index, queries = duplicated
        result = index.top_k_many(queries, k=10, floor_threshold=1.5, rank_by=rank_by)
        assert result == [[] for _ in range(len(queries))]
        assert result == _top_k_by_python_sort(index, queries, 10, 1.5, rank_by)

    @pytest.mark.parametrize("rank_by", ["exact", "estimate"])
    def test_nan_floor_is_refused_not_an_empty_answer(self, duplicated, rank_by):
        index, queries = duplicated
        with pytest.raises(ValueError, match="floor_threshold"):
            index.top_k_many(queries, k=10, floor_threshold=float("nan"), rank_by=rank_by)
