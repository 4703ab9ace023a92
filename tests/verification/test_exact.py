"""Unit tests for the exact verifier and the shared vectorised similarity helper."""

import numpy as np
import pytest

from repro.candidates.base import CandidateSet
from repro.similarity.measures import SimilarityMeasure, get_measure
from repro.verification.base import cross_similarities_for_pairs, exact_similarities_for_pairs
from repro.verification.exact import ExactVerifier


class TestExactSimilaritiesForPairs:
    @pytest.mark.parametrize("measure_name", ["cosine", "jaccard", "binary_cosine"])
    def test_matches_scalar_computation(self, sparse_text_collection, measure_name):
        measure = get_measure(measure_name)
        prepared = measure.prepare(sparse_text_collection)
        rng = np.random.default_rng(3)
        left = rng.integers(0, prepared.n_vectors, size=50)
        right = rng.integers(0, prepared.n_vectors, size=50)
        batch = exact_similarities_for_pairs(prepared, measure, left, right)
        for value, i, j in zip(batch, left, right):
            assert value == pytest.approx(measure.exact(prepared, int(i), int(j)), abs=1e-9)

    def test_chunking_does_not_change_results(self, sparse_text_collection):
        measure = get_measure("cosine")
        prepared = measure.prepare(sparse_text_collection)
        left = np.arange(0, 100)
        right = np.arange(1, 101)
        small_chunks = exact_similarities_for_pairs(prepared, measure, left, right, chunk_size=7)
        one_chunk = exact_similarities_for_pairs(prepared, measure, left, right, chunk_size=10_000)
        np.testing.assert_allclose(small_chunks, one_chunk)

    def test_empty_input(self, sparse_text_collection):
        measure = get_measure("cosine")
        prepared = measure.prepare(sparse_text_collection)
        assert len(exact_similarities_for_pairs(prepared, measure, [], [])) == 0

    def test_a_measure_without_a_pair_kernel_is_refused_by_name(self, sparse_text_collection):
        class Overlap(SimilarityMeasure):
            """Shared-feature count: a measure no pair kernel knows."""

            name = "overlap"
            lsh_family = "minhash"

            def prepare(self, collection):
                return collection.binarized()

            def exact(self, collection, i, j):
                return float(collection.matrix[i].multiply(collection.matrix[j]).sum())

        measure = Overlap()
        prepared = measure.prepare(sparse_text_collection)
        for call in (
            lambda: exact_similarities_for_pairs(prepared, measure, [0], [1]),
            lambda: cross_similarities_for_pairs(prepared, prepared, measure, [], []),
        ):
            with pytest.raises(ValueError, match="'overlap'"):
                call()


class TestExactVerifier:
    def test_keeps_only_pairs_above_threshold(self, sparse_text_collection):
        verifier = ExactVerifier(sparse_text_collection, "cosine", 0.7)
        left, right = np.triu_indices(80, k=1)
        candidates = CandidateSet(left=left.astype(np.int64), right=right.astype(np.int64))
        output = verifier.verify(candidates)
        assert output.n_candidates == len(candidates)
        assert output.n_pruned == output.n_candidates - output.n_output
        for i, j, value in zip(output.left, output.right, output.estimates):
            assert value > 0.7
            assert value == pytest.approx(verifier.exact_similarity(int(i), int(j)))

    def test_finds_every_true_pair_among_candidates(self, sparse_text_collection):
        verifier = ExactVerifier(sparse_text_collection, "cosine", 0.6)
        left, right = np.triu_indices(80, k=1)
        candidates = CandidateSet(left=left.astype(np.int64), right=right.astype(np.int64))
        output = verifier.verify(candidates)
        expected = {
            (int(i), int(j))
            for i, j in zip(left, right)
            if verifier.exact_similarity(int(i), int(j)) > 0.6
        }
        assert {(int(i), int(j)) for i, j in zip(output.left, output.right)} == expected

    def test_exact_output_flag(self, sparse_text_collection):
        assert ExactVerifier(sparse_text_collection, "cosine", 0.5).exact_output is True

    def test_threshold_validation(self, sparse_text_collection):
        with pytest.raises(ValueError):
            ExactVerifier(sparse_text_collection, "cosine", 1.0)

    def test_empty_candidates(self, sparse_text_collection):
        verifier = ExactVerifier(sparse_text_collection, "jaccard", 0.5)
        output = verifier.verify(CandidateSet.from_pairs([]))
        assert output.n_output == 0
        assert output.exact_computations == 0
