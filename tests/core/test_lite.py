"""Unit tests for BayesLSH-Lite (Algorithm 2): the engine with no concentration test."""

import numpy as np
import pytest

from repro.core.bayeslsh import BayesLSH
from repro.core.params import BayesLSHLiteParams
from repro.core.posteriors import TruncatedCollisionPosterior
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import CosineSimilarity, cosine_similarity
from repro.verification.base import exact_similarities_for_pairs


def _all_pairs(n):
    left, right = np.triu_indices(n, k=1)
    return left, right


@pytest.fixture(scope="module")
def lite_setup(sparse_text_collection):
    prepared = sparse_text_collection.normalized()
    family = SimHashFamily(prepared, seed=5)

    def exact(i, j):
        return cosine_similarity(prepared, i, j)

    def exact_many(left, right):
        return exact_similarities_for_pairs(prepared, CosineSimilarity(), left, right)

    return prepared, family, exact, exact_many


class TestBayesLSHLite:
    def test_output_similarities_are_exact(self, lite_setup):
        prepared, family, exact, exact_many = lite_setup
        params = BayesLSHLiteParams(threshold=0.6, h=128)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many)
        left, right = _all_pairs(80)
        output = algorithm.verify(left, right)
        for i, j, value in zip(output.left, output.right, output.estimates):
            assert value == exact(int(i), int(j))  # scalar == batched, bit for bit
            assert value > params.threshold

    def test_survivors_scored_in_one_call(self, lite_setup):
        """One batched scoring call per verify(), over exactly the unpruned pairs."""
        prepared, family, exact, exact_many = lite_setup
        calls = []

        def counting(left, right):
            calls.append(len(left))
            return exact_many(left, right)

        params = BayesLSHLiteParams(threshold=0.6, h=128)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, counting)
        output = algorithm.verify(*_all_pairs(80))
        assert calls == [output.exact_computations]

    def test_no_false_positives_in_output(self, lite_setup):
        """Unlike BayesLSH, Lite verifies exactly, so precision is 1.0."""
        prepared, family, exact, exact_many = lite_setup
        params = BayesLSHLiteParams(threshold=0.7, h=128)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many)
        left, right = _all_pairs(120)
        output = algorithm.verify(left, right)
        for i, j in zip(output.left, output.right):
            assert exact(int(i), int(j)) > 0.7

    def test_recall_close_to_one(self, lite_setup):
        prepared, family, exact, exact_many = lite_setup
        params = BayesLSHLiteParams(threshold=0.7, h=128, epsilon=0.03)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many)
        left, right = _all_pairs(150)
        true_pairs = {
            (int(i), int(j))
            for i, j in zip(left, right)
            if exact(int(i), int(j)) > 0.7
        }
        output = algorithm.verify(left, right)
        found = {(int(i), int(j)) for i, j in zip(output.left, output.right)}
        if true_pairs:
            assert len(true_pairs & found) / len(true_pairs) >= 0.9

    def test_hash_budget_respected(self, lite_setup):
        prepared, family, exact, exact_many = lite_setup
        params = BayesLSHLiteParams(threshold=0.7, h=64, k=32)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many)
        left, right = _all_pairs(40)
        output = algorithm.verify(left, right)
        assert len(output.trace) <= params.max_hashes // params.k
        assert output.trace[-1][0] <= params.max_hashes

    def test_exact_computations_counted(self, lite_setup):
        prepared, family, exact, exact_many = lite_setup
        params = BayesLSHLiteParams(threshold=0.7, h=64)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many)
        left, right = _all_pairs(40)
        output = algorithm.verify(left, right)
        assert output.exact_computations == output.n_candidates - output.n_pruned
        assert output.exact_computations >= output.n_output

    def test_pruning_reduces_exact_computations(self, lite_setup):
        """The whole point of Lite: far fewer exact computations than candidates."""
        prepared, family, exact, exact_many = lite_setup
        params = BayesLSHLiteParams(threshold=0.8, h=128)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many)
        left, right = _all_pairs(150)
        output = algorithm.verify(left, right)
        assert output.exact_computations < 0.5 * output.n_candidates

    def test_empty_input(self, lite_setup):
        prepared, family, exact, exact_many = lite_setup
        algorithm = BayesLSH(
            family, TruncatedCollisionPosterior(), BayesLSHLiteParams(threshold=0.5), exact_many
        )
        output = algorithm.verify([], [])
        assert output.n_candidates == 0
        assert output.n_output == 0

    def test_mismatched_arrays_rejected(self, lite_setup):
        prepared, family, exact, exact_many = lite_setup
        algorithm = BayesLSH(
            family, TruncatedCollisionPosterior(), BayesLSHLiteParams(threshold=0.5), exact_many
        )
        with pytest.raises(ValueError):
            algorithm.verify([0], [1, 2])
