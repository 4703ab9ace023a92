"""Unit tests for the core BayesLSH algorithm: Algorithm 1 and the hybrid terminal rule."""

import numpy as np
import pytest

from repro.core.bayeslsh import BayesLSH
from functools import partial

from repro.core.params import BayesLSHParams
from repro.core.posteriors import TruncatedCollisionPosterior, BetaPosterior
from repro.hashing.minhash import MinHashFamily
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import CosineSimilarity, cosine_similarity, jaccard_similarity
from repro.verification.base import exact_similarities_for_pairs

#: Algorithm 1 as published: a pair undecided at the budget emits its estimate
_algorithm1 = partial(BayesLSHParams, on_budget="estimate")


def _all_pairs(n):
    left, right = np.triu_indices(n, k=1)
    return left, right


@pytest.fixture(scope="module")
def cosine_setup(sparse_text_collection):
    prepared = sparse_text_collection.normalized()
    family = SimHashFamily(prepared, seed=2)
    return prepared, family


class TestBayesLSHCosine:
    def test_output_structure(self, cosine_setup):
        prepared, family = cosine_setup
        params = _algorithm1(threshold=0.7, max_hashes=256)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params)
        left, right = _all_pairs(60)
        output = algorithm.verify(left, right)
        assert output.n_candidates == len(left)
        assert output.n_output + output.n_pruned == output.n_candidates
        assert len(output.estimates) == output.n_output
        assert output.hash_comparisons > 0
        assert all(0.0 <= s <= 1.0 for s in output.estimates)

    def test_trace_is_monotone_decreasing(self, cosine_setup):
        prepared, family = cosine_setup
        params = _algorithm1(threshold=0.7, max_hashes=256)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params)
        left, right = _all_pairs(80)
        output = algorithm.verify(left, right)
        alive_counts = [alive for _, alive in output.trace]
        assert alive_counts == sorted(alive_counts, reverse=True)
        assert output.trace[0][0] == params.k
        assert alive_counts[-1] == output.n_output

    def test_high_similarity_pairs_survive(self, cosine_setup):
        """Guarantee 1: true positives should essentially never be pruned."""
        prepared, family = cosine_setup
        params = _algorithm1(threshold=0.7, epsilon=0.03)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params)
        left, right = _all_pairs(150)
        exact = np.array(
            [cosine_similarity(prepared, int(i), int(j)) for i, j in zip(left, right)]
        )
        output = algorithm.verify(left, right)
        output_pairs = {(int(i), int(j)) for i, j in zip(output.left, output.right)}
        true_pairs = [
            (int(i), int(j)) for i, j, s in zip(left, right, exact) if s > 0.7
        ]
        if true_pairs:
            found = sum(pair in output_pairs for pair in true_pairs)
            assert found / len(true_pairs) >= 0.9

    def test_low_similarity_pairs_pruned(self, cosine_setup):
        prepared, family = cosine_setup
        params = _algorithm1(threshold=0.8, epsilon=0.03)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params)
        left, right = _all_pairs(150)
        exact = np.array(
            [cosine_similarity(prepared, int(i), int(j)) for i, j in zip(left, right)]
        )
        output = algorithm.verify(left, right)
        low_pairs = np.sum(exact < 0.3)
        if low_pairs:
            # at least 95% of clearly-dissimilar pairs must be pruned
            surviving_low = sum(
                1
                for i, j in zip(output.left, output.right)
                if cosine_similarity(prepared, int(i), int(j)) < 0.3
            )
            assert surviving_low / low_pairs < 0.05

    def test_estimates_are_accurate(self, cosine_setup):
        """Guarantee 2: estimate errors above delta occur with probability < gamma."""
        prepared, family = cosine_setup
        params = _algorithm1(threshold=0.5, delta=0.05, gamma=0.03, max_hashes=4096)
        algorithm = BayesLSH(family, TruncatedCollisionPosterior(), params)
        left, right = _all_pairs(120)
        output = algorithm.verify(left, right)
        errors = []
        for i, j, estimate in zip(output.left, output.right, output.estimates):
            errors.append(abs(estimate - cosine_similarity(prepared, int(i), int(j))))
        errors = np.asarray(errors)
        assert len(errors) > 10
        assert np.mean(errors > params.delta) < 0.10  # generous slack over gamma = 0.03

    def test_empty_candidate_list(self, cosine_setup):
        prepared, family = cosine_setup
        algorithm = BayesLSH(
            family, TruncatedCollisionPosterior(), _algorithm1(threshold=0.7)
        )
        output = algorithm.verify(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert output.n_candidates == 0
        assert output.n_output == 0
        assert output.trace == []

    def test_mismatched_arrays_rejected(self, cosine_setup):
        prepared, family = cosine_setup
        algorithm = BayesLSH(
            family, TruncatedCollisionPosterior(), _algorithm1(threshold=0.7)
        )
        with pytest.raises(ValueError):
            algorithm.verify(np.array([0, 1]), np.array([2]))

    def test_pairs_helper(self, cosine_setup):
        prepared, family = cosine_setup
        algorithm = BayesLSH(
            family, TruncatedCollisionPosterior(), _algorithm1(threshold=0.7, max_hashes=128)
        )
        output = algorithm.verify(np.array([0, 1]), np.array([1, 2]))
        pairs = output.pairs()
        assert all(len(entry) == 3 for entry in pairs)


class TestHybridTerminalRule:
    """``on_budget="exact"``: a pair undecided at the budget is scored exactly."""

    def test_needs_an_exact_scorer(self, cosine_setup):
        prepared, family = cosine_setup
        with pytest.raises(ValueError, match="exact_similarities"):
            BayesLSH(family, TruncatedCollisionPosterior(), BayesLSHParams(threshold=0.7))

    def test_exhausted_pairs_are_exact_and_filtered(self, cosine_setup):
        prepared, family = cosine_setup
        calls = []

        def exact_many(left, right):
            calls.append(len(left))
            return exact_similarities_for_pairs(prepared, CosineSimilarity(), left, right)

        left, right = _all_pairs(150)
        params = BayesLSHParams(threshold=0.6, max_hashes=64)
        hybrid = BayesLSH(family, TruncatedCollisionPosterior(), params, exact_many).verify(left, right)
        published = BayesLSH(
            family, TruncatedCollisionPosterior(), _algorithm1(threshold=0.6, max_hashes=64)
        ).verify(left, right)
        # same rounds, same prunes; only what the exhausted pairs report differs
        assert hybrid.trace == published.trace and hybrid.n_pruned == published.n_pruned
        assert calls == [hybrid.exact_computations] == [published.n_unconcentrated]
        assert published.exact_computations == 0 and not published.exact_mask.any()
        assert hybrid.n_unconcentrated == 0 and hybrid.exact_mask.any()
        assert hybrid.n_output < published.n_output, "some exhausted pairs are below t"
        truth = exact_similarities_for_pairs(prepared, CosineSimilarity(), hybrid.left, hybrid.right)
        np.testing.assert_array_equal(hybrid.estimates[hybrid.exact_mask], truth[hybrid.exact_mask])
        assert np.all(truth[hybrid.exact_mask] > 0.6)
        # concentrated pairs carry the same estimates either way
        concentrated = dict(
            zip(zip(published.left.tolist(), published.right.tolist()), published.estimates)
        )
        for i, j, value in zip(*(a[~hybrid.exact_mask] for a in (hybrid.left, hybrid.right, hybrid.estimates))):
            assert concentrated[int(i), int(j)] == value


class TestBayesLSHJaccard:
    def test_jaccard_pruning_and_estimation(self, binary_sets_collection):
        family = MinHashFamily(binary_sets_collection, seed=3)
        params = _algorithm1(threshold=0.5, epsilon=0.03, max_hashes=512)
        algorithm = BayesLSH(family, BetaPosterior(), params)
        left, right = _all_pairs(100)
        output = algorithm.verify(left, right)
        assert output.n_pruned > 0
        # estimates of surviving pairs should be close to the exact Jaccard values
        errors = [
            abs(est - jaccard_similarity(binary_sets_collection, int(i), int(j)))
            for i, j, est in zip(output.left, output.right, output.estimates)
        ]
        if errors:
            assert np.mean(np.array(errors) > 0.1) < 0.2

    def test_identical_rows_survive_with_estimate_one(self):
        from repro.similarity.vectors import VectorCollection

        collection = VectorCollection.from_sets([{1, 2, 3, 4}, {1, 2, 3, 4}], n_features=10)
        family = MinHashFamily(collection, seed=0)
        algorithm = BayesLSH(
            family, BetaPosterior(), _algorithm1(threshold=0.8, max_hashes=256)
        )
        output = algorithm.verify(np.array([0]), np.array([1]))
        assert output.n_output == 1
        assert output.estimates[0] > 0.9
