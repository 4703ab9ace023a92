"""Unit tests for the PPJoin+ candidate generator."""

import pytest

from repro.candidates.ppjoin import PPJoinGenerator
from repro.evaluation.ground_truth import exact_all_pairs
from repro.similarity.vectors import VectorCollection
from tests.reference import _minimum_overlap_reference as _minimum_overlap


class TestMinimumOverlap:
    def test_jaccard_formula(self):
        # alpha = t/(1+t) (|x| + |y|)
        assert _minimum_overlap("jaccard", 0.5, 10, 20) == pytest.approx(10.0)

    def test_binary_cosine_formula(self):
        assert _minimum_overlap("binary_cosine", 0.5, 16, 4) == pytest.approx(4.0)

    def test_overlap_threshold_is_sufficient(self):
        # two sets of sizes 10 and 20 overlapping in exactly alpha tokens reach t
        size_x, size_y, t = 10, 20, 0.5
        alpha = _minimum_overlap("jaccard", t, size_x, size_y)
        jaccard = alpha / (size_x + size_y - alpha)
        assert jaccard == pytest.approx(t)


class TestPPJoinCompleteness:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_complete_for_jaccard(self, binary_sets_collection, threshold):
        truth = exact_all_pairs(binary_sets_collection, threshold, "jaccard")
        candidates = PPJoinGenerator("jaccard", threshold).generate(binary_sets_collection)
        assert truth.pair_set() <= candidates.as_set()

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
    def test_complete_for_binary_cosine(self, binary_sets_collection, threshold):
        truth = exact_all_pairs(binary_sets_collection, threshold, "binary_cosine")
        candidates = PPJoinGenerator("binary_cosine", threshold).generate(
            binary_sets_collection
        )
        assert truth.pair_set() <= candidates.as_set()

    def test_filters_can_be_disabled(self, binary_sets_collection):
        full = PPJoinGenerator("jaccard", 0.5).generate(binary_sets_collection)
        plain = PPJoinGenerator(
            "jaccard", 0.5, use_positional_filter=False, use_suffix_filter=False
        ).generate(binary_sets_collection)
        # disabling filters can only add candidates
        assert full.as_set() <= plain.as_set()


class TestPPJoinPruning:
    def test_prunes_relative_to_shared_feature_pairs(self, binary_sets_collection):
        from repro.candidates.brute_force import BruteForceGenerator

        ppjoin = PPJoinGenerator("jaccard", 0.5).generate(binary_sets_collection)
        brute = BruteForceGenerator("jaccard", 0.5).generate(binary_sets_collection)
        assert len(ppjoin) < len(brute)

    def test_metadata_counters(self, binary_sets_collection):
        candidates = PPJoinGenerator("jaccard", 0.5).generate(binary_sets_collection)
        assert candidates.metadata["generator"] == "ppjoin"
        assert candidates.metadata["n_prefix_collisions"] >= len(candidates)

    def test_higher_threshold_prunes_more(self, binary_sets_collection):
        low = PPJoinGenerator("jaccard", 0.3).generate(binary_sets_collection)
        high = PPJoinGenerator("jaccard", 0.7).generate(binary_sets_collection)
        assert len(high) < len(low)


class TestPPJoinEdgeCases:
    def test_rejects_weighted_cosine(self):
        with pytest.raises(ValueError):
            PPJoinGenerator("cosine", 0.5)

    def test_tiny_collection(self):
        collection = VectorCollection.from_sets(
            [{0, 1, 2}, {0, 1, 2, 3}, {7, 8}, set()], n_features=9
        )
        candidates = PPJoinGenerator("jaccard", 0.5).generate(collection)
        assert (0, 1) in candidates.as_set()
        assert (2, 3) not in candidates.as_set()

    def test_single_vector(self):
        collection = VectorCollection.from_sets([{0, 1}], n_features=3)
        assert len(PPJoinGenerator("jaccard", 0.5).generate(collection)) == 0
