"""Unit tests for the BayesLSH parameter objects."""

import pytest

from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import make_posterior
from repro.core.rounds import ESTIMATE_BUDGET, RoundTables


class TestBayesLSHParams:
    def test_defaults_match_paper(self):
        params = BayesLSHParams(threshold=0.7)
        assert params.epsilon == 0.03
        assert params.delta == 0.05
        assert params.gamma == 0.03
        assert params.k == 32
        assert params.max_hashes is None  # resolved per terminal rule by RoundTables
        assert params.concentrate and params.on_budget == "exact"

    def test_budget_resolution(self):
        cosine, jaccard = make_posterior("cosine"), make_posterior("jaccard")
        hybrid = BayesLSHParams(threshold=0.5)
        assert RoundTables(cosine, hybrid).budget == cosine.exact_budget == 256
        assert RoundTables(jaccard, hybrid).budget == jaccard.exact_budget
        algorithm1 = BayesLSHParams(threshold=0.5, on_budget="estimate")
        assert RoundTables(cosine, algorithm1).budget == ESTIMATE_BUDGET == 2048
        explicit = BayesLSHParams(threshold=0.5, max_hashes=512)
        tables = RoundTables(cosine, explicit)
        assert tables.budget == tables.budget_for("estimate") == 512

    def test_invalid_on_budget(self):
        with pytest.raises(ValueError, match="on_budget"):
            BayesLSHParams(threshold=0.5, on_budget="guess")

    def test_with_threshold_copies(self):
        params = BayesLSHParams(threshold=0.5, epsilon=0.01)
        changed = params.with_threshold(0.8)
        assert changed.threshold == 0.8
        assert changed.epsilon == 0.01
        assert params.threshold == 0.5  # original unchanged

    def test_frozen(self):
        params = BayesLSHParams(threshold=0.5)
        with pytest.raises(AttributeError):
            params.threshold = 0.9

    @pytest.mark.parametrize("field, value", [
        ("threshold", 0.0), ("threshold", 1.0), ("threshold", -0.2),
        ("epsilon", 0.0), ("epsilon", 1.5),
        ("delta", 0.0), ("delta", 1.0),
        ("gamma", 0.0), ("gamma", 2.0),
    ])
    def test_invalid_unit_interval_parameters(self, field, value):
        kwargs = {"threshold": 0.5, field: value}
        with pytest.raises(ValueError):
            BayesLSHParams(**kwargs)

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            BayesLSHParams(threshold=0.5, k=0)

    def test_max_hashes_below_k(self):
        with pytest.raises(ValueError, match="max_hashes"):
            BayesLSHParams(threshold=0.5, k=64, max_hashes=32)


class TestBayesLSHLiteParams:
    def test_defaults_match_paper(self):
        params = BayesLSHLiteParams(threshold=0.7)
        assert params.epsilon == 0.03
        assert params.max_hashes == 128
        assert params.k == 32

    def test_is_the_engine_without_concentration(self):
        params = BayesLSHLiteParams(threshold=0.5, h=64, k=32)
        assert isinstance(params, BayesLSHParams)
        assert not params.concentrate and params.on_budget == "exact"
        tables = RoundTables(make_posterior("jaccard"), params)
        assert tables.budget == 64 and tables.concentration is None

    def test_with_threshold(self):
        params = BayesLSHLiteParams(threshold=0.3, h=64)
        assert params.with_threshold(0.6).max_hashes == 64

    def test_h_below_k_rejected(self):
        with pytest.raises(ValueError, match="h"):
            BayesLSHLiteParams(threshold=0.5, h=16, k=32)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            BayesLSHLiteParams(threshold=1.2)
