"""Unit tests for the prior distributions and method-of-moments fitting."""

import numpy as np
import pytest

from repro.candidates.base import BlockStream, CandidateSet
from repro.core.priors import (
    BetaPrior,
    UniformCollisionPrior,
    fit_beta_prior,
    sample_pair_similarities,
)


class TestBetaPrior:
    def test_uniform_default(self):
        prior = BetaPrior()
        assert prior.alpha == 1.0
        assert prior.beta == 1.0
        assert prior.mean == 0.5

    def test_mean_and_variance(self):
        prior = BetaPrior(2.0, 6.0)
        assert prior.mean == pytest.approx(0.25)
        assert prior.variance == pytest.approx(2 * 6 / (8**2 * 9))

    def test_density_integrates_to_one(self):
        prior = BetaPrior(2.5, 4.0)
        grid = np.linspace(0, 1, 20001)
        assert np.trapezoid(prior.density(grid), grid) == pytest.approx(1.0, abs=1e-3)

    def test_density_zero_outside_support(self):
        prior = BetaPrior(2.0, 2.0)
        assert prior.density(np.array([-0.1, 1.1])).tolist() == [0.0, 0.0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BetaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaPrior(1.0, -2.0)


class TestUniformCollisionPrior:
    def test_default_support(self):
        prior = UniformCollisionPrior()
        assert prior.low == 0.5
        assert prior.high == 1.0

    def test_density(self):
        prior = UniformCollisionPrior()
        assert prior.density(0.75) == pytest.approx(2.0)
        assert prior.density(0.3) == 0.0
        assert prior.density(1.0) == pytest.approx(2.0)

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            UniformCollisionPrior(low=0.9, high=0.5)
        with pytest.raises(ValueError):
            UniformCollisionPrior(low=-0.1, high=1.0)


class TestFitBetaPrior:
    def test_recovers_moments(self):
        rng = np.random.default_rng(0)
        samples = rng.beta(3.0, 7.0, size=50_000)
        prior = fit_beta_prior(samples)
        assert prior.alpha == pytest.approx(3.0, rel=0.1)
        assert prior.beta == pytest.approx(7.0, rel=0.1)

    def test_matches_paper_formulas(self):
        samples = np.array([0.1, 0.2, 0.3, 0.4, 0.8])
        mean = samples.mean()
        variance = samples.var()
        scale = mean * (1 - mean) / variance - 1
        prior = fit_beta_prior(samples)
        assert prior.alpha == pytest.approx(mean * scale)
        assert prior.beta == pytest.approx((1 - mean) * scale)

    def test_fallback_on_tiny_sample(self):
        assert fit_beta_prior([0.5]).alpha == 1.0

    def test_fallback_on_zero_variance(self):
        prior = fit_beta_prior([0.4, 0.4, 0.4])
        assert (prior.alpha, prior.beta) == (1.0, 1.0)

    def test_fallback_on_excess_variance(self):
        # Bernoulli-like sample: variance too large for any Beta with that mean
        prior = fit_beta_prior([0.0, 1.0, 0.0, 1.0])
        assert (prior.alpha, prior.beta) == (1.0, 1.0)

    def test_custom_fallback(self):
        fallback = BetaPrior(2.0, 2.0)
        assert fit_beta_prior([0.5], fallback=fallback) is fallback

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fit_beta_prior([0.2, 1.4])


def _chain(n):
    """The ``n`` candidate pairs ``(i, i + 1)``."""
    left = np.arange(n, dtype=np.int64)
    return CandidateSet(left=left, right=left + 1)


def _tuple_list_sample(pairs, exact_similarity, sample_size=1000, seed=0):
    """The per-pair sampler this module shipped before the batched one (reference)."""
    n_pairs = len(pairs)
    rng = np.random.default_rng(seed)
    if n_pairs <= sample_size:
        chosen = range(n_pairs)
    else:
        chosen = rng.choice(n_pairs, size=sample_size, replace=False)
    return np.array([exact_similarity(*pairs[int(idx)]) for idx in chosen], dtype=np.float64)


class TestSamplePairSimilarities:
    def test_returns_all_when_sample_large_enough(self):
        values = sample_pair_similarities(_chain(3), lambda i, j: i + j, sample_size=10)
        assert values.tolist() == [1, 3, 5]
        assert values.dtype == np.float64

    def test_subsamples_without_replacement(self):
        values = sample_pair_similarities(
            _chain(100), lambda i, j: i.astype(float), sample_size=20, seed=3
        )
        assert len(values) == 20
        assert len(set(values.tolist())) == 20

    def test_empty_pairs(self):
        assert len(sample_pair_similarities(_chain(0), lambda i, j: i)) == 0

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            sample_pair_similarities(_chain(1), lambda i, j: i, sample_size=0)

    def test_deterministic_given_seed(self):
        a = sample_pair_similarities(_chain(50), lambda i, j: i, sample_size=10, seed=5)
        b = sample_pair_similarities(_chain(50), lambda i, j: i, sample_size=10, seed=5)
        assert a.tolist() == b.tolist()

    def test_scores_the_sample_in_one_call(self):
        calls = []

        def scorer(left, right):
            calls.append((left.copy(), right.copy()))
            return np.zeros(len(left))

        sample_pair_similarities(_chain(500), scorer, sample_size=40, seed=2)
        assert len(calls) == 1
        left, right = calls[0]
        assert len(left) == 40 and (right == left + 1).all()

    @pytest.mark.parametrize("n_pairs", [37, 64, 65, 400])  # below, at, above the sample size
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_draw_and_fit_for_every_pair_representation(self, n_pairs, seed):
        """CandidateSet == one collected from shuffled raw blocks == the old tuple list."""
        rng = np.random.default_rng(n_pairs)
        span = 90
        every = np.arange(span * span, dtype=np.int64)
        canonical = every[every // span < every % span]  # i < j, as a candidate set holds
        keys = np.sort(rng.choice(canonical, size=n_pairs, replace=False))
        left, right = keys // span, keys % span

        def score(i, j):  # order-sensitive: every pair has its own value
            return ((i * 31 + j * 17) % 101) / 100.0

        reference = _tuple_list_sample(
            list(zip(left.tolist(), right.tolist())), score, sample_size=64, seed=seed
        )
        from_set = sample_pair_similarities(
            CandidateSet(left=left, right=right), score, sample_size=64, seed=seed
        )
        # the same pairs, reversed and shuffled into raw blocks, collected in blocks of 16
        shuffled = rng.permutation(n_pairs)
        raw = [(right[part], left[part]) for part in np.array_split(shuffled, 7)]
        collected = CandidateSet.from_stream(BlockStream(iter(raw), {}), block_size=16)
        from_source = sample_pair_similarities(collected, score, sample_size=64, seed=seed)
        assert from_set.tolist() == reference.tolist()  # same pairs, same order
        assert from_source.tolist() == reference.tolist()
        assert fit_beta_prior(from_set) == fit_beta_prior(from_source) == fit_beta_prior(reference)
