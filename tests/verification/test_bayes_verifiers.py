"""Unit tests for the BayesLSH / BayesLSH-Lite verifier adapters."""

import importlib

import numpy as np
import pytest

from repro.candidates.base import BlockStream, CandidateSet
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import BetaPosterior
from repro.core.priors import fit_beta_prior
from repro.hashing.base import get_hash_family
from repro.similarity.measures import JaccardSimilarity
from repro.verification.bayes import (
    DEFAULT_LITE_HASHES,
    BayesLSHLiteVerifier,
    BayesLSHVerifier,
)
from tests.core.test_priors import _tuple_list_sample


def _candidates(n):
    left, right = np.triu_indices(n, k=1)
    return CandidateSet(left=left.astype(np.int64), right=right.astype(np.int64))


class TestBayesLSHVerifier:
    def test_default_params_match_paper(self, sparse_text_collection):
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.7)
        assert verifier.params.epsilon == 0.03
        assert verifier.params.delta == 0.05
        assert verifier.params.gamma == 0.03
        assert verifier.params.k == 32

    def test_explicit_params_object(self, sparse_text_collection):
        params = BayesLSHParams(threshold=0.5, epsilon=0.01)
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.5, params=params)
        assert verifier.params is params

    def test_params_threshold_reconciled(self, sparse_text_collection):
        params = BayesLSHParams(threshold=0.5)
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.8, params=params)
        assert verifier.params.threshold == 0.8

    def test_verify_produces_estimates(self, sparse_text_collection):
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.7, seed=2)
        output = verifier.verify(_candidates(60))
        assert output.n_candidates == len(_candidates(60))
        assert len(output.estimates) == output.n_output
        assert verifier.last_algorithm is not None

    def test_prunes_most_false_positives(self, sparse_text_collection):
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.8, seed=2)
        candidates = _candidates(100)
        output = verifier.verify(candidates)
        assert output.n_pruned > 0.8 * len(candidates)

    def test_jaccard_prior_fitting_used(self, binary_sets_collection):
        verifier = BayesLSHVerifier(
            binary_sets_collection, "jaccard", 0.5, seed=1, fit_prior=True, prior_sample_size=200
        )
        candidates = _candidates(60)
        posterior = verifier._posterior_for(candidates)
        assert isinstance(posterior, BetaPosterior)
        # fitted prior should deviate from the uniform fallback
        assert (posterior.prior.alpha, posterior.prior.beta) != (1.0, 1.0)

    def test_jaccard_prior_fitting_disabled(self, binary_sets_collection):
        verifier = BayesLSHVerifier(
            binary_sets_collection, "jaccard", 0.5, seed=1, fit_prior=False
        )
        posterior = verifier._posterior_for(_candidates(40))
        assert (posterior.prior.alpha, posterior.prior.beta) == (1.0, 1.0)

    @pytest.mark.parametrize("sample_size", [200, 435, 1000])  # below, at, above 435 pairs
    def test_fitted_prior_bit_equal_for_every_pair_representation(
        self, binary_sets_collection, sample_size
    ):
        """CandidateSet == one collected from raw blocks == per-pair scoring of a tuple list."""
        candidates = _candidates(30)
        verifier = BayesLSHVerifier(
            binary_sets_collection, "jaccard", 0.5, seed=1, prior_sample_size=sample_size
        )
        raw = [(candidates.right[::-1], candidates.left[::-1])] * 2  # reversed, repeated
        source = CandidateSet.from_stream(BlockStream(iter(raw), {}), block_size=50)
        # The construction this replaced, kept as the reference: a Python
        # list of every candidate tuple, one scalar measure.exact per draw.
        pairs = list(zip(candidates.left.tolist(), candidates.right.tolist()))
        reference = fit_beta_prior(
            _tuple_list_sample(pairs, verifier.exact_similarity, sample_size=sample_size, seed=1)
        )
        assert (reference.alpha, reference.beta) != (1.0, 1.0)
        assert verifier._posterior_for(candidates).prior == reference
        assert verifier._posterior_for(source).prior == reference

    def test_family_shared_with_generator(self, sparse_text_collection):
        prepared = sparse_text_collection.normalized()
        family = get_hash_family("simhash", prepared, seed=5)
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.7, family=family)
        assert verifier.family is family

    def test_empty_candidates(self, sparse_text_collection):
        verifier = BayesLSHVerifier(sparse_text_collection, "cosine", 0.7)
        output = verifier.verify(CandidateSet.from_pairs([]))
        assert output.n_output == 0


class TestBayesLSHLiteVerifier:
    def test_default_h_per_measure(self, sparse_text_collection, binary_sets_collection):
        cosine = BayesLSHLiteVerifier(sparse_text_collection, "cosine", 0.7)
        assert cosine.params.max_hashes == DEFAULT_LITE_HASHES["cosine"] == 128
        jaccard = BayesLSHLiteVerifier(binary_sets_collection, "jaccard", 0.5)
        assert jaccard.params.max_hashes == DEFAULT_LITE_HASHES["jaccard"] == 64

    def test_explicit_params(self, sparse_text_collection):
        params = BayesLSHLiteParams(threshold=0.7, h=64)
        verifier = BayesLSHLiteVerifier(sparse_text_collection, "cosine", 0.7, params=params)
        assert verifier.params is params

    def test_output_is_exact_and_above_threshold(self, sparse_text_collection):
        verifier = BayesLSHLiteVerifier(sparse_text_collection, "cosine", 0.7, seed=2)
        output = verifier.verify(_candidates(80))
        for i, j, value in zip(output.left, output.right, output.estimates):
            assert value == verifier.exact_similarity(int(i), int(j))
            assert value > 0.7

    @pytest.mark.parametrize("streamed", [False, True])
    def test_every_exact_score_goes_through_the_batched_kernel(
        self, binary_sets_collection, monkeypatch, streamed
    ):
        """pairs scored == Lite's exact_computations + the prior sample, none of them scalar.

        ``benchmarks/e2e/trace.py`` attributes the exact stage by wrapping
        ``repro.verification.base.exact_similarities_for_pairs`` and
        re-binding the name in the verifier modules, exactly as done here; a
        refactor that scores pairs any other way drops out of the traced
        run's ``similarity.pairs_scored`` / ``similarity.exact_s``.
        """
        import repro.verification.base as base

        original = base.exact_similarities_for_pairs
        scored, scalar_calls = [], []

        def counting(*args, **kwargs):
            values = original(*args, **kwargs)
            scored.append(len(values))
            return values

        def scalar(self, collection, i, j):
            scalar_calls.append((i, j))
            return 0.0

        monkeypatch.setattr(base, "exact_similarities_for_pairs", counting)
        for importer in ("repro.verification.bayes", "repro.verification.exact"):
            module = importlib.import_module(importer)
            if getattr(module, "exact_similarities_for_pairs", None) is original:
                monkeypatch.setattr(module, "exact_similarities_for_pairs", counting)
        monkeypatch.setattr(JaccardSimilarity, "exact", scalar)

        candidates = _candidates(40)  # 780 pairs
        verifier = BayesLSHLiteVerifier(
            binary_sets_collection, "jaccard", 0.3, seed=2, prior_sample_size=100
        )
        output = verifier.verify(candidates, block_size=97 if streamed else None)
        assert 0 < output.exact_computations < len(candidates)
        assert sum(scored) == output.exact_computations + 100
        assert scalar_calls == []

    def test_exact_output_flags(self, sparse_text_collection):
        assert BayesLSHLiteVerifier(sparse_text_collection, "cosine", 0.7).exact_output is True
        assert BayesLSHVerifier(sparse_text_collection, "cosine", 0.7).exact_output is False

    def test_exact_computations_less_than_candidates(self, sparse_text_collection):
        verifier = BayesLSHLiteVerifier(sparse_text_collection, "cosine", 0.8, seed=2)
        candidates = _candidates(100)
        output = verifier.verify(candidates)
        assert 0 < output.exact_computations < len(candidates)
