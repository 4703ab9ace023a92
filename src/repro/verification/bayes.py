"""BayesLSH and BayesLSH-Lite verifiers.

Thin adapters binding the core algorithms (:class:`repro.core.bayeslsh.BayesLSH`
and :class:`repro.core.lite.BayesLSHLite`) to the verifier interface used by
the search pipelines.  The adapters take care of three practical matters the
core algorithms leave to the caller:

* choosing the posterior model for the measure (Beta posterior for Jaccard,
  truncated collision posterior for the cosine measures);
* for Jaccard, optionally fitting the Beta prior by the method of moments to
  a random sample of candidate-pair similarities (Section 4.1);
* sharing the hash family with the candidate generation phase when possible
  so hashes are computed once.
"""

from __future__ import annotations

from repro.candidates.base import CandidateSet
from repro.core.bayeslsh import BayesLSH, VerificationOutput
from repro.core.lite import BayesLSHLite
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import BetaPosterior, PosteriorModel, make_posterior
from repro.core.priors import fit_beta_prior, sample_pair_similarities
from repro.hashing.base import HashFamily, get_hash_family
from repro.verification.base import Verifier

__all__ = ["BayesLSHVerifier", "BayesLSHLiteVerifier"]

#: paper defaults for BayesLSH-Lite's pruning-hash budget, per measure
DEFAULT_LITE_HASHES = {"cosine": 128, "binary_cosine": 128, "jaccard": 64}


def _verify_blocks(algorithm, source, pool) -> VerificationOutput:
    """Verify ``source`` block by block, serially or through the worker pool.

    The pooled path falls back to the same per-block ``algorithm.verify``
    call when it loses workers, so both paths merge to identical outputs.
    """
    if pool is None:
        return VerificationOutput.merge(
            [algorithm.verify(left, right) for left, right in source.blocks()]
        )
    from repro.search.executor import run_round_protocol

    return run_round_protocol(pool, algorithm, source)


class _BayesVerifierBase(Verifier):
    """Shared plumbing of the two Bayesian verifiers."""

    def __init__(
        self,
        collection,
        measure,
        threshold: float,
        family: HashFamily | None = None,
        seed: int = 0,
        fit_prior: bool = True,
        prior_sample_size: int = 1000,
    ):
        super().__init__(collection, measure, threshold)
        if family is None:
            family = get_hash_family(self._measure.lsh_family, self._prepared, seed=seed)
        self._family = family
        self._fit_prior = bool(fit_prior)
        self._prior_sample_size = int(prior_sample_size)
        self._seed = int(seed)

    @property
    def family(self) -> HashFamily:
        return self._family

    def _posterior_for(self, pairs) -> PosteriorModel:
        """Posterior model, fitting the Jaccard Beta prior to the candidates if asked.

        ``pairs`` is a :class:`~repro.candidates.base.CandidateSet` or a lazy
        :class:`~repro.search.executor.PairBlockSource`; the prior sampling
        only reads ``len(pairs)`` and a seeded random subset of positions, so
        the fitted prior is identical for any representation of the same
        ordered pair sequence.
        """
        if self._measure.name != "jaccard" or not self._fit_prior or len(pairs) == 0:
            return make_posterior(self._measure.name)
        samples = sample_pair_similarities(
            pairs,
            self.exact_similarities,
            sample_size=min(self._prior_sample_size, len(pairs)),
            seed=self._seed,
        )
        return BetaPosterior(fit_beta_prior(samples))


class BayesLSHVerifier(_BayesVerifierBase):
    """Algorithm 1 as a verifier: prune early, estimate to the requested accuracy.

    Parameters
    ----------
    collection, measure, threshold:
        As for every verifier.
    params:
        Optional :class:`BayesLSHParams`; built from ``threshold`` plus the
        keyword arguments ``epsilon``/``delta``/``gamma``/``k``/``max_hashes``
        otherwise.
    family:
        Optional hash family shared with candidate generation.
    fit_prior / prior_sample_size:
        Fit the Jaccard Beta prior by method of moments on a random sample of
        candidate similarities (ignored for cosine, which uses the uniform
        collision prior).
    """

    name = "bayeslsh"
    exact_output = False

    def __init__(
        self,
        collection,
        measure,
        threshold: float,
        params: BayesLSHParams | None = None,
        family: HashFamily | None = None,
        seed: int = 0,
        fit_prior: bool = True,
        prior_sample_size: int = 1000,
        epsilon: float = 0.03,
        delta: float = 0.05,
        gamma: float = 0.03,
        k: int = 32,
        max_hashes: int = 2048,
    ):
        super().__init__(
            collection,
            measure,
            threshold,
            family=family,
            seed=seed,
            fit_prior=fit_prior,
            prior_sample_size=prior_sample_size,
        )
        if params is None:
            params = BayesLSHParams(
                threshold=threshold,
                epsilon=epsilon,
                delta=delta,
                gamma=gamma,
                k=k,
                max_hashes=max_hashes,
            )
        elif params.threshold != threshold:
            params = params.with_threshold(threshold)
        self._params = params
        self._last_algorithm: BayesLSH | None = None

    @property
    def params(self) -> BayesLSHParams:
        """The ``epsilon``/``delta``/``gamma``/``k``/``max_hashes`` knobs in force."""
        return self._params

    @property
    def last_algorithm(self) -> BayesLSH | None:
        """The core algorithm instance used by the most recent verify() call."""
        return self._last_algorithm

    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """Run Algorithm 1 over the candidate pairs; emits posterior estimates.

        Deterministic in ``(candidates, family seed, params)``: every
        prune/emit decision depends only on the pair's own hash-agreement
        counts, so the output is independent of pair batching or ordering
        (the execution-invariance contract).  From round 2 onward the core
        algorithm gathers multi-round super-blocks through the stores'
        cache-aware tiled kernels at *any* active count (pair tiles sized to
        L2 — see :meth:`~repro.hashing.signatures.SignatureStore.count_matches_rounds`);
        tiling and super-blocking are value-preserving, so this is purely a
        throughput matter.
        """
        posterior = self._posterior_for(candidates)
        algorithm = BayesLSH(self._family, posterior, self._params)
        self._last_algorithm = algorithm
        return algorithm.verify(candidates.left, candidates.right)

    def verify_source(self, source, pool=None) -> VerificationOutput:
        """Block-streamed (and optionally multicore round-synchronous) verify.

        The prior is fitted once against the full deduplicated pair sequence
        (identical sampling to the serial path), then each block is verified
        with the shared decision tables; every prune/emit decision depends
        only on the pair's own ``(m, n)``, so the merged output is
        bit-identical to one monolithic verify() call.
        """
        posterior = self._posterior_for(source)
        algorithm = BayesLSH(self._family, posterior, self._params)
        self._last_algorithm = algorithm
        return _verify_blocks(algorithm, source, pool)


class BayesLSHLiteVerifier(_BayesVerifierBase):
    """Algorithm 2 as a verifier: prune early, verify survivors exactly."""

    name = "bayeslsh_lite"
    exact_output = True

    def __init__(
        self,
        collection,
        measure,
        threshold: float,
        params: BayesLSHLiteParams | None = None,
        family: HashFamily | None = None,
        seed: int = 0,
        fit_prior: bool = True,
        prior_sample_size: int = 1000,
        epsilon: float = 0.03,
        h: int | None = None,
        k: int = 32,
    ):
        super().__init__(
            collection,
            measure,
            threshold,
            family=family,
            seed=seed,
            fit_prior=fit_prior,
            prior_sample_size=prior_sample_size,
        )
        if params is None:
            if h is None:
                h = DEFAULT_LITE_HASHES[self._measure.name]
            params = BayesLSHLiteParams(threshold=threshold, epsilon=epsilon, h=h, k=k)
        elif params.threshold != threshold:
            params = params.with_threshold(threshold)
        self._params = params

    @property
    def params(self) -> BayesLSHLiteParams:
        """The ``epsilon``/``h``/``k`` knobs in force."""
        return self._params

    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """BayesLSH-Lite: Bayesian pruning, exact similarities for survivors.

        Deterministic in ``(candidates, family seed, params)`` — per-pair
        decisions are independent of batching, as for the full verifier.
        """
        posterior = self._posterior_for(candidates)
        algorithm = BayesLSHLite(
            self._family, posterior, self._params, self.exact_similarities
        )
        return algorithm.verify(candidates.left, candidates.right)

    def verify_source(self, source, pool=None) -> VerificationOutput:
        """Block-streamed (and optionally multicore round-synchronous) verify."""
        posterior = self._posterior_for(source)
        algorithm = BayesLSHLite(
            self._family, posterior, self._params, self.exact_similarities
        )
        return _verify_blocks(algorithm, source, pool)
