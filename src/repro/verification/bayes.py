"""BayesLSH and BayesLSH-Lite verifiers.

Thin adapters binding the core algorithm (:class:`repro.core.bayeslsh.BayesLSH`)
to the verifier interface used by the search pipelines; the two names differ
only in the parameters they default to (:class:`BayesLSHVerifier`: the hybrid,
or Algorithm 1 under ``on_budget="estimate"``; :class:`BayesLSHLiteVerifier`:
Algorithm 2).  The adapters take care of three practical matters the core
algorithm leaves to the caller:

* choosing the posterior model for the measure (Beta posterior for Jaccard,
  truncated collision posterior for the cosine measures);
* for Jaccard, optionally fitting the Beta prior by the method of moments to
  a random sample of candidate-pair similarities (Section 4.1);
* sharing the hash family with the candidate generation phase when possible
  so hashes are computed once.
"""

from __future__ import annotations

from functools import partial

from repro.candidates.base import CandidateSet
from repro.core.bayeslsh import BayesLSH, VerificationOutput
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import BetaPosterior, PosteriorModel, make_posterior
from repro.core.priors import fit_beta_prior, sample_pair_similarities
from repro.hashing.base import HashFamily, get_hash_family
from repro.similarity.measures import get_measure
from repro.verification.base import Verifier, exact_similarities_for_pairs

__all__ = ["BayesLSHVerifier", "BayesLSHLiteVerifier"]

#: paper defaults for BayesLSH-Lite's pruning-hash budget, per measure
DEFAULT_LITE_HASHES = {"cosine": 128, "binary_cosine": 128, "jaccard": 64}


class _BayesVerifierBase(Verifier):
    """Everything the two Bayesian verifiers share but their default parameters."""

    def __init__(
        self,
        collection,
        measure,
        threshold: float,
        params: BayesLSHParams,
        family: HashFamily | None,
        seed: int,
        fit_prior: bool,
        prior_sample_size: int,
    ):
        super().__init__(collection, measure, threshold)
        if family is None:
            family = get_hash_family(self._measure.lsh_family, self._prepared, seed=seed)
        self._family = family
        self._fit_prior = bool(fit_prior)
        self._prior_sample_size = int(prior_sample_size)
        self._seed = int(seed)
        self._params = params if params.threshold == threshold else params.with_threshold(threshold)
        self._last_algorithm: BayesLSH | None = None

    @property
    def family(self) -> HashFamily:
        return self._family

    @property
    def params(self) -> BayesLSHParams:
        """The knobs, hash budget and terminal rule in force."""
        return self._params

    @property
    def last_algorithm(self) -> BayesLSH | None:
        """The core algorithm instance used by the most recent verify() call."""
        return self._last_algorithm

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

    def _algorithm_for(self, pairs) -> BayesLSH:
        # The scorer is ``exact_similarities`` minus the reference to ``self``:
        # the algorithm is kept as ``last_algorithm``, and a bound method in it
        # would make every engine (stores, projections, prepared views) cyclic
        # garbage that only a full collection frees.
        scorer = partial(exact_similarities_for_pairs, self._prepared, self._measure)
        self._last_algorithm = BayesLSH(
            self._family, self._posterior_for(pairs), self._params, scorer
        )
        return self._last_algorithm

    # Each public class spells out its own ``verify`` over this: instrumentation
    # that wraps entry points per class (``benchmarks/e2e/trace.py``) must see
    # one span per call, not a subclass's nested in its parent's.
    def _verify(self, candidates: CandidateSet) -> VerificationOutput:
        return self._algorithm_for(candidates).verify(candidates.left, candidates.right)

    def verify_source(self, source, pool=None) -> VerificationOutput:
        """Block-streamed (and optionally pooled) verify.

        The prior is fitted once against the full deduplicated pair sequence
        (identical sampling to the serial path), then each block is verified
        with the shared decision tables; every prune/emit decision depends
        only on the pair's own ``(m, n)``, so the merged output is
        bit-identical to one monolithic verify() call.  A worker ``pool``
        only scores exactly: each block still runs through
        ``algorithm.verify``, which counts hash agreements itself.
        """
        algorithm = self._algorithm_for(source)
        return VerificationOutput.merge(
            [algorithm.verify(left, right, pool) for left, right in source.blocks()]
        )


class BayesLSHVerifier(_BayesVerifierBase):
    """BayesLSH as a verifier: prune early, estimate to the requested accuracy.

    Parameters
    ----------
    collection, measure, threshold:
        As for every verifier.
    params:
        Optional :class:`BayesLSHParams`; built from ``threshold`` plus the
        keyword arguments ``epsilon``/``delta``/``gamma``/``k``/
        ``max_hashes``/``on_budget`` otherwise.  The default is the hybrid —
        a pair that has not concentrated after one hash block is scored
        exactly; ``on_budget="estimate"`` is Algorithm 1 as published.
    family:
        Optional hash family shared with candidate generation.
    fit_prior / prior_sample_size:
        Fit the Jaccard Beta prior by method of moments on a random sample of
        candidate similarities (ignored for cosine, which uses the uniform
        collision prior).
    """

    name = "bayeslsh"
    #: the output mixes estimates with exact values (``exact_mask`` says which)
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
        max_hashes: int | None = None,
        on_budget: str = "exact",
    ):
        if params is None:
            params = BayesLSHParams(
                threshold=threshold,
                epsilon=epsilon,
                delta=delta,
                gamma=gamma,
                k=k,
                max_hashes=max_hashes,
                on_budget=on_budget,
            )
        super().__init__(
            collection, measure, threshold, params, family, seed, fit_prior, prior_sample_size
        )

    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """Run the rounds over the candidate pairs and apply the terminal rule.

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
        return self._verify(candidates)


class BayesLSHLiteVerifier(_BayesVerifierBase):
    """Algorithm 2 as a verifier: prune early, verify survivors exactly."""

    name = "bayeslsh_lite"
    exact_output = True

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
        h: int | None = None,
        k: int = 32,
    ):
        if params is None:
            if h is None:
                h = DEFAULT_LITE_HASHES[get_measure(measure).name]
            params = BayesLSHLiteParams(threshold, epsilon=epsilon, h=h, k=k)
        super().__init__(
            collection, measure, threshold, params, family, seed, fit_prior, prior_sample_size
        )

    def verify(self, candidates: CandidateSet) -> VerificationOutput:
        """BayesLSH-Lite: Bayesian pruning, exact similarities for survivors.

        Deterministic in ``(candidates, family seed, params)`` — per-pair
        decisions are independent of batching, as for the full verifier.
        """
        return self._verify(candidates)
