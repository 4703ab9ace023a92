"""The paper's contribution: Bayesian candidate pruning and similarity estimation.

Layout
------
``params``
    The user-facing knobs (``threshold``, ``epsilon``, ``delta``, ``gamma``,
    hash batch size ``k``, the hash budget and what happens at it —
    ``on_budget`` — which is all that separates Algorithm 1, BayesLSH-Lite
    and the default hybrid).
``priors``
    Prior distributions over the similarity: the conjugate Beta prior for
    Jaccard (with method-of-moments fitting from a sample of candidate
    similarities) and the uniform prior on the collision probability for
    cosine.
``posteriors``
    Posterior models implementing the three inference queries of Section 4:
    Pr[S >= t | M(m, n)] (Equation 3), the MAP estimate (Equation 4) and the
    concentration probability (Equation 6).
``estimators``
    The classical (frequentist) machinery of Section 3: the maximum
    likelihood estimator ``m / n`` and the analysis of how many hashes it
    needs for a given accuracy (Figure 1).
``min_matches`` / ``concentration_cache``
    The two inference-avoidance optimisations of Section 4.3.
``rounds``
    The round engine: the decision tables and the per-pair
    ``status``/``matches``/``hashes_seen`` state every execution path
    advances (serial, blocked, pooled, serving), and the terminal rule.
``bayeslsh``
    The verifier over a bound hash family (Algorithms 1 and 2, the hybrid).
``operating``
    The operating characteristic of a set of decision tables: what the
    rounds do to a pair of given similarity, computed exactly.
"""

from repro.core.params import BayesLSHParams, BayesLSHLiteParams
from repro.core.priors import BetaPrior, UniformCollisionPrior, fit_beta_prior
from repro.core.posteriors import (
    PosteriorModel,
    BetaPosterior,
    TruncatedCollisionPosterior,
    GridCollisionPosterior,
    make_posterior,
)
from repro.core.estimators import (
    mle_estimate,
    probability_within_delta,
    minimum_hashes_for_accuracy,
)
from repro.core.min_matches import MinMatchesTable
from repro.core.concentration_cache import ConcentrationCache
from repro.core.bayeslsh import BayesLSH, VerificationOutput

__all__ = [
    "BayesLSH",
    "BayesLSHLiteParams",
    "BayesLSHParams",
    "BetaPosterior",
    "BetaPrior",
    "ConcentrationCache",
    "GridCollisionPosterior",
    "MinMatchesTable",
    "PosteriorModel",
    "TruncatedCollisionPosterior",
    "UniformCollisionPrior",
    "VerificationOutput",
    "fit_beta_prior",
    "make_posterior",
    "minimum_hashes_for_accuracy",
    "mle_estimate",
    "probability_within_delta",
]
