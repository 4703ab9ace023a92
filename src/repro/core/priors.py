"""Prior distributions over the similarity of a candidate pair.

Two priors appear in the paper:

* For **Jaccard** similarity the likelihood is binomial in the similarity
  itself, so the conjugate ``Beta(alpha, beta)`` prior keeps the posterior in
  closed form.  The parameters can either be left at ``alpha = beta = 1``
  (uniform) or fitted by the method of moments to a random sample of
  candidate-pair similarities produced by the candidate generation algorithm
  (Section 4.1).
* For **cosine** similarity the likelihood is binomial in the *collision
  probability* ``r in [0.5, 1]``, for which a Beta prior is no longer
  conjugate; the paper uses the uniform prior on ``[0.5, 1]`` and shows
  (appendix) that the data quickly swamps the prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BetaPrior",
    "UniformCollisionPrior",
    "fit_beta_prior",
    "sample_pair_similarities",
]


@dataclass(frozen=True)
class BetaPrior:
    """A ``Beta(alpha, beta)`` prior over a similarity in ``[0, 1]``."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"Beta prior parameters must be positive, got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        total = self.alpha + self.beta
        return (self.alpha * self.beta) / (total * total * (total + 1.0))

    def density(self, s: np.ndarray | float) -> np.ndarray | float:
        """Prior probability density at ``s`` (vectorised)."""
        from scipy.special import beta as beta_function

        s = np.asarray(s, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (
                s ** (self.alpha - 1.0)
                * (1.0 - s) ** (self.beta - 1.0)
                / beta_function(self.alpha, self.beta)
            )
        return np.where((s < 0.0) | (s > 1.0), 0.0, values)


@dataclass(frozen=True)
class UniformCollisionPrior:
    """The uniform prior over the cosine collision probability ``r``.

    The support defaults to ``[0.5, 1]``: for non-negative vectors the cosine
    similarity is non-negative, hence the angle is at most ``pi/2`` and
    ``r = 1 - theta/pi >= 0.5``.
    """

    low: float = 0.5
    high: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.low < self.high <= 1.0):
            raise ValueError(
                f"prior support must satisfy 0 <= low < high <= 1, got [{self.low}, {self.high}]"
            )

    def density(self, r: np.ndarray | float) -> np.ndarray | float:
        """Prior probability density at ``r`` (vectorised)."""
        r = np.asarray(r, dtype=np.float64)
        inside = (r >= self.low) & (r <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)


def fit_beta_prior(
    similarities: Iterable[float] | Sequence[float] | np.ndarray,
    fallback: BetaPrior | None = None,
) -> BetaPrior:
    """Fit a Beta prior to sampled candidate-pair similarities by method of moments.

    Following Section 4.1: with sample mean ``s_bar`` and (biased) sample
    variance ``s_var``,

        alpha = s_bar * (s_bar * (1 - s_bar) / s_var - 1)
        beta  = (1 - s_bar) * (s_bar * (1 - s_bar) / s_var - 1)

    Degenerate samples (fewer than two points, zero variance, mean at 0 or 1,
    or variance too large for a valid Beta) fall back to the uniform prior
    ``Beta(1, 1)`` (or the supplied ``fallback``).
    """
    if fallback is None:
        fallback = BetaPrior(1.0, 1.0)
    values = np.asarray(list(similarities), dtype=np.float64)
    if values.size < 2:
        return fallback
    if np.any((values < 0.0) | (values > 1.0)):
        raise ValueError("similarities must lie in [0, 1] to fit a Beta prior")
    mean = float(values.mean())
    variance = float(values.var())  # biased estimator, as in the paper
    if variance <= 1e-12 or mean <= 0.0 or mean >= 1.0:
        # Degenerate (all samples essentially equal): method of moments would
        # produce absurdly peaked parameters; fall back to the uniform prior.
        return fallback
    scale = mean * (1.0 - mean) / variance - 1.0
    if scale <= 0.0:
        # Sample variance exceeds that of any Beta with this mean.
        return fallback
    alpha = mean * scale
    beta = (1.0 - mean) * scale
    if alpha <= 0.0 or beta <= 0.0:
        return fallback
    return BetaPrior(alpha=alpha, beta=beta)


def sample_pair_similarities(
    pairs,
    exact_similarities,
    sample_size: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Exact similarities of a uniform random sample of candidate pairs.

    Used to fit the Beta prior for Jaccard BayesLSH.  ``pairs`` is an ordered
    pair sequence answering ``len()`` and ``pairs[positions] -> (left, right)``
    for an array of positions (a :class:`~repro.candidates.base.CandidateSet`
    or a :class:`~repro.search.executor.PairBlockSource`); only the sampled
    positions are read.  ``exact_similarities`` is a batched callable
    ``(left, right) -> float64 array`` and is called once, with the pairs in
    the order they were drawn.
    """
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    n_pairs = len(pairs)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    if n_pairs <= sample_size:
        chosen = np.arange(n_pairs)
    else:
        chosen = rng.choice(n_pairs, size=sample_size, replace=False)
    return np.asarray(exact_similarities(*pairs[chosen]), dtype=np.float64)
