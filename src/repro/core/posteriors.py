"""Posterior models: the three inference queries of Section 4.

Given the event ``M(m, n)`` ("m of the first n hashes agree"), every posterior
model answers:

1. ``prob_above_threshold(m, n, t)`` — Equation 3,
   ``Pr[S >= t | M(m, n)]``, used for pruning;
2. ``map_estimate(m, n)`` — Equation 4, the maximum-a-posteriori similarity
   estimate ``S_hat``;
3. ``concentration_probability(m, n, delta)`` — Equation 6,
   ``Pr[|S - S_hat| < delta | M(m, n)]``, used to decide when to stop hashing.

Two closed-form models are provided:

* :class:`BetaPosterior` for Jaccard similarity with a conjugate
  ``Beta(alpha, beta)`` prior — the posterior is
  ``Beta(m + alpha, n - m + beta)`` (Section 4.1);
* :class:`TruncatedCollisionPosterior` for cosine similarity with the uniform
  prior on the collision probability ``r in [0.5, 1]`` — the posterior density
  is the binomial likelihood truncated to ``[0.5, 1]`` and renormalised, and
  every quantity is evaluated with regularised incomplete beta functions and
  mapped back to cosine through ``r2c`` (Section 4.2).

:class:`GridCollisionPosterior` evaluates the same quantities by numerical
integration for an *arbitrary* prior density; it backs the appendix
experiment on prior sensitivity (Figure 5) and serves as an independent
cross-check of the closed forms in the test-suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np
from scipy.special import betainc, betaincc

from repro.core.priors import BetaPrior, UniformCollisionPrior
from repro.hashing.simhash import collision_to_cosine, cosine_to_collision

__all__ = [
    "PosteriorModel",
    "BetaPosterior",
    "TruncatedCollisionPosterior",
    "GridCollisionPosterior",
    "make_posterior",
]


def _validate_counts(m: int, n: int) -> None:
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"invalid hash counts m={m}, n={n}; need 0 <= m <= n")


def _validate_counts_many(m: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    m, n = np.broadcast_arrays(m, n)
    if np.any((n < 0) | (m < 0) | (m > n)):
        raise ValueError("invalid hash counts; need 0 <= m <= n element-wise")
    return m, n


class PosteriorModel(ABC):
    """Posterior distribution of the similarity given ``M(m, n)``.

    Every model answers the three scalar queries of Section 4 plus batched
    ``*_many`` variants taking arrays of ``(m, n)`` pairs.  The batched
    variants are required to be *bit-identical* to mapping the scalar method
    over the arrays (the equivalence property tests enforce this); the base
    class provides exactly that mapping as a fallback, and the closed-form
    models override it with vectorised special-function evaluations — the
    same ufuncs applied element-wise, hence the same floats.
    """

    #: Default hash budget under ``on_budget="exact"``
    #: (:class:`~repro.core.params.BayesLSHParams`): the depth past which
    #: scoring a still-undecided pair exactly is cheaper than hashing on.
    #: One extension block of the matching hash family, so a join never
    #: extends its store twice: 256 bits of simhash here, 64 minhashes for
    #: :class:`BetaPosterior`, whose comparisons cost ~14x more per hash
    #: (``docs/reproduction.md`` has the operating curves and the two cost
    #: constants, ``benchmarks/test_bench_hotpaths.py`` measures them).
    exact_budget: int = 256

    @abstractmethod
    def collision_probability(self, similarity):
        """Probability that one hash agrees for a pair of that similarity."""

    @abstractmethod
    def prob_above_threshold(self, m: int, n: int, threshold: float) -> float:
        """``Pr[S >= threshold | M(m, n)]`` (Equation 3)."""

    @abstractmethod
    def map_estimate(self, m: int, n: int) -> float:
        """Maximum-a-posteriori similarity estimate (Equation 4)."""

    @abstractmethod
    def concentration_probability(self, m: int, n: int, delta: float) -> float:
        """``Pr[|S - S_hat| < delta | M(m, n)]`` (Equation 6)."""

    def is_concentrated(self, m: int, n: int, delta: float, gamma: float) -> bool:
        """Whether the estimate meets the accuracy requirement (guarantee 2)."""
        return self.concentration_probability(m, n, delta) >= 1.0 - gamma

    # ---------------- batched variants (scalar fallback) ---------------- #
    def prob_above_threshold_many(self, m, n, threshold: float) -> np.ndarray:
        """Vectorised :meth:`prob_above_threshold` over broadcastable ``m``/``n``."""
        m, n = _validate_counts_many(m, n)
        return np.array(
            [self.prob_above_threshold(int(mi), int(ni), threshold) for mi, ni in zip(m.ravel(), n.ravel())],
            dtype=np.float64,
        ).reshape(m.shape)

    def map_estimate_many(self, m, n) -> np.ndarray:
        """Vectorised :meth:`map_estimate` over broadcastable ``m``/``n``."""
        m, n = _validate_counts_many(m, n)
        return np.array(
            [self.map_estimate(int(mi), int(ni)) for mi, ni in zip(m.ravel(), n.ravel())],
            dtype=np.float64,
        ).reshape(m.shape)

    def concentration_probability_many(self, m, n, delta: float) -> np.ndarray:
        """Vectorised :meth:`concentration_probability` over broadcastable ``m``/``n``."""
        m, n = _validate_counts_many(m, n)
        return np.array(
            [self.concentration_probability(int(mi), int(ni), delta) for mi, ni in zip(m.ravel(), n.ravel())],
            dtype=np.float64,
        ).reshape(m.shape)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BetaPosterior(PosteriorModel):
    """Conjugate Beta posterior for similarities whose collision probability
    equals the similarity itself (Jaccard / minwise hashing).

    With prior ``Beta(alpha, beta)`` and observation ``M(m, n)`` the posterior
    is ``Beta(m + alpha, n - m + beta)``.
    """

    exact_budget = 64

    def __init__(self, prior: BetaPrior | None = None):
        self._prior = prior if prior is not None else BetaPrior(1.0, 1.0)

    @property
    def prior(self) -> BetaPrior:
        return self._prior

    def collision_probability(self, similarity):
        return similarity

    def _posterior_params(self, m: int, n: int) -> tuple[float, float]:
        _validate_counts(m, n)
        return m + self._prior.alpha, (n - m) + self._prior.beta

    def posterior_density(self, s: np.ndarray | float, m: int, n: int) -> np.ndarray:
        """Posterior pdf evaluated at ``s`` (vectorised); used by tests/figures."""
        a, b = self._posterior_params(m, n)
        return BetaPrior(a, b).density(s)

    def prob_above_threshold(self, m: int, n: int, threshold: float) -> float:
        a, b = self._posterior_params(m, n)
        threshold = float(np.clip(threshold, 0.0, 1.0))
        return float(1.0 - betainc(a, b, threshold))

    def map_estimate(self, m: int, n: int) -> float:
        a, b = self._posterior_params(m, n)
        # Mode of Beta(a, b).  (The paper's expression has an off-by-one typo
        # in the denominator; this is the correct mode.)
        if a > 1.0 and b > 1.0:
            return (a - 1.0) / (a + b - 2.0)
        if a <= 1.0 and b > 1.0:
            return 0.0
        if a > 1.0 and b <= 1.0:
            return 1.0
        # a <= 1 and b <= 1: density is U-shaped / flat; use the mean.
        return a / (a + b)

    def concentration_probability(self, m: int, n: int, delta: float) -> float:
        if delta <= 0:
            return 0.0
        a, b = self._posterior_params(m, n)
        estimate = self.map_estimate(m, n)
        low = max(0.0, estimate - delta)
        high = min(1.0, estimate + delta)
        return float(betainc(a, b, high) - betainc(a, b, low))

    # ---------------- batched variants (closed form) ---------------- #
    def _posterior_params_many(self, m, n) -> tuple[np.ndarray, np.ndarray]:
        m, n = _validate_counts_many(m, n)
        return m + self._prior.alpha, (n - m) + self._prior.beta

    def prob_above_threshold_many(self, m, n, threshold: float) -> np.ndarray:
        a, b = self._posterior_params_many(m, n)
        threshold = float(np.clip(threshold, 0.0, 1.0))
        return 1.0 - betainc(a, b, threshold)

    def map_estimate_many(self, m, n) -> np.ndarray:
        a, b = self._posterior_params_many(m, n)
        # Same branch structure as the scalar map_estimate, evaluated with
        # the identical float64 expressions under each mask.
        result = np.empty(a.shape, dtype=np.float64)
        interior = (a > 1.0) & (b > 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(a - 1.0, a + b - 2.0, out=result, where=interior)
        result[(a <= 1.0) & (b > 1.0)] = 0.0
        result[(a > 1.0) & (b <= 1.0)] = 1.0
        boundary = (a <= 1.0) & (b <= 1.0)
        np.divide(a, a + b, out=result, where=boundary)
        return result

    def concentration_probability_many(self, m, n, delta: float) -> np.ndarray:
        a, b = self._posterior_params_many(m, n)
        if delta <= 0:
            return np.zeros(a.shape, dtype=np.float64)
        estimate = self.map_estimate_many(m, n)
        low = np.maximum(0.0, estimate - delta)
        high = np.minimum(1.0, estimate + delta)
        return betainc(a, b, high) - betainc(a, b, low)

    def __repr__(self) -> str:
        return f"BetaPosterior(prior=Beta({self._prior.alpha:.4g}, {self._prior.beta:.4g}))"


class TruncatedCollisionPosterior(PosteriorModel):
    """Posterior for cosine similarity via signed random projections.

    The likelihood is binomial in the collision probability
    ``r = 1 - theta / pi``; with a uniform prior on ``[low, high]``
    (``[0.5, 1]`` for non-negative data) the posterior density of ``r`` is

        p(r | M(m, n)) = r^m (1 - r)^(n - m) / (B_high(m+1, n-m+1) - B_low(m+1, n-m+1))

    All ratios of incomplete beta functions are evaluated with the
    *regularised* incomplete beta function ``betainc`` so the complete-beta
    normalisation cancels and no overflow can occur.  Every query is phrased
    in terms of the cosine similarity ``s = r2c(r)`` as in Section 4.2.
    """

    #: below this posterior mass on the support, closed-form incomplete-beta
    #: ratios lose too much precision and the numerical fallback is used
    _TAIL_MASS_CUTOFF = 1e-12
    #: below this CDF-difference value the subtraction has cancelled to the
    #: float64 resolution of the operands and the mass is recomputed from the
    #: survival function instead (stable for thin upper tails); masses above
    #: the guard keep the original expression bit for bit
    _CANCELLATION_GUARD = 1e-9

    def __init__(self, prior: UniformCollisionPrior | None = None):
        self._prior = prior if prior is not None else UniformCollisionPrior()
        self._grid_fallback: GridCollisionPosterior | None = None

    @property
    def prior(self) -> UniformCollisionPrior:
        return self._prior

    def collision_probability(self, similarity):
        return cosine_to_collision(similarity)

    def _fallback(self) -> "GridCollisionPosterior":
        """Log-space numerical posterior used when the support holds almost no mass.

        When the observed agreement fraction lies far below the prior support
        (``m/n`` much less than 0.5), the normaliser
        ``B_high - B_low`` underflows and ratios of incomplete beta functions
        become meaningless; the grid posterior computes the same quantities
        stably in log space.  Such pairs are about to be pruned anyway, but
        the probabilities should still be sensible.
        """
        if self._grid_fallback is None:
            self._grid_fallback = GridCollisionPosterior(
                lambda r: np.ones_like(r), low=self._prior.low, high=self._prior.high
            )
        return self._grid_fallback

    def _mass(self, m: int, n: int, r_low: float, r_high: float) -> float:
        """Unnormalised posterior mass of ``[r_low, r_high]`` (regularised units).

        A thin upper tail makes ``betainc(.., r_high) - betainc(.., r_low)``
        cancel catastrophically (both operands round to 1.0 and the mass
        collapses to exactly 0 even when the true value is ~1e-18, which
        breaks monotonicity of ``prob_above_threshold`` in ``m``); masses
        below the cancellation guard are recomputed from the survival
        function ``betaincc``, which is exact in that regime.
        """
        a, b = m + 1.0, (n - m) + 1.0
        r_low = float(np.clip(r_low, 0.0, 1.0))
        r_high = float(np.clip(r_high, 0.0, 1.0))
        if r_high <= r_low:
            return 0.0
        mass = float(betainc(a, b, r_high) - betainc(a, b, r_low))
        if mass < self._CANCELLATION_GUARD:
            mass = max(0.0, float(betaincc(a, b, r_low) - betaincc(a, b, r_high)))
        return mass

    def _normaliser(self, m: int, n: int) -> float:
        return self._mass(m, n, self._prior.low, self._prior.high)

    def posterior_density_r(self, r: np.ndarray | float, m: int, n: int) -> np.ndarray:
        """Posterior pdf of the collision probability ``r`` (vectorised)."""
        _validate_counts(m, n)
        r = np.asarray(r, dtype=np.float64)
        a, b = m + 1.0, (n - m) + 1.0
        # Unnormalised Beta(a, b) density over the truncated support.
        norm = self._normaliser(m, n)
        density = BetaPrior(a, b).density(r)
        inside = (r >= self._prior.low) & (r <= self._prior.high)
        if norm <= 0.0:
            return np.where(inside, 0.0, 0.0)
        return np.where(inside, density / norm, 0.0)

    def prob_above_threshold(self, m: int, n: int, threshold: float) -> float:
        _validate_counts(m, n)
        threshold_r = float(cosine_to_collision(np.clip(threshold, 0.0, 1.0)))
        norm = self._normaliser(m, n)
        if norm <= self._TAIL_MASS_CUTOFF:
            return self._fallback().prob_above_threshold(m, n, threshold)
        mass = self._mass(m, n, max(threshold_r, self._prior.low), self._prior.high)
        return mass / norm

    def map_estimate(self, m: int, n: int) -> float:
        _validate_counts(m, n)
        if n == 0:
            # No data: the prior is flat, return the midpoint of the support.
            r_hat = 0.5 * (self._prior.low + self._prior.high)
        else:
            r_hat = float(np.clip(m / n, self._prior.low, self._prior.high))
        return float(collision_to_cosine(r_hat))

    def concentration_probability(self, m: int, n: int, delta: float) -> float:
        if delta <= 0:
            return 0.0
        _validate_counts(m, n)
        estimate = self.map_estimate(m, n)
        norm = self._normaliser(m, n)
        if norm <= self._TAIL_MASS_CUTOFF:
            return self._fallback().concentration_probability(m, n, delta)
        r_low = float(cosine_to_collision(max(-1.0, estimate - delta)))
        r_high = float(cosine_to_collision(min(1.0, estimate + delta)))
        r_low = max(r_low, self._prior.low)
        r_high = min(r_high, self._prior.high)
        return self._mass(m, n, r_low, r_high) / norm

    # ---------------- batched variants (closed form) ---------------- #
    def _mass_many(
        self, a: np.ndarray, b: np.ndarray, r_low: np.ndarray, r_high: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`_mass` with per-element posterior parameters.

        Applies the same survival-function recomputation as the scalar path
        to elements whose CDF difference cancelled below the guard, so the
        batched probabilities stay bit-identical to the scalar ones.
        """
        r_low = np.clip(r_low, 0.0, 1.0)
        r_high = np.clip(r_high, 0.0, 1.0)
        mass = betainc(a, b, r_high) - betainc(a, b, r_low)
        cancelled = mass < self._CANCELLATION_GUARD
        if np.any(cancelled):
            stable = np.maximum(0.0, betaincc(a, b, r_low) - betaincc(a, b, r_high))
            mass = np.where(cancelled, stable, mass)
        return np.where(r_high <= r_low, 0.0, mass)

    def _normaliser_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        low = np.broadcast_to(self._prior.low, a.shape)
        high = np.broadcast_to(self._prior.high, a.shape)
        return self._mass_many(a, b, low, high)

    def prob_above_threshold_many(self, m, n, threshold: float) -> np.ndarray:
        m, n = _validate_counts_many(m, n)
        a, b = m + 1.0, (n - m) + 1.0
        threshold_r = float(cosine_to_collision(np.clip(threshold, 0.0, 1.0)))
        norm = self._normaliser_many(a, b)
        lower = np.broadcast_to(max(threshold_r, self._prior.low), a.shape)
        mass = self._mass_many(a, b, lower, np.broadcast_to(self._prior.high, a.shape))
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.where(norm > self._TAIL_MASS_CUTOFF, mass / np.where(norm > 0, norm, 1.0), 0.0)
        # Elements whose support mass underflows fall back to the stable
        # log-space grid posterior, exactly like the scalar path.
        for index in np.flatnonzero(norm.ravel() <= self._TAIL_MASS_CUTOFF):
            result.flat[index] = self._fallback().prob_above_threshold(
                int(m.flat[index]), int(n.flat[index]), threshold
            )
        return result

    def map_estimate_many(self, m, n) -> np.ndarray:
        m, n = _validate_counts_many(m, n)
        midpoint = 0.5 * (self._prior.low + self._prior.high)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(n > 0, m / np.where(n > 0, n, 1), midpoint)
        r_hat = np.where(n > 0, np.clip(ratio, self._prior.low, self._prior.high), midpoint)
        return np.asarray(collision_to_cosine(r_hat), dtype=np.float64)

    def concentration_probability_many(self, m, n, delta: float) -> np.ndarray:
        m, n = _validate_counts_many(m, n)
        if delta <= 0:
            return np.zeros(m.shape, dtype=np.float64)
        a, b = m + 1.0, (n - m) + 1.0
        estimate = self.map_estimate_many(m, n)
        norm = self._normaliser_many(a, b)
        r_low = np.asarray(cosine_to_collision(np.maximum(-1.0, estimate - delta)))
        r_high = np.asarray(cosine_to_collision(np.minimum(1.0, estimate + delta)))
        r_low = np.maximum(r_low, self._prior.low)
        r_high = np.minimum(r_high, self._prior.high)
        mass = self._mass_many(a, b, r_low, r_high)
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.where(norm > self._TAIL_MASS_CUTOFF, mass / np.where(norm > 0, norm, 1.0), 0.0)
        for index in np.flatnonzero(norm.ravel() <= self._TAIL_MASS_CUTOFF):
            result.flat[index] = self._fallback().concentration_probability(
                int(m.flat[index]), int(n.flat[index]), delta
            )
        return result

    def __repr__(self) -> str:
        return (
            f"TruncatedCollisionPosterior(support=[{self._prior.low}, {self._prior.high}])"
        )


class GridCollisionPosterior(PosteriorModel):
    """Numerical posterior over the collision probability for an arbitrary prior.

    Used for the appendix's prior-sensitivity study (priors proportional to
    ``r^-3``, ``1`` and ``r^3`` on ``[0.5, 1]``) and as an independent check of
    :class:`TruncatedCollisionPosterior`.  The posterior is represented on a
    uniform grid over the support and integrated with the trapezoidal rule.

    Parameters
    ----------
    prior_density:
        Callable returning the (possibly unnormalised) prior density at an
        array of ``r`` values.
    low, high:
        Support of the prior.
    grid_size:
        Number of grid points; 4097 gives ~1e-7 accuracy for the smooth
        densities involved.
    to_similarity / from_similarity:
        Mappings between the collision probability and the similarity the
        caller cares about.  Defaults to the cosine mappings ``r2c``/``c2r``;
        pass identities to work directly on the collision scale.
    """

    def __init__(
        self,
        prior_density: Callable[[np.ndarray], np.ndarray],
        low: float = 0.5,
        high: float = 1.0,
        grid_size: int = 4097,
        to_similarity: Callable[[np.ndarray], np.ndarray] | None = None,
        from_similarity: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not (0.0 <= low < high <= 1.0):
            raise ValueError(f"support must satisfy 0 <= low < high <= 1, got [{low}, {high}]")
        if grid_size < 3:
            raise ValueError(f"grid_size must be at least 3, got {grid_size}")
        self._low = float(low)
        self._high = float(high)
        self._grid = np.linspace(self._low, self._high, int(grid_size))
        prior_values = np.asarray(prior_density(self._grid), dtype=np.float64)
        if np.any(prior_values < 0.0) or not np.all(np.isfinite(prior_values)):
            raise ValueError("prior density must be finite and non-negative on the support")
        total = np.trapezoid(prior_values, self._grid)
        if total <= 0.0:
            raise ValueError("prior density integrates to zero on the support")
        self._prior_values = prior_values / total
        self._to_similarity = to_similarity if to_similarity is not None else collision_to_cosine
        self._from_similarity = from_similarity if from_similarity is not None else cosine_to_collision

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    def collision_probability(self, similarity):
        return self._from_similarity(similarity)

    def posterior_density_r(self, m: int, n: int) -> np.ndarray:
        """Normalised posterior density evaluated on the grid."""
        _validate_counts(m, n)
        r = self._grid
        with np.errstate(divide="ignore", invalid="ignore"):
            log_likelihood = m * np.log(np.clip(r, 1e-300, None)) + (n - m) * np.log(
                np.clip(1.0 - r, 1e-300, None)
            )
        log_likelihood -= log_likelihood.max()
        unnormalised = np.exp(log_likelihood) * self._prior_values
        total = np.trapezoid(unnormalised, r)
        if total <= 0.0:
            return np.zeros_like(r)
        return unnormalised / total

    def prob_above_threshold(self, m: int, n: int, threshold: float) -> float:
        density = self.posterior_density_r(m, n)
        threshold_r = float(np.clip(self._from_similarity(threshold), self._low, self._high))
        mask = self._grid >= threshold_r
        if not np.any(mask):
            return 0.0
        return float(np.trapezoid(density[mask], self._grid[mask]))

    def map_estimate(self, m: int, n: int) -> float:
        density = self.posterior_density_r(m, n)
        r_hat = float(self._grid[int(np.argmax(density))])
        return float(self._to_similarity(r_hat))

    def concentration_probability(self, m: int, n: int, delta: float) -> float:
        if delta <= 0:
            return 0.0
        density = self.posterior_density_r(m, n)
        estimate = self.map_estimate(m, n)
        r_low = float(np.clip(self._from_similarity(estimate - delta), self._low, self._high))
        r_high = float(np.clip(self._from_similarity(estimate + delta), self._low, self._high))
        mask = (self._grid >= r_low) & (self._grid <= r_high)
        if not np.any(mask):
            return 0.0
        return float(np.trapezoid(density[mask], self._grid[mask]))


def make_posterior(measure_name: str, prior=None) -> PosteriorModel:
    """Build the posterior model matching a similarity measure.

    ``"jaccard"`` maps to :class:`BetaPosterior`; ``"cosine"`` and
    ``"binary_cosine"`` map to :class:`TruncatedCollisionPosterior`.
    """
    if measure_name == "jaccard":
        if prior is not None and not isinstance(prior, BetaPrior):
            raise TypeError("Jaccard BayesLSH expects a BetaPrior")
        return BetaPosterior(prior)
    if measure_name in ("cosine", "binary_cosine"):
        if prior is not None and not isinstance(prior, UniformCollisionPrior):
            raise TypeError("cosine BayesLSH expects a UniformCollisionPrior")
        return TruncatedCollisionPosterior(prior)
    raise ValueError(
        f"no posterior model for measure {measure_name!r}; expected jaccard, cosine or binary_cosine"
    )
