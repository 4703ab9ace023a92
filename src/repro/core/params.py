"""User-facing parameter object of the BayesLSH round engine.

The paper's headline usability claim is that its three parameters map
directly onto output-quality guarantees:

* ``epsilon`` — recall knob: every pair whose posterior probability of being
  a true positive exceeds ``epsilon`` is kept (guarantee 1);
* ``delta`` and ``gamma`` — accuracy knobs: every reported similarity
  estimate is within ``delta`` of the truth with probability at least
  ``1 - gamma`` (guarantee 2).

A pair leaves the rounds in one of three ways — it is *pruned*, its estimate
*concentrates*, or it reaches the hash *budget* — and the published
algorithms differ only in which of these are enabled and in what happens at
the budget (:attr:`BayesLSHParams.on_budget`):

=================  ================  ===========  ==========
configuration      budget            concentrate  on_budget
=================  ================  ===========  ==========
Algorithm 1        2048              yes          estimate
Algorithm 2, Lite  ``h``             no           exact
hybrid (default)   one hash block    yes          exact
=================  ================  ===========  ==========

The object also carries the batch size ``k`` (the number of hashes compared
per round, 32 in the paper because a cosine hash is one bit and 32 of them
fill a machine word).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["BayesLSHParams", "BayesLSHLiteParams", "ON_BUDGET"]

#: what happens to a pair that reaches the hash budget undecided
ON_BUDGET = ("estimate", "exact")


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class BayesLSHParams:
    """Parameters of the round engine (Algorithms 1 and 2 and the hybrid).

    Attributes
    ----------
    threshold:
        Similarity threshold ``t``; only pairs with similarity ``>= t`` are
        of interest.
    epsilon:
        Recall parameter: prune a pair as soon as
        ``Pr[S >= t | M(m, n)] < epsilon``.  Smaller values mean higher
        recall (fewer false negatives) at the cost of weaker pruning.
    delta, gamma:
        Accuracy parameters: a pair is emitted with its MAP estimate once
        ``Pr[|S - S_hat| < delta] >= 1 - gamma``.
    k:
        Number of hashes compared per round (32 in the paper).
    max_hashes:
        Upper bound on the number of hashes examined per pair.  ``None``
        (default) is resolved by :class:`~repro.core.rounds.RoundTables`:
        2048 — the paper's LSH-Approx budget for cosine — under
        ``on_budget="estimate"``, and the posterior's
        :attr:`~repro.core.posteriors.PosteriorModel.exact_budget` under
        ``"exact"``.
    concentrate:
        Whether the concentration test runs at all; BayesLSH-Lite never
        estimates, so :func:`BayesLSHLiteParams` turns it off.
    on_budget:
        ``"exact"`` (default) scores a pair that is still undecided at the
        budget exactly and keeps it only if that value exceeds the
        threshold; ``"estimate"`` emits its current, *unconcentrated* MAP
        estimate, as Algorithm 1 does.
    """

    threshold: float
    epsilon: float = 0.03
    delta: float = 0.05
    gamma: float = 0.03
    k: int = 32
    max_hashes: int | None = None
    concentrate: bool = True
    on_budget: str = "exact"

    def __post_init__(self):
        _check_unit_interval("threshold", self.threshold)
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("delta", self.delta)
        _check_unit_interval("gamma", self.gamma)
        if self.k <= 0:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.max_hashes is not None and self.max_hashes < self.k:
            raise ValueError(
                f"max_hashes ({self.max_hashes}) must be at least k ({self.k})"
            )
        if self.on_budget not in ON_BUDGET:
            raise ValueError(f"on_budget must be one of {ON_BUDGET}, got {self.on_budget!r}")

    def with_threshold(self, threshold: float) -> "BayesLSHParams":
        """A copy of these parameters with a different similarity threshold."""
        return replace(self, threshold=threshold)


def BayesLSHLiteParams(
    threshold: float, epsilon: float = 0.03, h: int = 128, k: int = 32
) -> BayesLSHParams:
    """Parameters of Algorithm 2 (BayesLSH-Lite).

    ``h`` is the number of hashes spent on pruning before a surviving pair is
    scored exactly (the paper uses 128 for cosine and 64 for Jaccard): the
    round engine with the budget ``h``, no concentration test and
    ``on_budget="exact"``.
    """
    return BayesLSHParams(
        threshold=threshold, epsilon=epsilon, k=k, max_hashes=h, concentrate=False
    )
