"""BayesLSH — candidate pruning, similarity estimation and the terminal rule.

For every candidate pair the algorithm compares hashes in batches of ``k``.
After each batch it can take one of three actions:

* **prune** the pair because ``Pr[S >= t | M(m, n)] < epsilon``
  (implemented with the pre-computed :class:`~repro.core.min_matches.MinMatchesTable`);
* **emit** the pair because the similarity estimate is sufficiently
  concentrated, ``Pr[|S - S_hat| < delta] >= 1 - gamma``
  (implemented with the :class:`~repro.core.concentration_cache.ConcentrationCache`);
* continue with the next batch of hashes.

A pair still undecided at the hash budget meets the terminal rule
(:attr:`~repro.core.params.BayesLSHParams.on_budget`): Algorithm 1 emits its
current estimate, Algorithm 2 (BayesLSH-Lite, which also skips the
concentration test) and the default hybrid score it exactly and keep it only
above the threshold.

The implementation is round-synchronous rather than pair-at-a-time: all still
-active pairs advance one batch per round, which produces exactly the same
decisions as the paper's per-pair loop (every decision depends only on the
pair's own ``(m, n)``) while allowing the hash comparisons to be vectorised.
The per-round survivor counts recorded in :class:`VerificationOutput.trace`
are what Figure 4 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.core.params import BayesLSHParams
from repro.core.posteriors import PosteriorModel
from repro.core.rounds import RoundTables, replay_rounds
from repro.hashing.base import HashFamily

__all__ = ["BayesLSH", "VerificationOutput"]


@dataclass
class VerificationOutput:
    """Result of verifying a batch of candidate pairs.

    Attributes
    ----------
    left, right:
        Row indices of the pairs that were *not* pruned, parallel arrays.
    estimates:
        Reported similarity of each output pair: a MAP estimate, or the exact
        value where ``exact_mask`` is set.
    exact_mask:
        Which ``estimates`` are exact similarities (defaults to none).
    n_candidates:
        Number of candidate pairs that entered verification.
    n_pruned:
        Number of candidate pairs eliminated by the pruning test.
    trace:
        ``(n_hashes_examined, n_candidates_still_alive)`` checkpoints, where
        "alive" means not yet pruned; this is the data behind Figure 4.
    hash_comparisons:
        Total number of individual hash comparisons performed.
    exact_computations:
        Number of exact similarity computations performed (one per pair that
        exhausted the hash budget under ``on_budget="exact"``).
    n_unconcentrated:
        Output pairs whose estimate is a budget-exhausted, *unconcentrated*
        one (``on_budget="estimate"`` only): the accuracy guarantee does not
        cover them.
    """

    left: np.ndarray
    right: np.ndarray
    estimates: np.ndarray
    n_candidates: int
    n_pruned: int
    trace: list[tuple[int, int]] = field(default_factory=list)
    hash_comparisons: int = 0
    exact_computations: int = 0
    exact_mask: np.ndarray | None = None
    n_unconcentrated: int = 0

    def __post_init__(self):
        if self.exact_mask is None:
            self.exact_mask = np.zeros(len(self.left), dtype=bool)

    @property
    def n_output(self) -> int:
        return len(self.left)

    def pairs(self) -> list[tuple[int, int, float]]:
        """Output as a list of ``(i, j, estimate)`` tuples."""
        return list(
            zip(self.left.tolist(), self.right.tolist(), self.estimates.tolist())
        )

    @classmethod
    def merge(cls, outputs: "list[VerificationOutput]") -> "VerificationOutput":
        """Combine the outputs of disjoint candidate blocks into one.

        Output pairs are concatenated in block order and counters are summed.
        Traces are merged round-by-round: a block whose pairs were all decided
        by round ``r`` contributes its final not-pruned count to every later
        round, which reconstructs exactly the trace a single monolithic
        round-synchronous run over the union of the blocks would record (every
        prune/emit decision depends only on the pair's own ``(m, n)``).
        """
        outputs = list(outputs)
        if not outputs:
            return cls(
                left=np.zeros(0, dtype=np.int64),
                right=np.zeros(0, dtype=np.int64),
                estimates=np.zeros(0, dtype=np.float64),
                n_candidates=0,
                n_pruned=0,
            )
        trace: list[tuple[int, int]] = []
        for r in range(max(len(o.trace) for o in outputs)):
            n_now = next(o.trace[r][0] for o in outputs if len(o.trace) > r)
            alive = 0
            for o in outputs:
                if len(o.trace) > r:
                    if o.trace[r][0] != n_now:
                        raise ValueError(
                            "cannot merge traces with mismatched round boundaries: "
                            f"{o.trace[r][0]} vs {n_now} at round {r}"
                        )
                    alive += o.trace[r][1]
                else:
                    alive += o.n_candidates - o.n_pruned
            trace.append((n_now, alive))
        return cls(
            left=np.concatenate([o.left for o in outputs]),
            right=np.concatenate([o.right for o in outputs]),
            estimates=np.concatenate([o.estimates for o in outputs]),
            n_candidates=sum(o.n_candidates for o in outputs),
            n_pruned=sum(o.n_pruned for o in outputs),
            trace=trace,
            hash_comparisons=sum(o.hash_comparisons for o in outputs),
            exact_computations=sum(o.exact_computations for o in outputs),
            exact_mask=np.concatenate([o.exact_mask for o in outputs]),
            n_unconcentrated=sum(o.n_unconcentrated for o in outputs),
        )


#: Round index from which verify() starts gathering multi-round super-blocks.
#: Rounds 0 and 1 prune the bulk of the candidates, so super-blocking them
#: gathers columns most pairs never look at — measured ~1.5x slower on the
#: 100k-pair hot-path workload.  From round 2 on the survivor set is stable
#: and the wide gather amortises.
_SUPERBLOCK_START = 2
#: maximum number of rounds gathered per super-block (the store kernels tile
#: the pair axis to an L2-sized scratch, so there is no active-count ceiling)
_SUPERBLOCK_ROUNDS = 4


class BayesLSH:
    """The BayesLSH candidate verifier (Algorithms 1 and 2 and the hybrid).

    Parameters
    ----------
    family:
        Hash family bound to the vector collection; signatures are requested
        lazily, ``k`` hashes at a time, so vectors are only hashed as many
        times as the algorithm actually needs.
    posterior:
        Posterior model matching the similarity measure (Beta posterior for
        Jaccard, truncated collision posterior for cosine).
    params:
        The ``threshold`` / ``epsilon`` / ``delta`` / ``gamma`` knobs, the
        hash budget and the terminal rule.
    exact_similarities:
        Batched callable ``(left, right) -> float64 array`` computing the exact
        similarities of pairs of rows given as parallel index arrays; required
        by ``on_budget="exact"``, never called under ``"estimate"``.
    """

    def __init__(
        self,
        family: HashFamily,
        posterior: PosteriorModel,
        params: BayesLSHParams,
        exact_similarities: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        if params.on_budget == "exact" and exact_similarities is None:
            raise ValueError('on_budget="exact" needs an exact_similarities callable')
        self._family = family
        self._tables = RoundTables(posterior, params)
        self.exact_similarities = exact_similarities

    @property
    def family(self) -> HashFamily:
        return self._family

    @property
    def params(self) -> BayesLSHParams:
        return self._tables.params

    @property
    def posterior(self) -> PosteriorModel:
        return self._tables.posterior

    @property
    def tables(self) -> RoundTables:
        """The decision tables every verification runs on."""
        return self._tables

    def output(
        self,
        left: np.ndarray,
        right: np.ndarray,
        values: np.ndarray,
        exhausted: np.ndarray,
        trace: list,
        hash_comparisons: int,
        exact_similarities=None,
    ) -> VerificationOutput:
        """Apply the terminal rule to a block's :meth:`PairState.outcome`.

        Under ``"exact"`` the exhausted pairs are scored (through
        ``exact_similarities`` when given, the algorithm's own scorer
        otherwise) and dropped unless they exceed the threshold; under
        ``"estimate"`` every pair that was not pruned is output.
        ``n_pruned`` counts the pruning test's eliminations only.
        """
        exact = self._tables.on_budget == "exact"
        pruned = np.isnan(values) & ~exhausted
        keep = ~pruned
        if exact:
            score = exact_similarities or self.exact_similarities
            scored = np.asarray(score(left[exhausted], right[exhausted]), dtype=np.float64)
            values[exhausted] = scored
            keep[exhausted] = scored > self._tables.params.threshold
        n_exhausted = int(np.count_nonzero(exhausted))
        return VerificationOutput(
            left=left[keep],
            right=right[keep],
            estimates=values[keep],
            n_candidates=len(left),
            n_pruned=int(np.count_nonzero(pruned)),
            trace=trace,
            hash_comparisons=hash_comparisons,
            exact_computations=n_exhausted if exact else 0,
            exact_mask=exhausted[keep] if exact else None,
            n_unconcentrated=0 if exact else n_exhausted,
        )

    def verify(self, left, right, pool=None) -> VerificationOutput:
        """Verify candidate pairs given as parallel index arrays.

        Returns the pairs that were neither pruned nor, under
        ``on_budget="exact"``, scored at or below the threshold at the
        budget; concentrated pairs carry their MAP estimate, exhausted ones
        what the terminal rule says (they count as alive throughout the
        trace either way).

        Hash agreements are counted here, by the store's own kernel.  A
        worker ``pool`` (the streamed executor's) only scores the exhausted
        pairs exactly, through its ``map_exact``; every decision is made
        here either way.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left and right index arrays must have the same shape")
        k = self._tables.params.k

        def count_block(active: np.ndarray, n_prev: int, n_rounds: int) -> np.ndarray:
            # Survivor-side super-block: once the cheap early rounds have
            # pruned the bulk of the pairs, the long-surviving pairs gather
            # several rounds' worth of signature columns in one wide row
            # gather instead of one narrow gather per round — but only rounds
            # whose hashes are already materialised, so the family's lazy
            # hash generation (and its RNG stream consumption) is unchanged.
            if n_prev < _SUPERBLOCK_START * k:
                n_rounds = 1
            else:
                materialised = (self._family.n_hashes - n_prev) // k
                n_rounds = max(1, min(_SUPERBLOCK_ROUNDS, n_rounds, materialised))
            n_end = n_prev + n_rounds * k
            return self._family.signatures(n_end).count_matches_rounds(
                left[active], right[active], n_prev, n_end, k
            )

        state = replay_rounds(self._tables, len(left), count_block)
        values, exhausted = state.outcome(self._tables.on_budget)
        return self.output(
            left,
            right,
            values,
            exhausted,
            state.trace,
            state.hash_comparisons,
            None if pool is None else partial(pool.map_exact, fallback=self.exact_similarities),
        )
