"""Unit tests for the pre-computed minMatches pruning table (Section 4.3)."""

import numpy as np
import pytest

from repro.core.min_matches import MinMatchesTable
from repro.core.posteriors import (
    BetaPosterior,
    GridCollisionPosterior,
    TruncatedCollisionPosterior,
)
from repro.core.priors import BetaPrior


@pytest.fixture(params=["jaccard", "cosine"])
def posterior(request):
    if request.param == "jaccard":
        return BetaPosterior(BetaPrior(1.0, 1.0))
    return TruncatedCollisionPosterior()


class TestMinMatchesTable:
    def test_equivalence_with_direct_inference(self, posterior):
        """m >= minMatches(n) exactly reproduces Pr[S >= t | M(m,n)] >= epsilon."""
        table = MinMatchesTable(posterior, threshold=0.7, epsilon=0.03, k=32, max_hashes=128)
        for n in (32, 64, 96, 128):
            for m in range(0, n + 1, 4):
                direct = posterior.prob_above_threshold(m, n, 0.7) >= 0.03
                assert table.passes(m, n) == direct, (m, n)

    def test_min_matches_increases_with_n(self, posterior):
        table = MinMatchesTable(posterior, threshold=0.7, epsilon=0.03, k=32, max_hashes=256)
        values = [table.min_matches(n) for n in (32, 64, 128, 256)]
        assert values == sorted(values)

    def test_min_matches_increases_with_threshold(self, posterior):
        low = MinMatchesTable(posterior, threshold=0.5, epsilon=0.03, k=32, max_hashes=64)
        high = MinMatchesTable(posterior, threshold=0.9, epsilon=0.03, k=32, max_hashes=64)
        assert high.min_matches(64) >= low.min_matches(64)

    def test_smaller_epsilon_prunes_less(self, posterior):
        strict = MinMatchesTable(posterior, threshold=0.7, epsilon=0.0001, k=32, max_hashes=64)
        loose = MinMatchesTable(posterior, threshold=0.7, epsilon=0.3, k=32, max_hashes=64)
        assert strict.min_matches(64) <= loose.min_matches(64)

    def test_checkpoints_are_multiples_of_k(self, posterior):
        table = MinMatchesTable(posterior, threshold=0.6, epsilon=0.05, k=32, max_hashes=160)
        assert table.checkpoints.tolist() == [32, 64, 96, 128, 160]

    def test_on_demand_value_outside_table(self, posterior):
        table = MinMatchesTable(posterior, threshold=0.6, epsilon=0.05, k=32, max_hashes=64)
        direct = table.min_matches(80)
        assert table.passes(direct, 80)
        if direct > 0:
            assert not table.passes(direct - 1, 80)

    def test_passes_many_vectorised(self, posterior):
        table = MinMatchesTable(posterior, threshold=0.7, epsilon=0.03, k=32, max_hashes=64)
        matches = np.arange(0, 65)
        batch = table.passes_many(matches, 64)
        singles = [table.passes(int(m), 64) for m in matches]
        assert batch.tolist() == singles

    def test_as_array(self, posterior):
        table = MinMatchesTable(posterior, threshold=0.7, epsilon=0.03, k=32, max_hashes=96)
        array = table.as_array()
        assert array.shape == (3, 2)
        assert array[:, 0].tolist() == [32, 64, 96]

    def test_impossible_threshold_marks_all_pruned(self):
        # With an extreme epsilon even m = n may fail; every pair is then pruned.
        posterior = BetaPosterior()
        table = MinMatchesTable(posterior, threshold=0.999, epsilon=0.99999, k=8, max_hashes=8)
        assert not table.passes(8, 8)

    def test_invalid_parameters(self, posterior):
        with pytest.raises(ValueError):
            MinMatchesTable(posterior, threshold=0.7, epsilon=0.03, k=0, max_hashes=32)
        with pytest.raises(ValueError):
            MinMatchesTable(posterior, threshold=0.7, epsilon=0.03, k=64, max_hashes=32)


def _scalar_min_matches(posterior, threshold: float, epsilon: float, n: int) -> int:
    """One ``n`` at a time, one scalar posterior query per step (the reference)."""
    if posterior.prob_above_threshold(n, n, threshold) < epsilon:
        return n + 1
    if posterior.prob_above_threshold(0, n, threshold) >= epsilon:
        return 0
    low, high = 0, n  # invariant: prob(low) < eps <= prob(high)
    while high - low > 1:
        mid = (low + high) // 2
        if posterior.prob_above_threshold(mid, n, threshold) >= epsilon:
            high = mid
        else:
            low = mid
    return high


_LOCKSTEP_POSTERIORS = {
    "cosine": TruncatedCollisionPosterior(),
    "beta-uniform": BetaPosterior(),
    "beta-fitted": BetaPosterior(BetaPrior(2.37, 5.11)),
    # no batched override: exercises the base class's scalar ``_many`` fallback
    "grid": GridCollisionPosterior(lambda r: r**3, grid_size=513),
}


class TestLockstepSearch:
    """The table's side-by-side bisections against one scalar bisection per ``n``."""

    @pytest.mark.parametrize("name", list(_LOCKSTEP_POSTERIORS))
    @pytest.mark.parametrize("threshold", [0.1, 0.5, 0.7, 0.97])
    @pytest.mark.parametrize("epsilon", [0.001, 0.03, 0.2])
    def test_table_equals_scalar_bisection(self, name, threshold, epsilon):
        posterior = _LOCKSTEP_POSTERIORS[name]
        # max_hashes is deliberately not a multiple of k
        k, max_hashes = (32, 300) if name == "grid" else (16, 1000)
        table = MinMatchesTable(posterior, threshold, epsilon, k=k, max_hashes=max_hashes)
        ns = list(range(k, max_hashes + 1, k))
        assert table.checkpoints.tolist() == ns
        assert table.as_array()[:, 1].tolist() == [
            _scalar_min_matches(posterior, threshold, epsilon, n) for n in ns
        ]

    @pytest.mark.parametrize("name", list(_LOCKSTEP_POSTERIORS))
    def test_on_demand_entry_equals_scalar_bisection(self, name):
        posterior = _LOCKSTEP_POSTERIORS[name]
        table = MinMatchesTable(posterior, 0.6, 0.05, k=32, max_hashes=64)
        for n in (1, 7, 80, 333):
            assert table.min_matches(n) == _scalar_min_matches(posterior, 0.6, 0.05, n)

    def test_every_entry_unreachable(self):
        table = MinMatchesTable(BetaPosterior(), 0.999, 0.99999, k=8, max_hashes=30)
        assert table.as_array().tolist() == [[8, 9], [16, 17], [24, 25]]

    def test_every_entry_zero(self):
        table = MinMatchesTable(BetaPosterior(), 0.001, 0.0001, k=8, max_hashes=30)
        assert table.as_array().tolist() == [[8, 0], [16, 0], [24, 0]]
        assert table.passes_many(np.zeros(3, dtype=np.int64), 8).all()

    def test_one_batched_call_per_bisection_step(self):
        """~log2(max n) posterior calls for the whole table, not one per (n, step)."""
        calls = []

        class Counting(TruncatedCollisionPosterior):
            def prob_above_threshold_many(self, m, n, threshold):
                calls.append(np.size(m))
                return super().prob_above_threshold_many(m, n, threshold)

        MinMatchesTable(Counting(), 0.5, 0.03, k=32, max_hashes=2048)
        assert len(calls) <= 2 + 11  # the two edge probes + ceil(log2(2048)) steps
        assert max(calls) <= 64  # never more than one query per open n
