"""Unit tests for the concentration cache (Section 4.3)."""

import numpy as np
import pytest

from repro.core.concentration_cache import _NO, _UNKNOWN, _YES, ConcentrationCache
from repro.core.posteriors import BetaPosterior, TruncatedCollisionPosterior


class TestConcentrationCache:
    def test_matches_direct_inference(self):
        posterior = BetaPosterior()
        cache = ConcentrationCache(posterior, delta=0.05, gamma=0.05)
        for n in (32, 128, 512):
            for m in (0, n // 4, n // 2, n):
                direct = posterior.concentration_probability(m, n, 0.05) >= 0.95
                assert cache.is_concentrated(m, n) == direct

    def test_cache_hit_counting(self):
        cache = ConcentrationCache(BetaPosterior(), delta=0.05, gamma=0.05)
        cache.is_concentrated(10, 32)
        cache.is_concentrated(10, 32)
        cache.is_concentrated(11, 32)
        assert cache.misses == 2
        assert cache.hits == 1
        assert len(cache) == 2

    def test_vectorised_matches_scalar(self):
        posterior = TruncatedCollisionPosterior()
        cache = ConcentrationCache(posterior, delta=0.05, gamma=0.03)
        matches = np.array([10, 20, 30, 32])
        batch = cache.is_concentrated_many(matches, 32)
        singles = [cache.is_concentrated(int(m), 32) for m in matches]
        assert batch.tolist() == singles

    def test_more_hashes_eventually_concentrated(self):
        cache = ConcentrationCache(TruncatedCollisionPosterior(), delta=0.05, gamma=0.03)
        # 75% agreement: not concentrated after 32 hashes, concentrated after 2048
        assert not cache.is_concentrated(24, 32)
        assert cache.is_concentrated(1536, 2048)

    def test_tighter_delta_requires_more_hashes(self):
        loose = ConcentrationCache(TruncatedCollisionPosterior(), delta=0.10, gamma=0.05)
        tight = ConcentrationCache(TruncatedCollisionPosterior(), delta=0.01, gamma=0.05)
        # the loose requirement is satisfied earlier than the tight one
        m, n = 192, 256
        assert loose.is_concentrated(m, n) or not tight.is_concentrated(m, n)
        assert loose.is_concentrated(480, 640)
        assert not tight.is_concentrated(480, 640)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConcentrationCache(BetaPosterior(), delta=0.0, gamma=0.05)
        with pytest.raises(ValueError):
            ConcentrationCache(BetaPosterior(), delta=0.05, gamma=1.0)

    def test_properties(self):
        cache = ConcentrationCache(BetaPosterior(), delta=0.04, gamma=0.02)
        assert cache.delta == 0.04
        assert cache.gamma == 0.02


class _UniqueFillCache(ConcentrationCache):
    """The cache with its batch fill as first written: fresh keys by ``np.unique``.

    Kept as the reference for the mask-and-``flatnonzero`` fill that replaced
    it (``np.unique`` on plain ints is a hash table from NumPy 2.3 on).
    """

    def is_concentrated_many(self, matches, n):
        n = int(n)
        matches = np.asarray(matches, dtype=np.int64)
        row = self._row(n)
        states = row[matches]
        unknown = np.unique(matches[states == _UNKNOWN])
        if len(unknown):
            probabilities = self._posterior.concentration_probability_many(
                unknown, n, self._delta
            )
            row[unknown] = np.where(probabilities >= 1.0 - self._gamma, _YES, _NO)
            self._misses += len(unknown)
            self._hits += int(np.count_nonzero(states != _UNKNOWN))
            states = row[matches]
        else:
            self._hits += matches.size
        return states == _YES


class TestBatchFill:
    @pytest.mark.parametrize(
        "posterior", [BetaPosterior(), TruncatedCollisionPosterior()], ids=["beta", "cosine"]
    )
    def test_equals_the_np_unique_fill(self, posterior):
        """Decisions, hits, misses and len() after every batch of a mixed sequence."""
        n = 96
        rng = np.random.default_rng(4)
        batches = [
            np.array([0, n, 0, n, 40, 40, 40]),  # boundaries, repeats
            rng.integers(0, n + 1, size=500),  # mostly fresh, many repeats
            rng.integers(0, n + 1, size=500),  # mostly cached by now
            np.array([], dtype=np.int64),
            np.arange(n + 1)[::-1],  # every key, descending
            np.arange(n + 1),  # all cached
        ]
        cache = ConcentrationCache(posterior, delta=0.05, gamma=0.03)
        reference = _UniqueFillCache(posterior, delta=0.05, gamma=0.03)
        cache.is_concentrated(17, n)  # one key arrives through the scalar door
        reference.is_concentrated(17, n)
        for batch in batches:
            assert (
                cache.is_concentrated_many(batch, n).tolist()
                == reference.is_concentrated_many(batch, n).tolist()
            )
            assert (cache.hits, cache.misses, len(cache)) == (
                reference.hits,
                reference.misses,
                len(reference),
            )
        assert len(cache) == n + 1 and cache.misses == n + 1

    def test_fresh_keys_resolved_in_one_ascending_call(self):
        calls = []

        class Recording(BetaPosterior):
            def concentration_probability_many(self, m, n, delta):
                calls.append(np.asarray(m).tolist())
                return super().concentration_probability_many(m, n, delta)

        cache = ConcentrationCache(Recording(), delta=0.05, gamma=0.05)
        cache.is_concentrated_many(np.array([9, 3, 9, 32, 0, 3]), 32)
        cache.is_concentrated_many(np.array([3, 4, 4, 0]), 32)
        assert calls == [[0, 3, 9, 32], [4]]

    @pytest.mark.parametrize("bad", [-1, 33])
    def test_out_of_range_message_unchanged(self, bad):
        cache = ConcentrationCache(BetaPosterior(), delta=0.05, gamma=0.05)
        with pytest.raises(ValueError, match=rf"invalid hash counts m={bad}, n=32"):
            cache.is_concentrated_many(np.array([5, bad, 7]), 32)
        assert len(cache) == 0 and cache.misses == 0
