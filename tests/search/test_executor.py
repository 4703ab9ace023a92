"""Unit tests for the offline engine's pool and the merge of block outputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bayeslsh import VerificationOutput
from repro.search.executor import ExactPool
from repro.testing import faults


class TestVerificationOutputMerge:
    def _output(self, n, pruned, trace, **kwargs):
        return VerificationOutput(
            left=np.arange(n - pruned, dtype=np.int64),
            right=np.arange(n - pruned, dtype=np.int64) + 1,
            estimates=np.full(n - pruned, 0.5),
            n_candidates=n,
            n_pruned=pruned,
            trace=trace,
            **kwargs,
        )

    def test_counters_sum(self):
        merged = VerificationOutput.merge(
            [
                self._output(5, 2, [], hash_comparisons=10, exact_computations=3),
                self._output(4, 1, [], hash_comparisons=6, exact_computations=2),
            ]
        )
        assert merged.n_candidates == 9
        assert merged.n_pruned == 3
        assert merged.hash_comparisons == 16
        assert merged.exact_computations == 5
        assert merged.n_output == 6

    def test_trace_merges_round_by_round(self):
        # block A runs three rounds, block B finishes after one: B contributes
        # its final not-pruned count to A's later rounds.
        a = self._output(10, 4, [(32, 9), (64, 7), (96, 6)])
        b = self._output(6, 2, [(32, 4)])
        merged = VerificationOutput.merge([a, b])
        assert merged.trace == [(32, 13), (64, 11), (96, 10)]

    def test_mismatched_round_boundaries_rejected(self):
        a = self._output(4, 0, [(32, 4)])
        b = self._output(4, 0, [(16, 4)])
        with pytest.raises(ValueError, match="mismatched round boundaries"):
            VerificationOutput.merge([a, b])

    def test_a_single_output_is_returned_as_is(self):
        only = self._output(5, 2, [(32, 3)])
        assert VerificationOutput.merge([only]) is only

    def test_empty_merge(self):
        merged = VerificationOutput.merge([])
        assert merged.n_candidates == 0
        assert merged.n_output == 0
        assert merged.trace == []


def _score(left, right):
    return (left * 100 + right).astype(np.float64)


class TestExactPool:
    """The engine's workers are forked by the first exact request, not before."""

    def test_no_request_forks_nothing(self):
        started = []
        with faults.inject() as plan:
            plan.on_event("pool_start", started.append)
            with ExactPool(2, _score):
                pass
        assert started == []

    def test_forks_once_on_the_first_non_empty_request(self):
        started = []
        empty = np.zeros(0, dtype=np.int64)
        left, right = np.arange(9), np.arange(9) + 3
        with faults.inject() as plan:
            plan.on_event("pool_start", started.append, count=2)
            with ExactPool(2, _score) as pool:
                assert pool.map_exact(empty, empty, fallback=_score).tolist() == []
                assert started == []
                first = pool.map_exact(left, right, fallback=_score)
                second = pool.map_exact(right, left, fallback=_score)
            assert len(started) == 1
            workers = started[0]["pool"]._processes
        np.testing.assert_array_equal(first, _score(left, right))
        np.testing.assert_array_equal(second, _score(right, left))
        assert not any(process.is_alive() for process in workers)
