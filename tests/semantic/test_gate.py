"""Tier-1 semantic gate: six measure x configuration cells, and proof it bites.

See :mod:`tests.semantic.gate` for what a cell measures.  The planted bugs
are the kinds of defect every path-vs-path identity suite passes — all paths
share the bug — and each must move the measured counts out of tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bayeslsh import BayesLSH, VerificationOutput
from repro.core.min_matches import MinMatchesTable
from repro.core.rounds import PairState
from repro.hashing.simhash import SimHashFamily

from . import gate


@pytest.mark.parametrize("configuration", gate.CONFIGURATIONS)
@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_measured_equals_predicted(measure, configuration):
    report = gate.run_cell(measure, configuration)
    assert not report.problems(), "\n".join(map(str, report.statistics))
    # the cell is not vacuous: pairs were pruned, returned, and (where the
    # configuration can) both estimated and scored exactly
    by_name = {statistic.name: statistic for statistic in report.statistics}
    assert by_name["alive@32"].measured < 0.95 * 2000 and len(report.returned_values) > 500
    assert report.returned_exact.any() == (configuration != "algorithm1")
    if (measure, configuration) != ("jaccard", "hybrid"):  # nothing concentrates in 64 minhashes
        assert (~report.returned_exact).any() == (configuration != "lite")


def _problems_with(monkeypatch, owner, name, replacement, n_pairs=2000) -> list:
    monkeypatch.setattr(owner, name, replacement)
    return gate.run_cell("cosine", "hybrid", n_pairs=n_pairs).problems()


def test_planted_bug_one_projection_column(monkeypatch):
    """Hash 5 of every row comes out 1: one bit in 256, every pair agrees on it."""
    original = SimHashFamily._project_bits

    def stuck_column(self, start, end):
        bits = original(self, start, end)
        if start <= 5 < end:
            bits[:, 5 - start] = 1
        return bits

    # one hash in 32 is a small bias: it takes 8,000 pairs to stand out
    problems = _problems_with(monkeypatch, SimHashFamily, "_project_bits", stuck_column, 8000)
    assert any(problem.startswith("alive@32") for problem in problems), problems


def test_planted_bug_min_matches_off_by_one(monkeypatch):
    original = MinMatchesTable.min_matches
    problems = _problems_with(
        monkeypatch, MinMatchesTable, "min_matches", lambda self, n: original(self, n) + 1
    )
    assert any(problem.startswith("minMatches(32)") for problem in problems), problems


def test_planted_bug_replay_skips_a_round(monkeypatch):
    """The third round's agreements are dropped while ``n`` advances."""
    original = PairState.advance

    def skipping(self, new_matches, n_now):
        if n_now == 3 * self._tables.params.k:
            new_matches = np.zeros_like(new_matches)
        return original(self, new_matches, n_now)

    problems = _problems_with(monkeypatch, PairState, "advance", skipping)
    assert any(problem.startswith("alive@96") for problem in problems), problems


def test_planted_bug_exhausted_pairs_not_filtered(monkeypatch):
    """Exhausted pairs are scored exactly but the ``> t`` filter is forgotten."""

    def unfiltered(self, left, right, state, exact_similarities=None):
        positions, values, exhausted = state.survivors(self.params.on_budget)
        scored = positions[exhausted]
        values[exhausted] = self.exact_similarities(left[scored], right[scored])
        return VerificationOutput(
            left=left[positions],
            right=right[positions],
            estimates=values,
            n_candidates=len(left),
            n_pruned=state.n_pruned,
            trace=state.trace,
            hash_comparisons=state.hash_comparisons,
            exact_computations=int(exhausted.sum()),
            exact_mask=exhausted,
        )

    problems = _problems_with(monkeypatch, BayesLSH, "output", unfiltered)
    assert any("at or below t" in problem for problem in problems), problems
