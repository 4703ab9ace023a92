"""Achieved against nominal: the operating characteristic of a parameter set.

Not one of the paper's tables.  The paper states its guarantees per look and
under the prior; this prints what they add up to over a whole run — for
Algorithm 1, BayesLSH-Lite and the hybrid at several hash budgets — computed
exactly by :func:`repro.core.operating.operating_characteristic` from the
decision tables the engine itself uses (``runner operating --measure cosine
--threshold 0.5``).  The summary integrates over true pairs spread uniformly
on ``(t, 1]``; a corpus whose true pairs crowd the threshold does worse, which
is what the per-similarity tables are for.  The hybrid rows are how a default
budget is read off: once ``E[hashes]`` keeps growing while ``p_exhausted``
barely falls, hashing on costs more than the exact scores it saves.
"""

from __future__ import annotations

import numpy as np

from repro.core.operating import operating_characteristic
from repro.core.params import BayesLSHLiteParams, BayesLSHParams
from repro.core.posteriors import make_posterior
from repro.core.rounds import RoundTables
from repro.experiments.common import ExperimentResult
from repro.verification.bayes import DEFAULT_LITE_HASHES

__all__ = ["run"]

_HYBRID_BUDGETS = (64, 128, 256, 512)
#: similarities tabulated, as offsets from the threshold
_OFFSETS = (-0.2, -0.1, -0.05, 0.0, 0.02, 0.05, 0.1, 0.2)
_COLUMNS = ("p_pruned", "p_concentrated", "p_exhausted", "p_delta_miss", "expected_hashes")


def run(
    measure: str = "cosine",
    threshold: float = 0.5,
    epsilon: float = 0.03,
    delta: float = 0.05,
    gamma: float = 0.03,
    k: int = 32,
) -> ExperimentResult:
    knobs = dict(threshold=threshold, epsilon=epsilon, delta=delta, gamma=gamma, k=k)
    configurations = {
        "algorithm1": BayesLSHParams(**knobs, on_budget="estimate"),
        "lite": BayesLSHLiteParams(threshold, epsilon, DEFAULT_LITE_HASHES[measure], k),
        **{f"hybrid_{h}": BayesLSHParams(**knobs, max_hashes=h) for h in _HYBRID_BUDGETS if h >= k},
    }
    points = np.array([threshold + o for o in _OFFSETS if 0.0 < threshold + o < 1.0])
    true_pairs = np.linspace(threshold, 1.0, 202)[1:-1]
    result = ExperimentResult(
        experiment_id="operating",
        title="Operating characteristic: achieved vs nominal recall, delta-miss and hashes",
        parameters={"measure": measure, **knobs},
    )
    summary = []
    for name, params in configurations.items():
        tables = RoundTables(make_posterior(measure), params)
        at_points = operating_characteristic(tables, points)
        result.add_table(
            name,
            headers=["s", *_COLUMNS],
            rows=[
                [round(float(v), 4) for v in row]
                for row in zip(points, *(getattr(at_points, column) for column in _COLUMNS))
            ],
            caption=f"{name}: budget {tables.budget}, on_budget={tables.on_budget}",
        )
        overall = operating_characteristic(tables, true_pairs)
        estimated = overall.p_concentrated + overall.p_exhausted * (tables.on_budget == "estimate")
        summary.append(
            [
                name,
                tables.budget,
                round(1.0 - float(overall.p_pruned.mean()), 4),
                round(float(overall.p_delta_miss.sum() / max(estimated.sum(), 1e-300)), 4),
                round(float(estimated.mean()), 4),
                round(float(overall.expected_hashes.mean()), 1),
            ]
        )
    result.add_table(
        "summary",
        headers=["configuration", "budget", "recall", "delta_miss_rate", "estimated_share", "E[hashes]"],
        rows=summary,
        caption=(
            f"true pairs uniform on ({threshold}, 1]: nominal recall {1 - epsilon:g}, "
            f"nominal delta-miss rate {gamma:g} (among estimated values)"
        ),
    )
    result.notes.append(
        "exact for hashes independent of candidate selection; an exhausted pair under "
        "on_budget=exact is scored exactly, so it adds neither a delta-miss nor a false positive"
    )
    return result
