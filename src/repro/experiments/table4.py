"""Table 4: fraction of similarity estimates with error above 0.05.

The paper compares the accuracy of the standard fixed-budget estimator
(LSH Approx, 2048 hashes for cosine) with LSH+BayesLSH across datasets and
thresholds.  The characteristic shape: LSH Approx is very error-prone at low
thresholds (where 2048 hashes are not enough) and essentially error-free at
high thresholds (where they are overkill), while BayesLSH maintains a
consistent error rate governed by its ``gamma``/``delta`` parameters across
the whole range.
"""

from __future__ import annotations

from repro.evaluation.metrics import error_statistics
from repro.experiments.common import (
    COSINE_THRESHOLDS,
    ExperimentResult,
    GRAPH_DATASETS,
    PAPER_BAYESLSH,
    TEXT_DATASETS,
    load_experiment_dataset,
)
from repro.search.pipelines import make_pipeline
from repro.verification.base import exact_similarities_for_pairs
from repro.similarity.measures import get_measure

__all__ = ["run"]

_PIPELINES = ("lsh_approx", "lsh_bayeslsh")


def _exact_map_for_result(dataset, measure_name, search_result) -> dict:
    """Exact similarities of every reported pair (including false positives)."""
    measure = get_measure(measure_name)
    prepared = measure.prepare(dataset.collection)
    values = exact_similarities_for_pairs(
        prepared, measure, search_result.left, search_result.right
    )
    return {
        (int(i), int(j)): float(v)
        for i, j, v in zip(search_result.left, search_result.right, values)
    }


def run(
    scale: float = 0.5,
    seed: int = 0,
    datasets=None,
    thresholds=COSINE_THRESHOLDS,
    measure: str = "cosine",
    error_bound: float = 0.05,
) -> ExperimentResult:
    """Measure the error profile of LSH Approx vs LSH+BayesLSH."""
    if datasets is None:
        datasets = TEXT_DATASETS + GRAPH_DATASETS
    result = ExperimentResult(
        experiment_id="table4",
        title="Percentage of similarity estimates with error > 0.05",
        parameters={
            "scale": scale,
            "seed": seed,
            "measure": measure,
            "error_bound": error_bound,
            "thresholds": list(thresholds),
        },
    )
    for pipeline in _PIPELINES:
        rows = []
        for dataset_name in datasets:
            dataset = load_experiment_dataset(dataset_name, scale=scale, seed=seed)
            row = [dataset_name]
            for threshold in thresholds:
                engine = make_pipeline(
                    pipeline,
                    dataset,
                    measure=measure,
                    threshold=threshold,
                    seed=seed,
                    **PAPER_BAYESLSH,
                )
                search_result = engine.run(dataset)
                exact_map = _exact_map_for_result(dataset, measure, search_result)
                stats = error_statistics(
                    search_result, exact_similarities=exact_map, error_bound=error_bound
                )
                row.append(round(stats.percent_above, 2))
            rows.append(row)
        result.add_table(
            pipeline,
            headers=["dataset"] + [f"t={threshold}" for threshold in thresholds],
            rows=rows,
            caption=f"Table 4: % estimates with error > {error_bound} ({pipeline})",
        )
    result.notes.append(
        "expected shape: LSH Approx errors shrink as the threshold rises, BayesLSH errors "
        "stay roughly constant and bounded by gamma"
    )
    return result


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    print(run(scale=0.3, datasets=["rcv1"]).render())
