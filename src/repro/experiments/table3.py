"""Table 3: recall of AP+BayesLSH and AP+BayesLSH-Lite across datasets and thresholds.

The paper reports recall (percentage of true pairs retrieved) for the two
AllPairs-fed BayesLSH variants on every weighted-cosine dataset and every
threshold from 0.5 to 0.9, showing that recall stays at roughly 97% or above
for the paper's ``epsilon = 0.03``.
"""

from __future__ import annotations

from repro.evaluation.ground_truth import exact_all_pairs
from repro.evaluation.metrics import recall as recall_metric
from repro.experiments.common import (
    COSINE_THRESHOLDS,
    ExperimentResult,
    GRAPH_DATASETS,
    PAPER_BAYESLSH,
    TEXT_DATASETS,
    load_experiment_dataset,
)
from repro.search.pipelines import make_pipeline

__all__ = ["run"]

_PIPELINES = ("ap_bayeslsh", "ap_bayeslsh_lite")


def run(
    scale: float = 0.5,
    seed: int = 0,
    datasets=None,
    thresholds=COSINE_THRESHOLDS,
    measure: str = "cosine",
    epsilon: float = 0.03,
) -> ExperimentResult:
    """Measure recall of the AllPairs + BayesLSH variants."""
    if datasets is None:
        datasets = TEXT_DATASETS + GRAPH_DATASETS
    result = ExperimentResult(
        experiment_id="table3",
        title="Recall of AllPairs+BayesLSH and AllPairs+BayesLSH-Lite",
        parameters={
            "scale": scale,
            "seed": seed,
            "measure": measure,
            "epsilon": epsilon,
            "thresholds": list(thresholds),
        },
    )
    for pipeline in _PIPELINES:
        rows = []
        for dataset_name in datasets:
            dataset = load_experiment_dataset(dataset_name, scale=scale, seed=seed)
            row = [dataset_name]
            for threshold in thresholds:
                truth = exact_all_pairs(dataset, threshold, measure)
                engine = make_pipeline(
                    pipeline,
                    dataset,
                    measure=measure,
                    threshold=threshold,
                    seed=seed,
                    epsilon=epsilon,
                    **PAPER_BAYESLSH,
                )
                search_result = engine.run(dataset)
                row.append(round(100.0 * recall_metric(search_result, truth), 2))
            rows.append(row)
        result.add_table(
            pipeline,
            headers=["dataset"] + [f"t={threshold}" for threshold in thresholds],
            rows=rows,
            caption=f"Table 3: recall (%) of {pipeline}",
        )
    result.notes.append(
        "the paper's guarantee is a false-negative rate below epsilon per candidate pair; "
        "recalls should therefore sit near or above 100 * (1 - epsilon) = 97"
    )
    return result


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    print(run(scale=0.3, datasets=["rcv1"]).render())
