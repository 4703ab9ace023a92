"""Table 5: output quality while varying gamma, delta and epsilon.

The companion of Figure 2: on the WikiWords100K stand-in at threshold 0.7
with LSH candidate generation, each parameter is varied over
{0.01, 0.03, 0.05, 0.07, 0.09} (the other two held at 0.05) and the relevant
quality metric is reported:

* varying ``gamma``   -> fraction of estimates with error > 0.05 (should stay below gamma);
* varying ``delta``   -> mean absolute estimation error (should shrink with delta);
* varying ``epsilon`` -> recall (false-negative rate should stay below epsilon).
"""

from __future__ import annotations

from repro.evaluation.ground_truth import exact_all_pairs
from repro.evaluation.metrics import error_statistics, recall as recall_metric
from repro.experiments.common import PAPER_BAYESLSH, ExperimentResult, load_experiment_dataset
from repro.experiments.table4 import _exact_map_for_result
from repro.search.pipelines import make_pipeline

__all__ = ["run", "PARAMETER_VALUES"]

PARAMETER_VALUES: tuple[float, ...] = (0.01, 0.03, 0.05, 0.07, 0.09)
_DEFAULT = 0.05


def run(
    dataset_name: str = "wikiwords100k",
    scale: float = 0.5,
    threshold: float = 0.7,
    measure: str = "cosine",
    seed: int = 0,
    values=PARAMETER_VALUES,
    error_bound: float = 0.05,
) -> ExperimentResult:
    """Vary gamma / delta / epsilon one at a time and report the quality metrics."""
    dataset = load_experiment_dataset(dataset_name, scale=scale, seed=seed)
    truth = exact_all_pairs(dataset, threshold, measure)

    rows = []
    for value in values:
        value = float(value)
        row = [value]

        # gamma -> fraction of errors above the bound
        engine = make_pipeline(
            "lsh_bayeslsh",
            dataset,
            measure=measure,
            threshold=threshold,
            seed=seed,
            **PAPER_BAYESLSH,
            gamma=value,
            delta=_DEFAULT,
            epsilon=_DEFAULT,
        )
        search_result = engine.run(dataset)
        stats = error_statistics(
            search_result,
            exact_similarities=_exact_map_for_result(dataset, measure, search_result),
            error_bound=error_bound,
        )
        row.append(round(stats.fraction_above, 4))

        # delta -> mean error
        engine = make_pipeline(
            "lsh_bayeslsh",
            dataset,
            measure=measure,
            threshold=threshold,
            seed=seed,
            **PAPER_BAYESLSH,
            gamma=_DEFAULT,
            delta=value,
            epsilon=_DEFAULT,
        )
        search_result = engine.run(dataset)
        stats = error_statistics(
            search_result,
            exact_similarities=_exact_map_for_result(dataset, measure, search_result),
            error_bound=error_bound,
        )
        row.append(round(stats.mean_error, 4))

        # epsilon -> recall
        engine = make_pipeline(
            "lsh_bayeslsh",
            dataset,
            measure=measure,
            threshold=threshold,
            seed=seed,
            **PAPER_BAYESLSH,
            gamma=_DEFAULT,
            delta=_DEFAULT,
            epsilon=value,
        )
        search_result = engine.run(dataset)
        row.append(round(100.0 * recall_metric(search_result, truth), 2))

        rows.append(row)

    result = ExperimentResult(
        experiment_id="table5",
        title="Output quality while varying gamma, delta, epsilon one at a time",
        parameters={
            "dataset": dataset_name,
            "scale": scale,
            "threshold": threshold,
            "measure": measure,
            "seed": seed,
        },
    )
    result.add_table(
        "quality",
        headers=[
            "parameter value",
            "fraction errors > 0.05 (varying gamma)",
            "mean error (varying delta)",
            "recall % (varying epsilon)",
        ],
        rows=rows,
        caption="Table 5: the varied parameter's own quality metric, others fixed at 0.05",
    )
    result.notes.append(
        "expected shape: error fraction grows with gamma but stays below it, mean error "
        "shrinks with delta, recall falls as epsilon grows with false-negative rate below epsilon"
    )
    return result


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    print(run(scale=0.3).render())
