"""Figure 2: effect of varying gamma, delta, epsilon on BayesLSH's running time.

The paper fixes the WikiWords100K dataset and threshold 0.7 (cosine), uses
LSH candidate generation, and varies each BayesLSH parameter over
{0.01, 0.03, 0.05, 0.07, 0.09} while holding the other two at 0.05.  The
finding: epsilon and gamma barely move the running time, while tightening
delta (more accurate estimates) increases it substantially — because a
smaller delta forces *every* surviving pair to be compared on more hashes,
whereas gamma only affects pairs whose estimates are borderline.

LSH (exact verification) and LSH Approx reference times are reported
alongside, as in the original figure.
"""

from __future__ import annotations

from repro.evaluation.timing import time_pipeline
from repro.experiments.common import PAPER_BAYESLSH, ExperimentResult, load_experiment_dataset

__all__ = ["run", "PARAMETER_VALUES"]

PARAMETER_VALUES: tuple[float, ...] = (0.01, 0.03, 0.05, 0.07, 0.09)
_DEFAULT = 0.05


def run(
    dataset_name: str = "wikiwords100k",
    scale: float = 0.5,
    threshold: float = 0.7,
    measure: str = "cosine",
    seed: int = 0,
    repeats: int = 1,
    values=PARAMETER_VALUES,
) -> ExperimentResult:
    """Time LSH+BayesLSH while varying each quality parameter separately."""
    dataset = load_experiment_dataset(dataset_name, scale=scale, seed=seed)

    rows = []
    for parameter in ("gamma", "delta", "epsilon"):
        for value in values:
            settings = {"gamma": _DEFAULT, "delta": _DEFAULT, "epsilon": _DEFAULT}
            settings[parameter] = float(value)
            timed = time_pipeline(
                "lsh_bayeslsh",
                dataset,
                measure=measure,
                threshold=threshold,
                repeats=repeats,
                seed=seed,
                **settings,
                **PAPER_BAYESLSH,
            )
            rows.append([parameter, float(value), round(timed.mean_time, 4)])

    reference_rows = []
    for pipeline in ("lsh", "lsh_approx"):
        timed = time_pipeline(
            pipeline,
            dataset,
            measure=measure,
            threshold=threshold,
            repeats=repeats,
            seed=seed,
            **PAPER_BAYESLSH,
        )
        reference_rows.append([pipeline, round(timed.mean_time, 4)])

    result = ExperimentResult(
        experiment_id="figure2",
        title="Effect of varying gamma, delta, epsilon on LSH+BayesLSH running time",
        parameters={
            "dataset": dataset_name,
            "scale": scale,
            "threshold": threshold,
            "measure": measure,
            "repeats": repeats,
        },
    )
    result.add_table(
        "parameter_sweep",
        headers=["parameter varied", "value", "time (s)"],
        rows=rows,
        caption="Figure 2: one parameter varied at a time, the others fixed at 0.05",
    )
    result.add_table(
        "references",
        headers=["pipeline", "time (s)"],
        rows=reference_rows,
        caption="Reference lines: LSH (exact) and LSH Approx",
    )
    result.notes.append(
        "expected shape: times are flat in epsilon and gamma and grow as delta shrinks, "
        "because delta controls the hash budget of every emitted pair"
    )
    return result


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    print(run(scale=0.3).render())
