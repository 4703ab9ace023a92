"""Figure 3: timing comparison of all pipelines across datasets and thresholds.

The paper's main evaluation figure has twelve panels: the six weighted
datasets under cosine similarity (thresholds 0.5-0.9), and the three largest
datasets under binary Jaccard (thresholds 0.3-0.7) and binary cosine
(0.5-0.9).  Every panel compares AllPairs, AP+BayesLSH, AP+BayesLSH-Lite,
LSH, LSH Approx, LSH+BayesLSH, LSH+BayesLSH-Lite and (for the binary panels)
PPJoin+.

This module reproduces those measurements on the synthetic stand-ins.  The
sweep machinery (:func:`run_sweep`) is shared with Tables 2-4, which are
different aggregations of the same measurements.

Reproduction caveat (also recorded in EXPERIMENTS.md): the paper's absolute
times come from single-threaded C/C++ on multi-million-vector corpora, where
hashing costs are amortised over enormous candidate sets.  At laptop scale in
pure Python the candidate sets are ~10^4-10^5 pairs, so the BayesLSH variants
pay proportionally more fixed overhead; the *pruning* behaviour (Figure 4)
and the *quality* behaviour (Tables 3-5) reproduce faithfully, while timing
ratios reproduce in shape (which generator wins on which dataset family) more
than in magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.ground_truth import exact_all_pairs
from repro.evaluation.metrics import recall as recall_metric
from repro.evaluation.timing import time_pipeline
from repro.experiments.common import (
    BINARY_DATASETS,
    COSINE_THRESHOLDS,
    ExperimentResult,
    GRAPH_DATASETS,
    JACCARD_THRESHOLDS,
    PAPER_BAYESLSH,
    TEXT_DATASETS,
    load_experiment_dataset,
)
from repro.search.pipelines import pipelines_for_measure

__all__ = ["run", "run_sweep", "SweepRecord", "PANEL_GROUPS"]

#: the three panel groups of Figure 3: (group name, datasets, measure, binary view?, thresholds)
PANEL_GROUPS: tuple[tuple[str, tuple[str, ...], str, bool, tuple[float, ...]], ...] = (
    ("weighted_cosine", TEXT_DATASETS + GRAPH_DATASETS, "cosine", False, COSINE_THRESHOLDS),
    ("binary_jaccard", BINARY_DATASETS, "jaccard", True, JACCARD_THRESHOLDS),
    ("binary_cosine", BINARY_DATASETS, "binary_cosine", True, COSINE_THRESHOLDS),
)


@dataclass
class SweepRecord:
    """One measurement of one pipeline on one dataset at one threshold."""

    group: str
    dataset: str
    measure: str
    pipeline: str
    threshold: float
    mean_time: float
    timed_out: bool
    n_pairs: int
    n_candidates: int
    recall: float | None


def run_sweep(
    group: str,
    datasets,
    measure: str,
    thresholds,
    binary: bool,
    pipelines=None,
    scale: float = 0.5,
    seed: int = 0,
    repeats: int = 1,
    timeout: float | None = 120.0,
    compute_recall: bool = True,
) -> list[SweepRecord]:
    """Time every (dataset, threshold, pipeline) combination of one panel group."""
    if pipelines is None:
        pipelines = pipelines_for_measure(measure)
    records: list[SweepRecord] = []
    for dataset_name in datasets:
        dataset = load_experiment_dataset(dataset_name, scale=scale, seed=seed, binary=binary)
        for threshold in thresholds:
            truth = (
                exact_all_pairs(dataset, threshold, measure) if compute_recall else None
            )
            for pipeline in pipelines:
                timed = time_pipeline(
                    pipeline,
                    dataset,
                    measure=measure,
                    threshold=threshold,
                    repeats=repeats,
                    timeout=timeout,
                    seed=seed,
                    **PAPER_BAYESLSH,
                )
                result = timed.result
                records.append(
                    SweepRecord(
                        group=group,
                        dataset=dataset_name,
                        measure=measure,
                        pipeline=pipeline,
                        threshold=float(threshold),
                        mean_time=timed.mean_time,
                        timed_out=timed.timed_out,
                        n_pairs=len(result) if result is not None else 0,
                        n_candidates=result.n_candidates if result is not None else 0,
                        recall=(
                            recall_metric(result, truth)
                            if (truth is not None and result is not None)
                            else None
                        ),
                    )
                )
    return records


def records_to_rows(records: list[SweepRecord]) -> list[list]:
    """Flatten sweep records into report rows."""
    rows = []
    for record in records:
        rows.append(
            [
                record.dataset,
                record.pipeline,
                record.threshold,
                round(record.mean_time, 4) if record.mean_time != float("inf") else float("inf"),
                "yes" if record.timed_out else "no",
                record.n_candidates,
                record.n_pairs,
                round(record.recall, 4) if record.recall is not None else None,
            ]
        )
    return rows


def run(
    scale: float = 0.5,
    seed: int = 0,
    repeats: int = 1,
    timeout: float | None = 120.0,
    groups=None,
    datasets=None,
    thresholds=None,
    pipelines=None,
) -> ExperimentResult:
    """Reproduce the Figure 3 timing panels.

    Parameters
    ----------
    scale, seed, repeats, timeout:
        Sweep controls; the paper uses 3 repeats and a 50-hour timeout, the
        defaults here use 1 repeat and a 2-minute per-combination timeout.
    groups:
        Subset of ``("weighted_cosine", "binary_jaccard", "binary_cosine")``;
        all three by default.
    datasets, thresholds, pipelines:
        Optional overrides applied to every selected group (used by the quick
        benchmarks and tests).
    """
    selected = groups if groups is not None else [name for name, *_ in PANEL_GROUPS]
    result = ExperimentResult(
        experiment_id="figure3",
        title="Timing comparison of all pipelines across datasets and thresholds",
        parameters={
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "timeout": timeout,
            "groups": list(selected),
        },
    )
    all_records: list[SweepRecord] = []
    for group_name, group_datasets, measure, binary, group_thresholds in PANEL_GROUPS:
        if group_name not in selected:
            continue
        sweep_records = run_sweep(
            group_name,
            datasets if datasets is not None else group_datasets,
            measure,
            thresholds if thresholds is not None else group_thresholds,
            binary,
            pipelines=pipelines,
            scale=scale,
            seed=seed,
            repeats=repeats,
            timeout=timeout,
        )
        all_records.extend(sweep_records)
        result.add_table(
            group_name,
            headers=[
                "dataset",
                "pipeline",
                "threshold",
                "time (s)",
                "timed out",
                "candidates",
                "pairs",
                "recall",
            ],
            rows=records_to_rows(sweep_records),
            caption=f"Figure 3 group: {group_name} ({measure})",
        )
    result.notes.append(
        "absolute seconds are not comparable with the paper's C/C++ cluster numbers; "
        "compare orderings per dataset family and the recall column instead"
    )
    # Stash the raw records so Table 2 can reuse them without re-running.
    result.parameters["n_records"] = len(all_records)
    result.records = all_records  # type: ignore[attr-defined]
    return result


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    print(run(scale=0.3, groups=["weighted_cosine"], datasets=["rcv1"]).render())
