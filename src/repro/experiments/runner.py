"""Command-line runner for the reproduction experiments.

Examples
--------
.. code-block:: console

   # one experiment at the default scale
   bayeslsh-experiments figure4

   # everything, smaller and faster
   bayeslsh-experiments all --quick

   # a specific figure at a specific scale, written to a file
   bayeslsh-experiments figure3 --scale 0.4 --output figure3.txt

   # not a paper experiment: what a parameter set achieves against what it
   # promises, per terminal rule (see repro.experiments.operating)
   bayeslsh-experiments operating --measure cosine --threshold 0.5
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENT_IDS, operating
# Imported for dispatch: run_experiment resolves experiment modules through
# sys.modules, so every module must be imported here even though no name is
# referenced directly.
from repro.experiments import (
    figure1,  # noqa: F401
    figure2,  # noqa: F401
    figure3,  # noqa: F401
    figure4,  # noqa: F401
    figure5,  # noqa: F401
    table1,  # noqa: F401
    table2,  # noqa: F401
    table3,  # noqa: F401
    table4,  # noqa: F401
    table5,  # noqa: F401
)
from repro.experiments.common import ExperimentResult

__all__ = ["main", "run_experiment"]

_QUICK_DATASETS = ("rcv1", "wikilinks")
_QUICK_THRESHOLDS = (0.6, 0.8)


def run_experiment(experiment_id: str, scale: float = 0.5, seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id and return its result."""
    if experiment_id not in EXPERIMENT_IDS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENT_IDS)}"
        )
    module = sys.modules[f"repro.experiments.{experiment_id}"]
    if experiment_id in ("figure1", "figure5"):
        return module.run()
    if experiment_id in ("figure2", "table5"):
        return module.run(scale=scale if not quick else min(scale, 0.3), seed=seed)
    if experiment_id == "figure4":
        return module.run(scale=scale if not quick else min(scale, 0.3), seed=seed)
    if experiment_id == "table1":
        return module.run(scale=scale, seed=seed)
    if experiment_id in ("figure3", "table2"):
        kwargs = {"scale": scale, "seed": seed}
        if quick:
            kwargs.update(
                scale=min(scale, 0.3),
                groups=["weighted_cosine"],
                datasets=list(_QUICK_DATASETS),
                thresholds=list(_QUICK_THRESHOLDS),
            )
        return module.run(**kwargs)
    if experiment_id in ("table3", "table4"):
        kwargs = {"scale": scale, "seed": seed}
        if quick:
            kwargs.update(
                scale=min(scale, 0.3),
                datasets=list(_QUICK_DATASETS),
                thresholds=list(_QUICK_THRESHOLDS),
            )
        return module.run(**kwargs)
    raise ValueError(f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENT_IDS)}")


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``bayeslsh-experiments`` console script."""
    parser = argparse.ArgumentParser(
        prog="bayeslsh-experiments",
        description="Regenerate the tables and figures of the BayesLSH paper (VLDB 2012).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENT_IDS)}), 'all', or 'operating'",
    )
    parser.add_argument("--scale", type=float, default=0.5, help="dataset scale factor (default 0.5)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--quick", action="store_true", help="reduced datasets/thresholds for a fast sanity run"
    )
    parser.add_argument("--output", type=str, default=None, help="write the report to this file")
    characteristic = parser.add_argument_group("'operating' only")
    characteristic.add_argument("--measure", default="cosine", help="cosine, jaccard or binary_cosine")
    characteristic.add_argument("--threshold", type=float, default=0.5)
    characteristic.add_argument("--epsilon", type=float, default=0.03)
    characteristic.add_argument("--delta", type=float, default=0.05)
    characteristic.add_argument("--gamma", type=float, default=0.03)
    characteristic.add_argument("--k", type=int, default=32, help="hashes per round")
    args = parser.parse_args(argv)

    requested = list(EXPERIMENT_IDS) if "all" in args.experiments else args.experiments
    unknown = [
        experiment for experiment in requested if experiment not in (*EXPERIMENT_IDS, "operating")
    ]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    blocks = []
    for experiment_id in requested:
        start = time.perf_counter()
        if experiment_id == "operating":
            result = operating.run(
                args.measure, args.threshold, args.epsilon, args.delta, args.gamma, args.k
            )
        else:
            result = run_experiment(
                experiment_id, scale=args.scale, seed=args.seed, quick=args.quick
            )
        elapsed = time.perf_counter() - start
        blocks.append(result.render() + f"\n\n(experiment wall-clock: {elapsed:.1f}s)")
    report = ("\n\n" + "=" * 78 + "\n\n").join(blocks)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
