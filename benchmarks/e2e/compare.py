#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py results/seed-a results/seed-b

Each set is a directory of files written by ``run.py --out`` (or the files
themselves, comma-separated).  For every end-to-end metric BENCHMARK.json
gates, the two sets' medians and quartiles are printed with a verdict:

``same``        B's median is within the metric's bound of A's.
``worse``       B's median is worse than A's by more than the bound.
``better``      B's worse quartile is better than A's better quartile: the
                middle halves of the two sets do not overlap.
``unresolved``  the run-to-run spread of either set exceeds the bound, so a
                change of the bound's size could hide in it — unless every
                run of one set reads better than every run of the other,
                which decides it.

Two sets of runs of the same code are the A/A check: every row must read
``same``.  The exit code is non-zero on any ``worse`` row or when B failed a
larger share of its operations than A.  Numbers under ``detail`` are listed
after the gated rows with their medians only; they carry no bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from e2e.common import quartiles  # noqa: E402


def load_set(spec: str) -> list[dict]:
    paths = []
    for part in spec.split(","):
        path = Path(part)
        paths.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    if not paths:
        raise SystemExit(f"error: no run files in {spec}")
    return [json.loads(path.read_text()) for path in paths]


def values_of(runs: list[dict], workload: str, metric: str, section: str = "metrics") -> list[float]:
    found = []
    for run in runs:
        entry = run["workloads"].get(workload, {}).get(section, {}).get(metric)
        if isinstance(entry, dict):
            entry = entry.get("value")
        if isinstance(entry, (int, float)) and not isinstance(entry, bool):
            found.append(float(entry))
    return found


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The row's verdict; ``bound`` is a share of A's median."""
    sign = 1.0 if better == "higher" else -1.0
    good_a, good_b = [sign * v for v in a], [sign * v for v in b]  # higher is better
    q1_a, median_a, q3_a = quartiles(good_a)
    q1_b, median_b, q3_b = quartiles(good_b)
    scale = abs(median_a) or 1.0
    if max(q3_a - q1_a, q3_b - q1_b) / scale > bound:
        if min(good_b) > max(good_a):
            return "better"
        if max(good_b) < min(good_a):
            return "worse"
        return "unresolved"
    if median_b < median_a - bound * scale:
        return "worse"
    if q1_b > q3_a:
        return "better"
    return "same"


def failed_share(runs: list[dict], workload: str) -> float:
    attempted = sum(run["workloads"][workload]["attempted"] for run in runs if workload in run["workloads"])
    failed = sum(run["workloads"][workload]["failed"] for run in runs if workload in run["workloads"])
    return failed / attempted if attempted else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("set_a", help="directory (or comma-separated files) of the baseline runs")
    parser.add_argument("set_b", help="directory (or comma-separated files) of the runs compared to it")
    parser.add_argument(
        "--benchmark", type=Path, default=HERE.parent.parent / "BENCHMARK.json",
        help="where the gated metrics, their direction and bounds are declared",
    )
    args = parser.parse_args(argv)
    declared = json.loads(args.benchmark.read_text())
    runs_a, runs_b = load_set(args.set_a), load_set(args.set_b)

    bad = False
    row = "{:12s} {:14s} {:>11s} {:>11s} {:>11s} | {:>11s} {:>11s} {:>11s}  {:>6s}  {}"
    print(row.format("workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound", "verdict"))
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            a = values_of(runs_a, workload, metric["name"])
            b = values_of(runs_b, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            bad |= result == "worse"
            numbers = [f"{v:.5g}" for v in (*quartiles(a), *quartiles(b))]
            print(row.format(workload, metric["name"], *numbers, f"{metric['bound']:g}", result))
        share_a, share_b = failed_share(runs_a, workload), failed_share(runs_b, workload)
        if share_b > share_a:
            bad = True
            print(f"{workload:12s} failed share rose from {share_a:.4g} to {share_b:.4g}: worse")

    print("\ndetail (medians, no bound):")
    for workload in (w["name"] for w in declared["workloads"]):
        names = sorted(
            {
                name
                for run in runs_a + runs_b
                for name, value in run["workloads"].get(workload, {}).get("detail", {}).items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
        )
        for name in names:
            a = values_of(runs_a, workload, name, "detail")
            b = values_of(runs_b, workload, name, "detail")
            if a and b:
                print(f"{workload:12s} {name:28s} {quartiles(a)[1]:>12.5g} {quartiles(b)[1]:>12.5g}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
