#!/usr/bin/env python3
"""Print the per-workload stage budget of a traced run as a markdown table.

    python3 benchmarks/e2e/budget.py benchmarks/e2e/results/seed-trace.json

One row per workload: the mean time of one operation (a join, a round of
batches, a request from send to reply), the share of it each layer's own
code accounts for, and what no span covers.  The table in README.md is this
script's output on the committed traced run.
"""

from __future__ import annotations

import json
import sys

#: column -> the per-layer metrics (mean seconds per operation) it adds up
COLUMNS = {
    "hashing": ("hashing.self_s",),
    "candidates": ("candidates.generate_s", "candidates.probe_s", "candidates.postings_add_s"),
    "verification": ("verification.self_s",),
    "similarity": ("similarity.exact_s", "similarity.prepare_s"),
    "search.engine": ("search.engine.self_s", "search.engine.make_s"),
    "search.query": ("search.query.self_s",),
    "segments": ("serving.segments.count_cross_s",),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        document = json.load(handle)
    header = ["workload", "op ms", *COLUMNS, "unattributed", "trace overhead", "spans"]
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    for workload, entry in document["workloads"].items():
        layers = {name: item["value"] for name, item in entry["layers"].items()}
        op_s = layers["trace.op_s"] or 1.0
        cells = [workload, f"{op_s * 1000:.1f}"]
        cells += [f"{sum(layers[name] for name in names) / op_s:.0%}" for names in COLUMNS.values()]
        cells += [
            f"{layers['trace.unattributed_share']:.0%}",
            f"{layers['trace.overhead_share']:+.0%}",
            f"{layers['trace.spans']:.0f}",
        ]
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
