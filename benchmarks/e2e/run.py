#!/usr/bin/env python3
"""The repo's end-to-end benchmark: seven workloads, checked outputs, named metrics.

    python3 benchmarks/e2e/run.py --seed 1 --out run.json          # all workloads
    python3 benchmarks/e2e/run.py --workload serve_read --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --trace --out traced.json

End-to-end metrics are taken with tracing off.  ``--trace`` (or ``--trace 1``)
runs the same workloads with the public entry points of every layer wrapped
(``trace.py``; nothing under ``src/`` is touched) and reports the per-layer
metrics instead.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check or leak audit makes
the exit code non-zero.  See README.md beside this file for every definition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

#: seconds measured per workload when --seconds is not given
DEFAULT_SECONDS = {"full": 10.0, "tiny": 0.4}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: all seven, in BENCHMARK.json's order)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed every input is generated from")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of each workload's timed phase (default 10, or 0.4 at --scale tiny)",
    )
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="'full' is the size BENCHMARK.json's bounds hold at; 'tiny' is the smoke test's",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): traced run reporting per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the full result (metrics, detail, parameters, phases, spans) to this file",
    )
    return parser


def _environment(seed: int, args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "seed": seed,
        "scale": args.scale,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _print_metrics(outcome, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{outcome.workload:12s} {name:40s} {value:.6g} {unit}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if (os.cpu_count() or 1) < 2:
        print("error: the load shape needs 2 cores (daemon child + 2 client threads)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(HERE.parent)]
    from e2e import layers, offline, serving
    from e2e.common import SETUP_REPEATS, WORKLOADS, Context, reap_children, reset_peak_rss
    from e2e.trace import Tracer, check_tree, pack_spans

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = DEFAULT_SECONDS[args.scale] if args.seconds is None else args.seconds

    tracer = Tracer() if args.trace else None
    ctx = Context(
        seed=args.seed, seconds=seconds, scale=args.scale, tracer=tracer,
        setup_repeats=1 if args.trace or args.scale == "tiny" else SETUP_REPEATS,
    )
    runners = {
        "index_batch": serving.run_index_batch,
        "serve_sat": serving.run_serve_sat,
        "serve_read": serving.run_serve_read,
        "serve_mixed": serving.run_serve_mixed,
    }
    document = {"environment": _environment(args.seed, args), "seconds": seconds, "workloads": {}}
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        for name in names:
            if tracer is not None:
                tracer.spans = []
            reset_peak_rss()
            started = time.perf_counter()
            outcome = runners[name](ctx) if name in runners else offline.run(name, ctx)
            entry = {
                "correct": outcome.correct,
                "problems": outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
                "detail": outcome.detail,
                "params": outcome.params,
                "phases": outcome.phases,
                "wall_s": time.perf_counter() - started,
            }
            if tracer is not None:
                for problem in check_tree(tracer.spans):
                    outcome.check(False, problem)
                entry["correct"], entry["problems"] = outcome.correct, outcome.problems
                entry["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in outcome.layers.items()}
                entry["survivors_by_round"] = layers.survivors_by_round(tracer.spans)
                entry["spans"] = pack_spans(tracer.spans)
            document["workloads"][name] = entry
            outcomes.append(outcome)
            _print_metrics(outcome, outcome.layers if tracer is not None else outcome.metrics)
            for key, value in outcome.detail.items():
                if isinstance(value, (int, float)):
                    print(f"{name:12s} detail:{key:33s} {value:.6g}")
            for problem in outcome.problems:
                print(f"{name:12s} FAILED CHECK: {problem}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        # On every path out: no process this run started is left behind.
        strays = reap_children()
        if strays:
            print(f"error: child processes {strays} were still running and were killed", file=sys.stderr)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        # Thousands of span rows stay one compact line; the rest is indented to read.
        layout = {"separators": (",", ":")} if tracer is not None else {"indent": 1}
        args.out.write_text(json.dumps(document, default=float, **layout) + "\n")

    # The last line: with one workload its metrics by name; with several, each
    # metric prefixed by its workload.
    merged = {}
    for outcome in outcomes:
        chosen = outcome.layers if tracer is not None else outcome.metrics
        for key, (value, unit) in chosen.items():
            merged[key if len(outcomes) == 1 else f"{outcome.workload}.{key}"] = {
                "value": value, "unit": unit,
            }
    correct = all(outcome.correct for outcome in outcomes) and not strays
    finite = all(math.isfinite(entry["value"]) for entry in merged.values())
    if not finite:
        print("error: a metric is not a finite number", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct and finite,
                "attempted": sum(outcome.attempted for outcome in outcomes),
                "failed": sum(outcome.failed for outcome in outcomes),
                "metrics": merged,
            }
        )
    )
    return 0 if correct and finite else 1


if __name__ == "__main__":
    raise SystemExit(main())
