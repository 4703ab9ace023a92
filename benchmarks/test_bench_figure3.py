"""Benchmark for Figure 3: timing of every pipeline across datasets and thresholds.

Each benchmark case is one (dataset family, pipeline) combination at a
representative threshold; the full sweep (all thresholds, all datasets) is
produced by ``bayeslsh-experiments figure3``.
"""

import pytest

from repro.experiments.common import PAPER_BAYESLSH
from repro.search.pipelines import make_pipeline

_COSINE_PIPELINES = [
    "allpairs",
    "ap_bayeslsh",
    "ap_bayeslsh_lite",
    "lsh",
    "lsh_approx",
    "lsh_bayeslsh",
    "lsh_bayeslsh_lite",
]
_BINARY_PIPELINES = ["lsh", "lsh_approx", "lsh_bayeslsh", "lsh_bayeslsh_lite", "ppjoin"]


@pytest.mark.parametrize("pipeline", _COSINE_PIPELINES)
def test_bench_figure3_text_cosine(benchmark, rcv1_dataset, pipeline):
    """Weighted-cosine panel on the RCV1 stand-in at t = 0.7."""
    def run():
        engine = make_pipeline(
            pipeline, rcv1_dataset, measure="cosine", threshold=0.7, seed=1, **PAPER_BAYESLSH
        )
        return engine.run(rcv1_dataset)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.n_candidates >= len(result)


@pytest.mark.parametrize("pipeline", _COSINE_PIPELINES)
def test_bench_figure3_graph_cosine(benchmark, wikilinks_dataset, pipeline):
    """Weighted-cosine panel on the WikiLinks stand-in at t = 0.7."""
    def run():
        engine = make_pipeline(
            pipeline, wikilinks_dataset, measure="cosine", threshold=0.7, seed=1, **PAPER_BAYESLSH
        )
        return engine.run(wikilinks_dataset)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.n_candidates >= len(result)


@pytest.mark.parametrize("pipeline", _BINARY_PIPELINES)
def test_bench_figure3_binary_jaccard(benchmark, binary_wikiwords_dataset, pipeline):
    """Binary-Jaccard panel on the WikiWords500K stand-in at t = 0.5."""
    def run():
        engine = make_pipeline(
            pipeline,
            binary_wikiwords_dataset,
            measure="jaccard",
            threshold=0.5,
            seed=1,
            **PAPER_BAYESLSH,
        )
        return engine.run(binary_wikiwords_dataset)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.n_candidates >= len(result)


@pytest.mark.parametrize("pipeline", ["allpairs", "ap_bayeslsh_lite", "lsh_bayeslsh", "ppjoin"])
def test_bench_figure3_binary_cosine(benchmark, binary_wikiwords_dataset, pipeline):
    """Binary-cosine panel on the WikiWords500K stand-in at t = 0.7."""
    def run():
        engine = make_pipeline(
            pipeline,
            binary_wikiwords_dataset,
            measure="binary_cosine",
            threshold=0.7,
            seed=1,
            **PAPER_BAYESLSH,
        )
        return engine.run(binary_wikiwords_dataset)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.n_candidates >= len(result)
