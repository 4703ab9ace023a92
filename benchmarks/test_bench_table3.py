"""Benchmark for Table 3: recall of the AllPairs + BayesLSH variants."""

import pytest

from repro.evaluation.ground_truth import exact_all_pairs
from repro.evaluation.metrics import recall
from repro.experiments.common import PAPER_BAYESLSH
from repro.search.pipelines import make_pipeline


@pytest.mark.parametrize("pipeline", ["ap_bayeslsh", "ap_bayeslsh_lite"])
def test_bench_table3_recall(benchmark, rcv1_dataset, pipeline):
    threshold = 0.7
    truth = exact_all_pairs(rcv1_dataset, threshold, "cosine")

    def run():
        engine = make_pipeline(
            pipeline, rcv1_dataset, measure="cosine", threshold=threshold, seed=1, **PAPER_BAYESLSH
        )
        return engine.run(rcv1_dataset)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    # the paper reports recalls of ~97% and above for epsilon = 0.03
    assert recall(result, truth) >= 0.90
