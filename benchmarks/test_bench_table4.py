"""Benchmark for Table 4: error profile of LSH Approx vs LSH + BayesLSH."""

import pytest

from repro.evaluation.metrics import error_statistics
from repro.experiments.common import PAPER_BAYESLSH
from repro.search.pipelines import make_pipeline
from repro.similarity.measures import get_measure
from repro.verification.base import exact_similarities_for_pairs


def _exact_map(dataset, result):
    measure = get_measure("cosine")
    prepared = measure.prepare(dataset.collection)
    values = exact_similarities_for_pairs(prepared, measure, result.left, result.right)
    return {(int(i), int(j)): float(v) for i, j, v in zip(result.left, result.right, values)}


@pytest.mark.parametrize("pipeline", ["lsh_approx", "lsh_bayeslsh"])
def test_bench_table4_error_rates(benchmark, rcv1_dataset, pipeline):
    threshold = 0.6

    def run():
        engine = make_pipeline(
            pipeline, rcv1_dataset, measure="cosine", threshold=threshold, seed=1, **PAPER_BAYESLSH
        )
        return engine.run(rcv1_dataset)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    stats = error_statistics(result, exact_similarities=_exact_map(rcv1_dataset, result))
    # neither estimator should be wildly off at this scale
    assert stats.mean_error < 0.06
    assert stats.fraction_above <= 0.2
