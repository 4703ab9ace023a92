"""Benchmark for Figure 2: sensitivity of BayesLSH's running time to gamma, delta, epsilon.

The paper's finding is that the running time is essentially flat in epsilon
and gamma but grows when delta is tightened.  The benchmark times the
LSH+BayesLSH pipeline at the extreme values of each parameter.
"""

import pytest

from repro.experiments.common import PAPER_BAYESLSH
from repro.search.pipelines import make_pipeline

_THRESHOLD = 0.7


def _run(dataset, **kwargs):
    engine = make_pipeline(
        "lsh_bayeslsh",
        dataset,
        measure="cosine",
        threshold=_THRESHOLD,
        seed=1,
        **PAPER_BAYESLSH,
        **kwargs,
    )
    return engine.run(dataset)


@pytest.mark.parametrize("delta", [0.01, 0.09])
def test_bench_figure2_vary_delta(benchmark, wikiwords_dataset, delta):
    result = benchmark.pedantic(
        lambda: _run(wikiwords_dataset, delta=delta, gamma=0.05, epsilon=0.05),
        rounds=2,
        iterations=1,
    )
    assert result.n_candidates > 0


@pytest.mark.parametrize("gamma", [0.01, 0.09])
def test_bench_figure2_vary_gamma(benchmark, wikiwords_dataset, gamma):
    result = benchmark.pedantic(
        lambda: _run(wikiwords_dataset, delta=0.05, gamma=gamma, epsilon=0.05),
        rounds=2,
        iterations=1,
    )
    assert result.n_candidates > 0


@pytest.mark.parametrize("epsilon", [0.01, 0.09])
def test_bench_figure2_vary_epsilon(benchmark, wikiwords_dataset, epsilon):
    result = benchmark.pedantic(
        lambda: _run(wikiwords_dataset, delta=0.05, gamma=0.05, epsilon=epsilon),
        rounds=2,
        iterations=1,
    )
    assert result.n_candidates > 0


def test_figure2_delta_dominates_hash_usage(wikiwords_dataset):
    """Shape check (not timed): tighter delta forces more hash comparisons."""
    tight = _run(wikiwords_dataset, delta=0.01, max_hashes=4096)
    loose = _run(wikiwords_dataset, delta=0.09, max_hashes=4096)
    assert tight.metadata["hash_comparisons"] > loose.metadata["hash_comparisons"]
