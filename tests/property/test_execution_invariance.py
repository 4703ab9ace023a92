"""Execution invariance: streamed/sharded runs are bit-identical to serial.

The determinism contract of the streamed executor
(:mod:`repro.search.executor`): for every pipeline, the output pairs, the
similarity estimates, every counter (``n_candidates`` / ``n_pruned`` /
``hash_comparisons`` / ``exact_computations``), which values are exact, the
per-round prune trace and the candidate metadata must be *bit-identical* for
any ``block_size`` and any ``n_workers`` — blocking and sharding only regroup
per-pair work whose decisions depend on nothing but the pair itself.  The
``*_bayeslsh`` pipelines run their default (the hybrid terminal rule) and,
as extra cases, Algorithm 1 as published.
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import synthetic_text_corpus
from repro.search.executor import DEFAULT_BLOCK_SIZE
from repro.search.pipelines import PIPELINES, make_pipeline
from repro.similarity.transforms import tfidf_weighting

#: block sizes required by the contract: degenerate, tiny-odd, default, "all
#: pairs in one block"
BLOCK_SIZES = [1, 7, DEFAULT_BLOCK_SIZE, 10**9]
WORKER_COUNTS = [1, 2, 4]

#: measure used to exercise each pipeline (ppjoin needs a binary measure)
_MEASURE = {name: ("jaccard" if name == "ppjoin" else "cosine") for name in PIPELINES}
#: also exercise the Jaccard prior-fitting path of the Bayes pipelines
_EXTRA_JACCARD = ["lsh_bayeslsh", "lsh_bayeslsh_lite"]

_CASES = [(name, _MEASURE[name]) for name in sorted(PIPELINES)] + [
    (name, "jaccard") for name in _EXTRA_JACCARD
]
#: pseudo-pipelines: the name before the colon, run with ``on_budget="estimate"``
_CASES += [("ap_bayeslsh:algorithm1", "cosine"), ("lsh_bayeslsh:algorithm1", "jaccard")]


def _engine(name: str, measure: str, collection):
    name, _, algorithm1 = name.partition(":")
    arguments = {"on_budget": "estimate"} if algorithm1 else {}
    return make_pipeline(name, collection, measure=measure, threshold=0.5, seed=7, **arguments)


@pytest.fixture(scope="module")
def invariance_corpus():
    corpus = synthetic_text_corpus(
        n_documents=100,
        vocabulary_size=350,
        average_length=24,
        duplicate_fraction=0.4,
        cluster_size=3,
        mutation_rate=0.1,
        seed=23,
    )
    return {
        "cosine": tfidf_weighting(corpus.collection),
        "jaccard": corpus.collection.binarized(),
    }


@pytest.fixture(scope="module")
def serial_results(invariance_corpus):
    results = {}
    for name, measure in _CASES:
        collection = invariance_corpus[measure]
        results[(name, measure)] = _engine(name, measure, collection).run(collection)
    return results


def test_the_cases_cover_every_terminal_rule(serial_results):
    """Guard: exact, estimated and unconcentrated values all occur in the matrix."""
    hybrid = serial_results[("ap_bayeslsh", "cosine")]
    assert 0 < hybrid.metadata["n_exact"] == hybrid.metadata["exact_computations"] - (
        hybrid.n_candidates - hybrid.n_pruned - len(hybrid)
    )
    assert not hybrid.exact_similarities and hybrid.metadata["n_unconcentrated"] == 0
    published = serial_results[("ap_bayeslsh:algorithm1", "cosine")]
    assert published.metadata["n_exact"] == published.metadata["exact_computations"] == 0
    assert 0 < published.metadata["n_unconcentrated"] < len(published)
    lite = serial_results[("ap_bayeslsh_lite", "cosine")]
    assert lite.exact_similarities and lite.metadata["n_exact"] == len(lite) > 0


def _fingerprint(result):
    """Everything the contract pins, in comparable form."""
    return {
        "left": result.left.tolist(),
        "right": result.right.tolist(),
        "similarities": result.similarities.tolist(),
        "exact_mask": result.exact_mask.tolist(),
        "n_exact": result.metadata["n_exact"],
        "n_unconcentrated": result.metadata["n_unconcentrated"],
        "n_candidates": result.n_candidates,
        "n_pruned": result.n_pruned,
        "hash_comparisons": result.metadata["hash_comparisons"],
        "exact_computations": result.metadata["exact_computations"],
        "prune_trace": result.metadata["prune_trace"],
        "candidate_metadata": result.metadata["candidate_metadata"],
        "method": result.method,
        "measure": result.measure,
    }


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("name, measure", _CASES)
def test_blocked_execution_is_bit_identical(
    name, measure, block_size, invariance_corpus, serial_results
):
    collection = invariance_corpus[measure]
    streamed = _engine(name, measure, collection).run(collection, block_size=block_size)
    assert _fingerprint(streamed) == _fingerprint(serial_results[(name, measure)])
    assert streamed.metadata["execution"]["block_size"] == block_size


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
@pytest.mark.parametrize("name, measure", _CASES)
def test_sharded_execution_is_bit_identical(
    name, measure, n_workers, invariance_corpus, serial_results
):
    collection = invariance_corpus[measure]
    sharded = _engine(name, measure, collection).run(
        collection, block_size=64, n_workers=n_workers
    )
    assert _fingerprint(sharded) == _fingerprint(serial_results[(name, measure)])
    assert sharded.metadata["execution"]["n_workers"] == n_workers


def test_all_pairs_similarity_forwards_execution_knobs(invariance_corpus):
    from repro.search.engine import all_pairs_similarity

    collection = invariance_corpus["cosine"]
    serial = all_pairs_similarity(collection, threshold=0.5, seed=7)
    streamed = all_pairs_similarity(
        collection, threshold=0.5, seed=7, block_size=32, n_workers=2
    )
    assert _fingerprint(streamed) == _fingerprint(serial)
