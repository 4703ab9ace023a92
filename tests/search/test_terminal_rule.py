"""Honest output: which values are exact, and who may touch the raw vectors.

``on_budget="exact"`` (the default) scores budget-exhausted pairs through the
one batched kernel and says so — ``exact_mask``, ``n_exact``,
``QueryHits.exact``; ``on_budget="estimate"`` and ``rank_by="estimate"``
never call an exact kernel at all, which is checked by poisoning every one of
them (forked pool workers inherit the poison).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.verification.base as verification_base
import repro.verification.bayes as verification_bayes
from repro.core.bayeslsh import VerificationOutput
from repro.search.pipelines import make_pipeline
from repro.search.query import QueryIndex
from repro.serving.segments import SegmentedCollection


def _corpus(seed: int = 41, n: int = 120, features: int = 60) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = rng.random((n, features)) * (rng.random((n, features)) < 0.25)
    dense[: n // 3] = dense[n // 3 : 2 * (n // 3)]
    dense[: n // 3][rng.random((n // 3, features)) < 0.08] = 0.0
    return dense


@pytest.fixture
def poisoned(monkeypatch):
    """Every way of scoring a pair exactly raises."""

    def poison(*args, **kwargs):
        raise AssertionError("an exact similarity was computed")

    for name in ("exact_similarities_for_pairs", "cross_similarities_for_pairs"):
        monkeypatch.setattr(verification_base, name, poison)
    monkeypatch.setattr(verification_bayes, "exact_similarities_for_pairs", poison)
    monkeypatch.setattr(SegmentedCollection, "cross_similarities", poison)


def test_hybrid_pipeline_reports_what_is_exact():
    corpus = _corpus()
    hybrid = make_pipeline("ap_bayeslsh", corpus, measure="cosine", threshold=0.5, seed=3).run(corpus)
    meta = hybrid.metadata
    assert hybrid.exact_similarities is False, "mixed output is not 'all exact'"
    assert 0 < meta["n_exact"] == int(hybrid.exact_mask.sum()) <= meta["exact_computations"]
    assert meta["n_unconcentrated"] == 0

    published = make_pipeline(
        "ap_bayeslsh", corpus, measure="cosine", threshold=0.5, seed=3, on_budget="estimate"
    ).run(corpus)
    assert published.metadata["n_exact"] == published.metadata["exact_computations"] == 0
    assert published.metadata["n_unconcentrated"] > 0, "a budget-exhausted estimate is labelled"
    assert not published.exact_mask.any()


@pytest.mark.parametrize("name", ["ap_bayeslsh", "ap_bayeslsh_lite", "lsh_bayeslsh"])
def test_a_finished_engine_is_freed_without_the_cycle_collector(name):
    """No reference cycle through the verifier: a join's hash stores, projection
    matrix and prepared views go when the engine does (the benchmark's peak RSS
    rose 50% while one existed)."""
    corpus = _corpus()
    gc.disable()
    try:
        engine = make_pipeline(name, corpus, measure="cosine", threshold=0.5, seed=3)
        engine.run(corpus)
        verifier, family = weakref.ref(engine.verifier), weakref.ref(engine.verifier.family)
        del engine
        assert verifier() is None and family() is None
    finally:
        gc.enable()


def test_merge_keeps_the_mask_and_the_unconcentrated_count():
    def block(left, mask, unconcentrated):
        return VerificationOutput(
            left=np.array(left),
            right=np.array(left) + 1,
            estimates=np.linspace(0.6, 0.9, len(left)),
            n_candidates=len(left),
            n_pruned=0,
            exact_computations=int(np.sum(mask)),
            exact_mask=np.array(mask, dtype=bool),
            n_unconcentrated=unconcentrated,
        )

    merged = VerificationOutput.merge([block([0, 2], [True, False], 1), block([4], [True], 2)])
    assert merged.exact_mask.tolist() == [True, False, True]
    assert merged.n_unconcentrated == 3 and merged.exact_computations == 2
    assert VerificationOutput.merge([]).exact_mask.shape == (0,)


def test_algorithm_1_join_never_scores_exactly(poisoned):
    corpus = _corpus()
    result = make_pipeline(
        "ap_bayeslsh", corpus, measure="cosine", threshold=0.5, seed=3, on_budget="estimate"
    ).run(corpus, block_size=500, n_workers=2)
    assert len(result) > 0
    with pytest.raises(AssertionError, match="exact similarity"):  # the poison works
        make_pipeline("ap_bayeslsh", corpus, measure="cosine", threshold=0.5, seed=3).run(corpus)


@pytest.mark.parametrize("n_workers", [None, 2])
def test_estimate_ranking_never_touches_raw_vectors(poisoned, n_workers):
    corpus = _corpus()
    index = QueryIndex(corpus[:90], measure="cosine", threshold=0.6, seed=5)
    index.insert(corpus[90:])
    ranked = index.top_k_many(corpus[:12], k=5, rank_by="estimate", n_workers=n_workers)
    assert sum(map(len, ranked)) > 0
    assert not any(hits.n_exact for hits in ranked)
    # an index built for Algorithm 1 answers threshold queries the same way
    published = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=5, on_budget="estimate")
    assert sum(map(len, published.query_many(corpus[:12], n_workers=n_workers))) > 0
    with pytest.raises(AssertionError, match="exact similarity"):
        index.query_many(corpus[:12], n_workers=1)


def test_query_flags_exact_values_and_they_are_exact():
    corpus = _corpus()
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=5)
    answers = index.query_many(corpus[:20])
    pairs = [
        (q, pair, exact) for q, hits in enumerate(answers) for pair, exact in zip(hits, hits.exact)
    ]
    assert all(len(hits.exact) == len(hits) for hits in answers)
    assert any(exact for *_, exact in pairs) and not all(exact for *_, exact in pairs)
    unit = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
    for q, pair, exact in pairs:
        if exact:
            assert pair.similarity == pytest.approx(float(unit[q] @ unit[pair.j]), abs=1e-12)
            assert pair.similarity > 0.6
