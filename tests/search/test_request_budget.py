"""What a served read may cost, as counts (no timing).

A one-row hybrid ``query`` on a warmed index used to make 7.6
``HashFamily.signatures`` calls (one per round, none of which extended
anything), project its row in eight 64-column slices and build 17
``scipy.sparse`` matrices, 12-13 of them before a candidate was scored (the
row was canonicalised three times).  The read path now hashes once, replays
the materialised rounds from one gather and canonicalises once; these bounds
fail at the parent of that change and hold for a 64-row batch too.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.hashing.base import HashFamily
from repro.hashing.simhash import SimHashFamily
from repro.search.query import QueryIndex
from repro.serving.segments import SegmentedCollection

from tests.faults.conftest import planted_collection


@pytest.fixture(scope="module")
def warmed_index() -> QueryIndex:
    """Three segments, every entry point already run once."""
    corpus = planted_collection(29, n=70)
    index = QueryIndex(corpus[:30], measure="cosine", threshold=0.6, seed=13)
    index.insert(corpus[30:55])
    index.insert(corpus[55:])
    warm = corpus[:6]
    index.query_many(warm)
    index.top_k_many(warm, k=5)
    index.top_k_many(warm, k=5, rank_by="estimate")
    return index


def _counts(index: QueryIndex, call, monkeypatch) -> dict:
    """Calls made while ``call`` runs ``QueryIndex._scored_candidates``."""
    counts = {"signatures": 0, "projections": 0, "matrices": 0, "exact_matrices": 0}
    scoring = []
    signatures = HashFamily.signatures
    project = SimHashFamily._project_bits
    build = sp.csr_matrix.__init__
    exact = SegmentedCollection.cross_similarities

    def counting_signatures(self, n_hashes):
        counts["signatures"] += 1
        return signatures(self, n_hashes)

    def counting_project(self, start, end):
        counts["projections"] += 1
        return project(self, start, end)

    def counting_build(self, *args, **kwargs):
        counts["exact_matrices" if scoring else "matrices"] += 1
        return build(self, *args, **kwargs)

    def marking_exact(self, *args, **kwargs):
        scoring.append(True)
        try:
            return exact(self, *args, **kwargs)
        finally:
            scoring.pop()

    scored = index._scored_candidates

    def counted(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(HashFamily, "signatures", counting_signatures)
            patch.setattr(SimHashFamily, "_project_bits", counting_project)
            patch.setattr(sp.csr_matrix, "__init__", counting_build)
            patch.setattr(SegmentedCollection, "cross_similarities", marking_exact)
            return scored(*args, **kwargs)

    monkeypatch.setattr(index, "_scored_candidates", counted)
    result = call()
    assert any(result), "the query found nothing: no round ran"
    return counts


@pytest.mark.parametrize("n_rows", [1, 64])
def test_a_hybrid_query_hashes_once_and_canonicalises_once(warmed_index, monkeypatch, n_rows):
    queries = np.tile(planted_collection(29, n=70)[:8], (8, 1))[:n_rows]
    counts = _counts(warmed_index, lambda: warmed_index.query_many(queries), monkeypatch)
    # one call hashes the batch (banding hashes and the first block), one
    # hands the rounds the store: none per round
    assert counts["signatures"] <= 2
    # the batch is one sparse x dense product, not one per 64 columns
    assert counts["projections"] <= 1
    # between entry and the scored candidates: the canonical batch, its
    # normalised view and the float32 copy the projection multiplies (12-13
    # before); the exact kernel's own matrices are counted apart
    assert counts["matrices"] <= 6
    assert counts["exact_matrices"] > 0, "no pair reached the exact kernel"


def test_estimate_ranking_extends_only_past_the_first_block(warmed_index, monkeypatch):
    """``rank_by="estimate"`` keeps its lazy 2,048 budget: its extra
    ``signatures`` calls are extensions, one per 256-hash block."""
    queries = planted_collection(29, n=70)[:1]
    counts = _counts(
        warmed_index,
        lambda: warmed_index.top_k_many(queries, k=5, rank_by="estimate"),
        monkeypatch,
    )
    # the two calls of a query, and at most one per block past the 512
    # hashes the batch is hashed to up front (the parent made one per round)
    assert counts["signatures"] <= 2 + (2048 - 512) // 256
    assert counts["exact_matrices"] == 0
