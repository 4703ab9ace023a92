"""Property tests for the serving layer's bit-identity contracts.

Five contracts (see ``repro/search/query.py``):

* **batched == looped** — ``query_many`` / ``top_k_many`` on a batch equal
  the singular ``query`` / ``top_k`` called per row, bit for bit;
* **brute-force agreement** — under ``verification="exact"`` every returned
  pair carries the true exact similarity and lies above the threshold, the
  result is a subset of the brute-force answer set, and an indexed vector
  queried against its own index always retrieves itself;
* **update equivalence** — an index grown by ``insert`` answers exactly like
  an index built from scratch over the final collection, and ``delete``
  filters tombstoned rows immediately whether or not a postings merge has
  dropped them yet;
* **segmentation invariance** — query answers are independent of how the
  corpus is split across sealed segments: an index grown through any insert
  history is bit-identical to a monolithic scratch rebuild over
  ``index.as_collection()`` (the segmented store's kernels are row-local);
* **execution invariance** — ``query_many``/``top_k_many`` with
  ``n_workers > 1`` (probing, verification and ranking sharded across a
  forked shared-memory worker pool) equal the serial batch bit for bit, for
  every worker count, segment layout, ranking mode and tombstone state, and
  leave the index in the identical post-call state (store widths / RNG
  stream positions) as serial execution.
"""

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.similarity.vectors import VectorCollection

MEASURES = ["cosine", "jaccard", "binary_cosine"]


def _random_collection(seed: int, n: int = 50, features: int = 80) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = rng.random((n, features)) * (rng.random((n, features)) < 0.2)
    # Plant near-duplicate pairs so thresholded queries have true positives.
    half = n // 2
    planted = min(8, n - half)
    dense[:planted] = dense[half : half + planted]
    mask = rng.random((planted, features)) < 0.1
    dense[:planted][mask] = 0.0
    return dense


def _brute_force_matrix(queries: np.ndarray, corpus: np.ndarray, measure: str) -> np.ndarray:
    """Independent dense implementation of the three measures."""
    if measure == "cosine":
        def norm(matrix):
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)

        return norm(queries) @ norm(corpus).T
    binary_q = (queries > 0).astype(np.float64)
    binary_c = (corpus > 0).astype(np.float64)
    inner = binary_q @ binary_c.T
    if measure == "binary_cosine":
        denom = np.sqrt(np.outer(binary_q.sum(axis=1), binary_c.sum(axis=1)))
    else:  # jaccard
        denom = binary_q.sum(axis=1)[:, None] + binary_c.sum(axis=1)[None, :] - inner
    return np.divide(inner, denom, out=np.zeros_like(inner), where=denom > 0)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("verification", ["bayes", "exact"])
@pytest.mark.parametrize("seed", [0, 1])
def test_batched_queries_equal_looped_queries(measure, verification, seed):
    corpus = _random_collection(seed)
    index = QueryIndex(
        corpus, measure=measure, threshold=0.6, verification=verification, seed=seed
    )
    queries = _random_collection(seed + 100, n=9)[:, : corpus.shape[1]]
    queries[:4] = corpus[:4]  # mix indexed rows into the batch

    batched = index.query_many(queries, threshold=0.55)
    looped = [index.query(queries[i], threshold=0.55) for i in range(len(queries))]
    assert batched == looped

    batched_topk = index.top_k_many(queries, k=5, floor_threshold=0.2)
    looped_topk = [
        index.top_k(queries[i], k=5, floor_threshold=0.2) for i in range(len(queries))
    ]
    assert batched_topk == looped_topk


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_queries_agree_with_brute_force(measure, seed):
    corpus = _random_collection(seed)
    threshold = 0.55
    index = QueryIndex(
        corpus,
        measure=measure,
        threshold=threshold,
        verification="exact",
        false_negative_rate=0.01,
        seed=seed,
    )
    queries = corpus[:10]
    brute = _brute_force_matrix(queries, corpus, measure)

    for position, hits in enumerate(index.query_many(queries, threshold=threshold)):
        returned = {pair.j: pair.similarity for pair in hits}
        # Subset of the brute-force answer set, with the true similarities.
        for j, similarity in returned.items():
            assert similarity > threshold
            assert similarity == pytest.approx(brute[position, j], abs=1e-9)
        # An indexed vector always finds itself: it shares every band.
        if np.any(queries[position] != 0):
            assert position in returned
            assert returned[position] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("measure", MEASURES)
def test_top_k_matches_brute_force_ranking(measure):
    corpus = _random_collection(7)
    index = QueryIndex(corpus, measure=measure, threshold=0.6, verification="exact", seed=7)
    queries = corpus[:6]
    brute = _brute_force_matrix(queries, corpus, measure)
    for position, ranked in enumerate(index.top_k_many(queries, k=4, floor_threshold=0.3)):
        similarities = [pair.similarity for pair in ranked]
        assert similarities == sorted(similarities, reverse=True)
        assert all(s > 0.3 for s in similarities)
        for pair in ranked:
            assert pair.similarity == pytest.approx(brute[position, pair.j], abs=1e-9)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("verification", ["bayes", "exact"])
def test_incremental_insert_equals_scratch_build(measure, verification):
    corpus = _random_collection(11, n=60)
    queries = corpus[:8]
    scratch = QueryIndex(
        corpus, measure=measure, threshold=0.6, verification=verification, seed=3
    )
    grown = QueryIndex(
        corpus[:25], measure=measure, threshold=0.6, verification=verification, seed=3
    )
    first = grown.insert(corpus[25:45])
    second = grown.insert(corpus[45:])
    assert np.array_equal(first, np.arange(25, 45))
    assert np.array_equal(second, np.arange(45, 60))
    assert grown.n_indexed == scratch.n_indexed

    assert grown.query_many(queries, threshold=0.55) == scratch.query_many(
        queries, threshold=0.55
    )
    assert grown.top_k_many(queries, k=5) == scratch.top_k_many(queries, k=5)


@pytest.mark.parametrize("measure", MEASURES)
def test_delete_filters_immediately_and_merges_preserve_answers(measure):
    corpus = _random_collection(13, n=60)
    queries = corpus[:8]
    index = QueryIndex(
        corpus[:40], measure=measure, threshold=0.6, verification="exact", seed=5
    )
    victims = list(range(0, 12))
    assert index.delete(victims) == 12
    assert index.delete(victims) == 0  # tombstoning is idempotent
    assert index.n_deleted == 12

    results = index.query_many(queries, threshold=0.4)
    for hits in results:
        assert all(pair.j not in set(victims) for pair in hits)
    # An insert whose run merges with the corpus's drops the tombstoned
    # rows from the postings; answers equal an index that never merged.
    index.insert(corpus[40:])
    assert len(index._postings.runs) == 1
    reference = QueryIndex(
        corpus, measure=measure, threshold=0.6, verification="exact", seed=5
    )
    reference.delete(victims)
    assert reference.query_many(queries, threshold=0.4) == index.query_many(
        queries, threshold=0.4
    )


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("verification", ["bayes", "exact"])
def test_segmented_store_bit_identical_to_monolithic_rebuild(measure, verification):
    """Queries over a many-segment store equal a monolithic scratch rebuild.

    The index is grown through an uneven insert history (including a
    single-row segment) and interleaved deletes; the reference index is
    built in one shot over ``as_collection()`` with the same tombstones.
    """
    corpus = _random_collection(17, n=70)
    queries = corpus[:9]
    grown = QueryIndex(
        corpus[:20], measure=measure, threshold=0.6, verification=verification, seed=11
    )
    grown.insert(corpus[20:21])   # single-row segment
    grown.insert(corpus[21:50])
    grown.delete([3, 21, 40])
    grown.insert(corpus[50:])
    assert grown.n_segments == 4

    scratch = QueryIndex(
        grown.as_collection(),
        measure=measure,
        threshold=0.6,
        verification=verification,
        seed=11,
    )
    assert scratch.n_segments == 1
    scratch.delete([3, 21, 40])

    assert grown.query_many(queries, threshold=0.55) == scratch.query_many(
        queries, threshold=0.55
    )
    assert grown.top_k_many(queries, k=6) == scratch.top_k_many(queries, k=6)
    if verification == "bayes":
        assert grown.top_k_many(queries, k=6, rank_by="estimate") == scratch.top_k_many(
            queries, k=6, rank_by="estimate"
        )


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("on_budget", ["exact", "estimate"])
def test_estimate_top_k_batched_equals_looped_and_matches_query_estimates(measure, on_budget):
    corpus = _random_collection(19, n=60)
    index = QueryIndex(corpus, measure=measure, threshold=0.6, seed=2, on_budget=on_budget)
    index.insert(_random_collection(20, n=15))
    queries = _random_collection(21, n=7)[:, : corpus.shape[1]]
    queries[:3] = corpus[:3]

    batched = index.top_k_many(queries, k=5, floor_threshold=0.3, rank_by="estimate")
    looped = [
        index.top_k(queries[i], k=5, floor_threshold=0.3, rank_by="estimate")
        for i in range(len(queries))
    ]
    assert batched == looped
    assert not any(ranked.n_exact for ranked in batched)

    # The ranking values are exactly the posterior MAP estimates the
    # threshold path reports for the same (query, candidate) pairs — a pair
    # concentrates at the same look whatever the budget — and a pair the
    # threshold path scored at its budget instead carries the true similarity.
    by_pair = {
        (position, pair.j): (pair.similarity, exact)
        for position, hits in enumerate(index.query_many(queries, threshold=0.35))
        for pair, exact in zip(hits, hits.exact)
    }
    assert any(exact for _, exact in by_pair.values()) == (on_budget == "exact")
    truth = _brute_force_matrix(queries, index.as_collection().matrix.toarray(), measure)
    for position, ranked in enumerate(batched):
        similarities = [pair.similarity for pair in ranked]
        assert similarities == sorted(similarities, reverse=True)
        for pair in ranked:
            reported = by_pair.get((position, pair.j))
            if reported is None:
                continue
            if reported[1]:
                assert reported[0] == pytest.approx(truth[position, pair.j], abs=1e-12)
            else:
                assert pair.similarity == reported[0]


def test_estimate_top_k_requires_bayes_verification():
    corpus = _random_collection(23, n=30)
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, verification="exact")
    with pytest.raises(ValueError, match="estimate"):
        index.top_k_many(corpus[:2], k=3, rank_by="estimate")
    with pytest.raises(ValueError, match="rank_by"):
        index.top_k_many(corpus[:2], k=3, rank_by="approximate")


def _layout_index(layout: str, measure: str, verification: str) -> QueryIndex:
    """Build an index in one of the parallel-serving test layouts.

    ``"fresh"`` is a single-segment build; ``"grown"`` accumulates four
    segments through an uneven insert history (including a single-row
    segment) and tombstones rows in three different segments.
    """
    corpus = _random_collection(29, n=70)
    if layout == "fresh":
        return QueryIndex(
            corpus, measure=measure, threshold=0.6, verification=verification, seed=13
        )
    index = QueryIndex(
        corpus[:30], measure=measure, threshold=0.6, verification=verification, seed=13
    )
    index.insert(corpus[30:31])  # single-row segment
    index.insert(corpus[31:55])
    index.insert(corpus[55:])
    index.delete([2, 30, 60])    # tombstones across three segments
    return index


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("layout", ["fresh", "grown"])
@pytest.mark.parametrize("rank_by", ["exact", "estimate"])
def test_parallel_serving_bit_identical_to_serial(measure, layout, rank_by):
    """n_workers ∈ {1, 2, 4} answers equal the serial batch bit for bit.

    Covers both ranking modes, threshold queries (the hybrid terminal rule),
    multi-segment layouts and post-delete (tombstoned) indices; also checks the worker pool leaves the
    index in the identical post-call hash state (same per-segment store
    widths as serial execution), so later queries keep agreeing.
    """
    index = _layout_index(layout, measure, "bayes")
    queries = _random_collection(31, n=9)[:, :80]
    queries[:3] = _random_collection(29, n=70)[:3]  # indexed rows in the batch

    serial_topk = index.top_k_many(queries, k=5, floor_threshold=0.2, rank_by=rank_by)
    serial_query = index.query_many(queries, threshold=0.55)
    # the hybrid default: the pool's exact shards score the exhausted pairs
    assert any(hits.n_exact for hits in serial_query)
    widths = [segment.store.n_hashes for segment in index._segments.segments]
    for n_workers in (1, 2, 4):
        assert (
            index.top_k_many(
                queries, k=5, floor_threshold=0.2, rank_by=rank_by, n_workers=n_workers
            )
            == serial_topk
        )
        assert index.query_many(queries, threshold=0.55, n_workers=n_workers) == serial_query
        assert [s.store.n_hashes for s in index._segments.segments] == widths


@pytest.mark.parametrize("layout", ["fresh", "grown"])
def test_parallel_serving_exact_verification(layout):
    """The exact-verification index parallelises bit-identically too."""
    index = _layout_index(layout, "cosine", "exact")
    queries = _random_collection(33, n=7)[:, :80]
    serial_query = index.query_many(queries, threshold=0.5)
    serial_topk = index.top_k_many(queries, k=4)
    for n_workers in (2, 4):
        assert index.query_many(queries, threshold=0.5, n_workers=n_workers) == serial_query
        assert index.top_k_many(queries, k=4, n_workers=n_workers) == serial_topk


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_parallel_serving_non_word_aligned_rounds(measure):
    """k=48 rounds straddle word/publication boundaries; stitching must hold.

    With a 48-hash round width the verification windows are not multiples of
    the 32-bit word size or of the families' extension block sizes, so the
    workers' shared-memory column sources must stitch windows across the
    fork-inherited/published piece boundaries — the merged answers (and the
    post-call store widths) must still equal serial execution bit for bit.
    """
    corpus = _random_collection(39, n=60)
    queries = _random_collection(40, n=7)[:, :80]

    def build() -> QueryIndex:
        index = QueryIndex(corpus[:40], measure=measure, threshold=0.6, seed=17, k=48)
        index.insert(corpus[40:])
        index.delete([5, 45])
        return index

    serial_index, parallel_index = build(), build()
    serial = serial_index.query_many(queries, threshold=0.55)
    assert parallel_index.query_many(queries, threshold=0.55, n_workers=3) == serial
    assert [s.store.n_hashes for s in parallel_index._segments.segments] == [
        s.store.n_hashes for s in serial_index._segments.segments
    ]
    # Both indices keep answering identically afterwards (hash state equal).
    assert parallel_index.top_k_many(queries, k=4, rank_by="estimate") == (
        serial_index.top_k_many(queries, k=4, rank_by="estimate")
    )


def _hash_state(index: QueryIndex) -> list:
    """Per-segment store width and hash-family state (RNG position included)."""

    def plain(state: dict) -> dict:
        return {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in state.items()
        }

    return [plain(index._family.state_dict())] + [
        (segment.store.n_hashes, plain(segment.family.state_dict()))
        for segment in index._segments.segments
    ]


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_call_scoped_pool_leaves_nothing_behind(measure):
    """``n_workers=k`` is a pool whose lifetime is the call.

    After the call there is no attached pool, no live worker process and no
    new ``/dev/shm/psm_*`` segment, and the index is in the same hash state
    (store widths and RNG stream positions) as after serial execution.
    """
    import multiprocessing
    from pathlib import Path

    shm = Path("/dev/shm")

    def segments() -> set:
        return {entry.name for entry in shm.glob("psm_*")} if shm.is_dir() else set()

    serial_index = _layout_index("grown", measure, "bayes")
    pooled_index = _layout_index("grown", measure, "bayes")
    queries = _random_collection(31, n=9)[:, :80]
    queries[:3] = _random_collection(29, n=70)[:3]
    children_before = {child.pid for child in multiprocessing.active_children()}
    segments_before = segments()

    for call in (
        lambda index, **kw: index.query_many(queries, threshold=0.55, **kw),
        lambda index, **kw: index.top_k_many(queries, k=5, rank_by="estimate", **kw),
        lambda index, **kw: index.top_k_many(queries, k=5, **kw),
    ):
        assert call(pooled_index, n_workers=3) == call(serial_index)
        assert pooled_index.pool_stats() is None
        assert {child.pid for child in multiprocessing.active_children()} == children_before
        assert segments() == segments_before
        assert _hash_state(pooled_index) == _hash_state(serial_index)


def test_parallel_serving_validates_n_workers():
    index = QueryIndex(_random_collection(35, n=20), measure="cosine", threshold=0.6)
    with pytest.raises(ValueError, match="n_workers"):
        index.query_many(_random_collection(36, n=2)[:, :80], n_workers=0)


def test_parallel_serving_empty_batch_and_empty_rows():
    """Degenerate batches (all-empty queries) skip the pool entirely."""
    index = QueryIndex(_random_collection(37, n=20), measure="cosine", threshold=0.6)
    empty = np.zeros((3, 80))
    assert index.query_many(empty, n_workers=4) == [[], [], []]
    assert index.top_k_many(empty, k=3, n_workers=4) == [[], [], []]


def test_insert_accepts_token_sets_and_dicts():
    sets = [{0, 3, 5}, {1, 2}, {0, 3, 6}, {2, 4, 7}, {1, 5, 6}, {0, 1, 2, 3}]
    index = QueryIndex(
        VectorCollection.from_sets(sets, n_features=16),
        measure="jaccard",
        threshold=0.4,
        verification="exact",
        seed=0,
    )
    rows = index.insert([{0, 3, 5, 9}, {8, 9}])
    assert rows.tolist() == [6, 7]
    hits = index.query({0, 3, 5}, threshold=0.5)
    assert 6 in {pair.j for pair in hits}

    dict_rows = index.insert([{10: 1.0, 11: 2.0}])
    assert dict_rows.tolist() == [8]
    assert index.n_indexed == 9
