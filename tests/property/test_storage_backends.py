"""Backend-equivalence matrix: RAM vs mmap snapshot loads are bit-identical.

The load backends (see ``repro/serving/snapshot.py``) promise that *where*
a loaded index's arrays live — verified RAM reads or read-only memory maps
— never changes a single answered bit.  Every test here drives one serving
operation through both backends (``storage`` ∈ {ram, mmap}) and asserts the results (ids, similarities, ranked orders), the posterior
estimates, the post-call per-segment store widths and the hash family's RNG
stream position are identical across all of them — including after loads
into live mutation (insert / delete / postings merge), a compacted
re-save round trip and resident-pool execution at ``n_workers`` ∈ {1, 2}.
``save`` + ``load(storage="mmap")`` is the one way to serve out of core.
"""

import json

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.similarity.vectors import VectorCollection

MEASURES = ["cosine", "jaccard", "binary_cosine"]

#: load backends that must be bit-identical
BACKENDS = ["ram", "mmap"]


def _random_collection(seed: int, n: int = 50, features: int = 80) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = rng.random((n, features)) * (rng.random((n, features)) < 0.2)
    half = n // 2
    planted = min(8, n - half)
    dense[:planted] = dense[half : half + planted]
    mask = rng.random((planted, features)) < 0.1
    dense[:planted][mask] = 0.0
    return dense


def _build_index(measure: str, layout: str, verification: str = "bayes") -> QueryIndex:
    """``"fresh"`` = one segment; ``"grown"`` = four segments + tombstones."""
    corpus = _random_collection(41, n=70)
    if layout == "fresh":
        return QueryIndex(
            corpus, measure=measure, threshold=0.6, verification=verification, seed=19
        )
    index = QueryIndex(
        corpus[:30], measure=measure, threshold=0.6, verification=verification, seed=19
    )
    index.insert(corpus[30:31])  # single-row segment
    index.insert(corpus[31:55])
    index.insert(corpus[55:])
    index.delete([2, 30, 60])
    return index


def _queries() -> np.ndarray:
    queries = _random_collection(43, n=9)[:, :80]
    queries[:3] = _random_collection(41, n=70)[:3]  # indexed rows in the batch
    return queries


def _loaded_matrix(index: QueryIndex, tmp_path) -> list[tuple[str, QueryIndex]]:
    """One loaded index per load backend."""
    path = index.save(tmp_path / "snap")
    return [(storage, QueryIndex.load(path, storage=storage)) for storage in BACKENDS]


def _family_position(index: QueryIndex) -> str:
    """The hash family's full state (RNG position included) as a stable key."""
    state = index._family.state_dict()
    return json.dumps(
        {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in sorted(state.items())
        }
    )


def _store_widths(index: QueryIndex) -> list[int]:
    return [segment.store.n_hashes for segment in index._segments.segments]


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("layout", ["fresh", "grown"])
def test_query_and_top_k_identical_across_backends(measure, layout, tmp_path):
    """query_many / top_k_many (exact + estimate) over every backend."""
    index = _build_index(measure, layout)
    queries = _queries()
    reference_query = index.query_many(queries, threshold=0.55)
    reference_exact = index.top_k_many(queries, k=5, floor_threshold=0.2)
    reference_estimate = index.top_k_many(
        queries, k=5, floor_threshold=0.2, rank_by="estimate"
    )

    for name, loaded in _loaded_matrix(index, tmp_path):
        assert loaded.query_many(queries, threshold=0.55) == reference_query, name
        assert loaded.top_k_many(queries, k=5, floor_threshold=0.2) == reference_exact, name
        assert (
            loaded.top_k_many(queries, k=5, floor_threshold=0.2, rank_by="estimate")
            == reference_estimate
        ), name
        # Queries extend the stores lazily; every backend must land on the
        # same widths and the same family RNG position as the original.
        assert _store_widths(loaded) == _store_widths(index), name
        assert _family_position(loaded) == _family_position(index), name


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_insert_after_load_identical_across_backends(measure, tmp_path):
    """Post-load inserts hash through identical RNG streams on every backend."""
    index = _build_index(measure, "grown")
    queries = _queries()
    extra = _random_collection(47, n=12)

    index.insert(extra)
    reference = index.query_many(queries, threshold=0.55)
    reference_estimate = index.top_k_many(queries, k=5, rank_by="estimate")

    for name, loaded in _loaded_matrix(_build_index(measure, "grown"), tmp_path):
        rows = loaded.insert(extra)
        assert rows.tolist() == list(range(70, 82)), name
        assert loaded.query_many(queries, threshold=0.55) == reference, name
        assert loaded.top_k_many(queries, k=5, rank_by="estimate") == reference_estimate, name
        assert _family_position(loaded) == _family_position(index), name


@pytest.mark.parametrize("measure", ["cosine", "binary_cosine"])
def test_delete_and_postings_merge_identical_across_backends(measure, tmp_path):
    """Deletes, then an insert whose postings run merges into the loaded
    (possibly memory-mapped) run and drops the tombstoned rows, behave
    identically loaded."""
    corpus = _random_collection(53, n=60)
    queries = corpus[:8]

    def build() -> QueryIndex:
        return QueryIndex(corpus[:40], measure=measure, threshold=0.6, seed=23)

    reference_index = build()
    reference_index.delete(list(range(10)))
    reference_index.insert(corpus[40:])
    reference = reference_index.query_many(queries, threshold=0.4)
    assert len(reference_index._postings.runs) == 1  # the insert merged

    for name, loaded in _loaded_matrix(build(), tmp_path):
        assert loaded.delete(list(range(10))) == 10, name
        loaded.insert(corpus[40:])
        assert loaded.query_many(queries, threshold=0.4) == reference, name
        for left, right in zip(loaded._postings.runs, reference_index._postings.runs):
            np.testing.assert_array_equal(left[0], right[0])
            np.testing.assert_array_equal(left[1], right[1])


@pytest.mark.parametrize("measure", MEASURES)
def test_compacted_round_trip_identical_across_backends(measure, tmp_path):
    """save(compact=True) → load answers identically from every backend."""
    index = _build_index(measure, "grown")
    queries = _queries()
    compact_reference = None
    path = index.save(tmp_path / "compact", compact=True)
    for storage in BACKENDS:
        loaded = QueryIndex.load(path, storage=storage)
        assert loaded.n_segments == 1
        assert loaded.n_deleted == 0
        answers = loaded.query_many(queries, threshold=0.55)
        if compact_reference is None:
            compact_reference = answers
        else:
            assert answers == compact_reference, storage
    # Compaction only renumbers rows; external ids keep matching.
    alive = {pair.j for hits in compact_reference for pair in hits}
    assert all(0 <= j < index.n_alive for j in alive)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_resident_pool_batches_identical_across_backends(n_workers, tmp_path):
    """Resident-pool serving over each backend equals the serial reference.

    Loaded mmap segments are published to forked workers through the
    inherited chunk maps; answers and post-batch store widths must equal the
    serial path bit for bit at every worker count.
    """
    index = _build_index("cosine", "grown")
    queries = _queries()
    reference_query = index.query_many(queries, threshold=0.55)
    reference_topk = index.top_k_many(queries, k=5, floor_threshold=0.2)

    for name, loaded in _loaded_matrix(_build_index("cosine", "grown"), tmp_path):
        if n_workers == 1:
            # n_workers=1 is the explicit serial execution path.
            assert (
                loaded.query_many(queries, threshold=0.55, n_workers=1)
                == reference_query
            ), name
            assert (
                loaded.top_k_many(queries, k=5, floor_threshold=0.2, n_workers=1)
                == reference_topk
            ), name
        else:
            loaded.start_pool(n_workers=n_workers)
            try:
                assert loaded.query_many(queries, threshold=0.55) == reference_query, name
                assert (
                    loaded.top_k_many(queries, k=5, floor_threshold=0.2)
                    == reference_topk
                ), name
            finally:
                loaded.close()
        assert _store_widths(loaded) == _store_widths(index), name


def test_collections_with_string_ids_round_trip(tmp_path):
    """Unicode external ids survive both backends."""
    dense = _random_collection(61, n=30)
    ids = [f"doc-{i:03d}" for i in range(30)]
    index = QueryIndex(
        VectorCollection.from_dense(dense, ids=ids),
        measure="cosine",
        threshold=0.6,
        seed=29,
    )
    queries = dense[:4]
    reference = index.query_many(queries, threshold=0.5)
    for name, loaded in _loaded_matrix(index, tmp_path):
        assert loaded.query_many(queries, threshold=0.5) == reference, name
        assert loaded.ids.tolist() == ids, name
