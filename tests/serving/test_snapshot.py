"""Snapshot round-trip tests for the serving layer.

The contract under test (see ``repro/serving/snapshot.py``): a loaded index
is indistinguishable from the instance that saved it — same query answers bit
for bit, same counters, and the *same future*: hash functions drawn after the
round trip match hash functions the original would have drawn.
"""

import json

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    load_query_index,
    save_query_index,
)
from repro.serving.storage import default_layout


def _corpus(seed: int, n: int = 60, features: int = 120):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, features)) * (rng.random((n, features)) < 0.15)
    dense[: n // 4] = dense[n // 2 : n // 2 + n // 4]  # planted near-duplicates
    return dense


@pytest.fixture(scope="module")
def corpus():
    return _corpus(101)


@pytest.fixture(scope="module")
def queries(corpus):
    return corpus[:7] + 0.0


@pytest.mark.parametrize(
    "measure,verification",
    [
        ("cosine", "bayes"),
        ("cosine", "exact"),
        ("jaccard", "bayes"),
        ("jaccard", "exact"),
        ("binary_cosine", "bayes"),
    ],
)
def test_round_trip_is_bit_identical(tmp_path, corpus, queries, measure, verification):
    index = QueryIndex(
        corpus, measure=measure, threshold=0.6, verification=verification, seed=9
    )
    before_query = index.query_many(queries, threshold=0.5)
    before_topk = index.top_k_many(queries, k=5)

    path = index.save(tmp_path / f"{measure}-{verification}")
    # The default layout follows REPRO_STORAGE, so under the CI storage
    # matrix this round-trips the flat layout instead of the .npz archive.
    assert path.suffix == (".flat" if default_layout() == "flat" else ".npz")
    loaded = QueryIndex.load(path)

    assert loaded.n_indexed == index.n_indexed
    assert loaded.n_signatures == index.n_signatures
    assert loaded.threshold == index.threshold
    assert loaded.verification == verification
    # ScoredPair equality is exact (ints and the float similarity), so these
    # assertions enforce bit-identity of every estimate.
    assert loaded.query_many(queries, threshold=0.5) == before_query
    assert loaded.top_k_many(queries, k=5) == before_topk


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_rng_stream_resumes_after_load(tmp_path, corpus, queries, measure):
    """Hashes drawn *after* the round trip match hashes drawn without it.

    The index is saved before any Bayesian query runs, so the signature store
    holds only the banding hashes; the first query then forces both instances
    to draw ~2000 more hash functions.  Identical answers prove the RNG
    stream position (not just the drawn state) survived serialisation.
    """
    index = QueryIndex(corpus, measure=measure, threshold=0.6, seed=4)
    path = save_query_index(index, tmp_path / "pre-query")
    loaded = load_query_index(path)
    assert loaded.query_many(queries, threshold=0.5) == index.query_many(
        queries, threshold=0.5
    )


def test_round_trip_preserves_updates_and_counters(tmp_path, corpus, queries):
    index = QueryIndex(
        corpus, measure="cosine", threshold=0.6, seed=2, staleness_budget=0.9
    )
    index.insert(_corpus(55, n=12))
    index.delete([0, 3, 5])
    expected = index.query_many(queries, threshold=0.5)

    loaded = QueryIndex.load(index.save(tmp_path / "updated"))
    assert loaded.n_indexed == index.n_indexed
    assert loaded.n_deleted == 3
    assert loaded.n_stale_postings == index.n_stale_postings
    assert loaded.staleness_budget == index.staleness_budget
    assert loaded.query_many(queries, threshold=0.5) == expected
    # The loaded index keeps evolving: further updates behave identically.
    extra = _corpus(56, n=6)
    assert np.array_equal(index.insert(extra), loaded.insert(extra))
    assert loaded.query_many(queries, threshold=0.5) == index.query_many(
        queries, threshold=0.5
    )


def test_round_trip_preserves_external_ids(tmp_path):
    from repro.similarity.vectors import VectorCollection

    collection = VectorCollection.from_dense(
        _corpus(77, n=10), ids=[f"doc-{i}" for i in range(10)]
    )
    index = QueryIndex(collection, measure="cosine", threshold=0.6, seed=1)
    loaded = QueryIndex.load(index.save(tmp_path / "ids"))
    assert list(loaded.ids) == [f"doc-{i}" for i in range(10)]


def test_rejects_foreign_and_future_archives(tmp_path, corpus):
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, something=np.arange(3))
    with pytest.raises(ValueError, match="not a QueryIndex snapshot"):
        load_query_index(foreign)

    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=0)
    path = index.save(tmp_path / "current.npz")
    with np.load(path, allow_pickle=False) as archive:
        contents = {name: archive[name] for name in archive.files}
    assert str(contents["format"][()]) == SNAPSHOT_FORMAT
    contents["version"] = np.array(SNAPSHOT_VERSION + 1, dtype=np.int64)
    future = tmp_path / "future.npz"
    np.savez(future, **contents)
    with pytest.raises(ValueError, match="version"):
        load_query_index(future)


def test_snapshot_is_pickle_free(tmp_path, corpus):
    """Every payload loads under ``allow_pickle=False`` and meta is plain JSON."""
    index = QueryIndex(corpus, measure="jaccard", threshold=0.55, seed=8)
    path = index.save(tmp_path / "no-pickle.npz")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"][()]))
        for name in archive.files:
            archive[name]  # raises if any array would need pickling
    assert meta["measure"] == "jaccard"
    assert meta["store_kind"] == "ints"
    assert meta["family"] == "minhash"


def test_save_rejects_non_index():
    with pytest.raises(TypeError, match="QueryIndex"):
        save_query_index(object(), "nowhere")


def test_multi_segment_round_trip_preserves_segmentation(tmp_path, corpus, queries):
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=6)
    index.insert(_corpus(60, n=9))
    index.insert(_corpus(61, n=5))
    assert index.n_segments == 3
    expected = index.query_many(queries, threshold=0.5)

    loaded = QueryIndex.load(index.save(tmp_path / "multi"))
    assert loaded.n_segments == 3
    assert loaded.query_many(queries, threshold=0.5) == expected
    # Both instances keep evolving identically after the round trip.
    extra = _corpus(62, n=4)
    assert np.array_equal(index.insert(extra), loaded.insert(extra))
    assert loaded.query_many(queries, threshold=0.5) == index.query_many(
        queries, threshold=0.5
    )


@pytest.mark.parametrize("verification", ["bayes", "exact"])
def test_compacted_snapshot_drops_tombstones_and_answers_identically(
    tmp_path, corpus, queries, verification
):
    """The compaction contract (see ``docs/serving.md``).

    A compacted snapshot physically contains no tombstoned rows, loads as a
    single segment with nothing deleted, and answers every query identically
    to the uncompacted index (whose tombstones are filtered at query time) —
    compared by ``(external id, similarity)``, since compaction renumbers
    the surviving rows while preserving ids and relative order.
    """
    index = QueryIndex(
        corpus, measure="cosine", threshold=0.6, verification=verification, seed=12,
        staleness_budget=1.0,
    )
    index.insert(_corpus(63, n=14))
    victims = [0, 2, 7, 61, 65, 70]
    index.delete(victims)
    expected = index.query_many(queries, threshold=0.5)
    expected_topk = index.top_k_many(queries, k=5)

    path = index.save(tmp_path / "compacted.npz", compact=True)
    # The archive holds exactly the alive rows, in one segment, none deleted.
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"][()]))
        assert meta["compacted"] is True
        assert meta["n_segments"] == 1
        assert int(archive["seg0_collection_shape"][0]) == index.n_alive
        assert archive["seg0_store"].shape[0] == index.n_alive
        assert not archive["deleted"].any()

    loaded = QueryIndex.load(path)
    assert loaded.n_segments == 1
    assert loaded.n_indexed == index.n_alive
    assert loaded.n_deleted == 0
    assert loaded.n_stale_postings == 0

    def by_id(instance, results):
        ids = instance.ids
        return [
            [(ids[pair.j], pair.similarity) for pair in hits] for hits in results
        ]

    assert by_id(loaded, loaded.query_many(queries, threshold=0.5)) == by_id(
        index, expected
    )
    assert by_id(loaded, loaded.top_k_many(queries, k=5)) == by_id(
        index, expected_topk
    )
    # The in-memory index was not modified by the compacting save.
    assert index.n_deleted == len(victims)
    assert index.query_many(queries, threshold=0.5) == expected


def test_compacted_snapshot_keeps_evolving(tmp_path, corpus, queries):
    """Insert/delete on a loaded compacted index behaves like a fresh build."""
    index = QueryIndex(corpus, measure="jaccard", threshold=0.5, seed=4)
    index.delete([1, 3])
    loaded = QueryIndex.load(index.save(tmp_path / "compact-evolve", compact=True))

    fresh = QueryIndex(loaded.as_collection(), measure="jaccard", threshold=0.5, seed=4)
    extra = _corpus(64, n=6)
    assert np.array_equal(loaded.insert(extra), fresh.insert(extra))
    assert loaded.query_many(queries, threshold=0.45) == fresh.query_many(
        queries, threshold=0.45
    )


def test_default_insert_ids_stay_unique_after_compacted_load(tmp_path, corpus):
    """Default ids continue past the surviving ids, never colliding with them."""
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=3)
    index.delete([1, 3])
    loaded = QueryIndex.load(index.save(tmp_path / "renumbered", compact=True))
    assert loaded.n_indexed == len(corpus) - 2

    inserted = loaded.insert(_corpus(70, n=4))
    assert len(inserted) == 4
    ids = loaded.ids
    assert len(np.unique(ids)) == len(ids)
    # The fresh ids continue after the largest surviving id (59), not from
    # the (smaller) row count the compaction left behind.
    assert ids[-4:].tolist() == [60, 61, 62, 63]


def test_compacting_save_does_not_mutate_the_live_index(tmp_path, corpus, queries):
    """save(compact=True) widens only the written copies of segment stores."""
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=8)
    # Widen the first segment (as long-surviving verification rounds would),
    # then append a narrow fresh segment.
    index._segments.segments[0].ensure_hashes(2048)
    index.insert(_corpus(71, n=10))
    widths_before = [seg.store.n_hashes for seg in index._segments.segments]
    assert widths_before[0] > widths_before[-1]

    index.save(tmp_path / "no-mutate", compact=True)
    widths_after = [seg.store.n_hashes for seg in index._segments.segments]
    assert widths_after == widths_before


@pytest.mark.parametrize("legacy_version", [1, 2])
def test_legacy_archive_versions_are_rejected_as_unsupported(tmp_path, corpus, legacy_version):
    """v1/v2 archives are refused as unsupported, not reported as corrupt.

    No writer has produced them since v3; the readers are gone.  An intact
    archive of another version is not damaged, so the error is the plain
    "version not supported" ``ValueError``.
    """
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=9)
    path = index.save(tmp_path / "current.npz")
    with np.load(path, allow_pickle=False) as archive:
        contents = {name: archive[name] for name in archive.files}
    contents["version"] = np.array(legacy_version, dtype=np.int64)
    legacy_path = tmp_path / f"v{legacy_version}.npz"
    np.savez(legacy_path, **contents)

    with pytest.raises(ValueError, match="not supported") as excinfo:
        load_query_index(legacy_path)
    assert not isinstance(excinfo.value, SnapshotCorruptError)
