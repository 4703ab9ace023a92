"""Snapshot round-trip tests for the serving layer.

The contract under test (see ``repro/serving/snapshot.py``): a loaded index
is indistinguishable from the instance that saved it — same query answers bit
for bit, same counters, and the *same future*: hash functions drawn after the
round trip match hash functions the original would have drawn.
"""

import json
import zlib

import numpy as np
import pytest

from repro.search.query import QueryIndex
from repro.serving.snapshot import (
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    load_query_index,
    read_flat,
    save_query_index,
)


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
    assert path.is_dir() and path.name == f"{measure}-{verification}.flat"
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
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=2)
    index.insert(_corpus(55, n=12))
    index.delete([0, 3, 5])
    expected = index.query_many(queries, threshold=0.5)

    loaded = QueryIndex.load(index.save(tmp_path / "updated"))
    assert loaded.n_indexed == index.n_indexed
    assert loaded.n_deleted == 3
    for left, right in zip(loaded._postings.runs, index._postings.runs, strict=True):
        np.testing.assert_array_equal(left[0], right[0])
        np.testing.assert_array_equal(left[1], right[1])
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


def _rewrite_manifest(path, mutate):
    """Apply ``mutate(payload)`` to a snapshot manifest, re-sealing its CRC."""
    head, _, body = (path / MANIFEST_NAME).read_bytes().partition(b"\n")
    header, payload = json.loads(head), json.loads(body)
    mutate(payload)
    body = json.dumps(payload).encode("utf-8")
    header["payload_crc"], header["payload_size"] = zlib.crc32(body), len(body)
    (path / MANIFEST_NAME).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


def test_rejects_foreign_and_future_archives(tmp_path, corpus):
    foreign = tmp_path / "foreign.flat"
    foreign.mkdir()
    (foreign / MANIFEST_NAME).write_bytes(b'{"format": "something-else"}\n{}')
    with pytest.raises(ValueError, match="not a QueryIndex snapshot"):
        load_query_index(foreign)

    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=0)
    path = index.save(tmp_path / "current")
    _rewrite_manifest(path, lambda payload: payload.update(version=SNAPSHOT_VERSION + 1))
    with pytest.raises(ValueError, match="version"):
        load_query_index(path)


def test_snapshot_is_pickle_free(tmp_path, corpus):
    """Every member is a raw fixed-width array and meta is plain JSON."""
    index = QueryIndex(corpus, measure="jaccard", threshold=0.55, seed=8)
    path = index.save(tmp_path / "no-pickle")
    payload = json.loads((path / MANIFEST_NAME).read_bytes().partition(b"\n")[2])
    meta = payload["meta"]
    for entry in payload["members"].values():
        assert not np.dtype(entry["dtype"]).hasobject
    assert meta["measure"] == "jaccard"
    assert meta["store_kind"] == "ints"
    assert meta["family"] == "minhash"


def test_save_rejects_non_index():
    with pytest.raises(TypeError, match="QueryIndex"):
        save_query_index(object(), "nowhere")


def test_save_accepts_only_the_flat_layout(tmp_path, corpus):
    from repro.serving.snapshot import SnapshotStore

    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=0)
    assert index.save(tmp_path / "explicit", layout="flat").is_dir()
    with pytest.raises(ValueError, match="layout must be 'flat'"):
        index.save(tmp_path / "archive", layout="npz")
    with pytest.raises(ValueError, match="layout must be 'flat'"):
        SnapshotStore(tmp_path / "store").save(index, layout="npz")
    assert not (tmp_path / "archive.flat").exists()
    assert list((tmp_path / "store").iterdir()) == []


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
        corpus, measure="cosine", threshold=0.6, verification=verification, seed=12
    )
    index.insert(_corpus(63, n=14))
    victims = [0, 2, 7, 61, 65, 70]
    index.delete(victims)
    expected = index.query_many(queries, threshold=0.5)
    expected_topk = index.top_k_many(queries, k=5)

    path = index.save(tmp_path / "compacted", compact=True)
    # The snapshot holds exactly the alive rows, in one segment, none deleted.
    _, meta, arrays = read_flat(path)
    assert meta["compacted"] is True
    assert meta["n_segments"] == 1
    assert int(arrays["seg0_collection_shape"][0]) == index.n_alive
    assert arrays["seg0_store"].shape[0] == index.n_alive
    assert not arrays["deleted"].any()

    loaded = QueryIndex.load(path)
    assert loaded.n_segments == 1
    assert loaded.n_indexed == index.n_alive
    assert loaded.n_deleted == 0
    ((_, rows),) = loaded._postings.runs  # one run of the renumbered alive rows
    assert rows.max() < loaded.n_indexed

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


@pytest.mark.parametrize("legacy_version", [1, 2, 3])
def test_legacy_archive_versions_are_rejected_as_unsupported(tmp_path, corpus, legacy_version):
    """v1/v2/v3 snapshots are refused as unsupported, not reported as corrupt.

    No writer has produced v1/v2 since v3, nor v3 (postings as a member
    sequence, rebuilt on load) since v4; the readers are gone.  An intact
    snapshot of another version is not damaged, so the error is the plain
    "version not supported" ``ValueError``.
    """
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=9)
    path = index.save(tmp_path / f"v{legacy_version}")
    _rewrite_manifest(path, lambda payload: payload.update(version=legacy_version))

    with pytest.raises(ValueError, match="not supported") as excinfo:
        load_query_index(path)
    assert not isinstance(excinfo.value, SnapshotCorruptError)


def test_load_tries_the_name_then_its_flat_suffix_only(tmp_path, corpus, queries):
    """``load(p)`` reads ``p`` or ``p + ".flat"`` and never probes a sibling
    name, and a name already ending in ``.flat`` is saved as given."""
    index = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=3)
    expected = index.query_many(queries, threshold=0.5)
    assert index.save(tmp_path / "kept.flat").name == "kept.flat"
    saved = index.save(tmp_path / "run.v1")
    for name in ("kept", "kept.flat", "run.v1", "run.v1.flat"):
        assert QueryIndex.load(tmp_path / name).query_many(queries, threshold=0.5) == expected
    for name in ("run", "run.v2", "run.flat"):
        with pytest.raises(SnapshotCorruptError, match="missing MANIFEST.json"):
            QueryIndex.load(tmp_path / name)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.flat", saved.name]


def test_names_differing_after_the_last_dot_are_distinct_snapshots(
    tmp_path, corpus, queries
):
    """``save`` appends ``.flat`` rather than replacing a suffix, so
    ``run.v1`` and ``run.v2`` never overwrite each other and each loads
    back its own index."""
    first = QueryIndex(corpus, measure="cosine", threshold=0.6, seed=1)
    second = QueryIndex(corpus[::-1] + 0.0, measure="jaccard", threshold=0.5, seed=2)
    paths = [first.save(tmp_path / "run.v1"), second.save(tmp_path / "run.v2")]
    assert [path.name for path in paths] == ["run.v1.flat", "run.v2.flat"]
    for name, original in (("run.v1", first), ("run.v2", second)):
        loaded = QueryIndex.load(tmp_path / name)
        assert loaded.threshold == original.threshold
        assert loaded.query_many(queries, threshold=0.5) == original.query_many(
            queries, threshold=0.5
        )
