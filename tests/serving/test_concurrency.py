"""Threaded reader-during-ingest stress tests for the serving layer.

The serving contract is *many reader threads, one writer thread* (see
``repro/serving/segments.py``).  The races these tests hunt:

* two readers lazily extending the same segment's signature store (or the
  shared simhash projection matrix / minhash coefficient arrays) at the same
  time — unguarded, both would draw from the RNG stream and corrupt the
  determinism contract, or interleave column appends;
* a reader probing/counting while ``insert`` publishes a new segment —
  readers must only ever observe rows whose segment, tombstone-mask slot and
  postings entries are all live;
* readers racing deletes, and the inserts whose postings merges drop the
  deleted rows;
* a band probe racing ``BandPostings.add``, which must answer exactly as
  before or after the add.

Correctness oracle: hash functions are deterministic in ``(seed, index)`` and
every serving kernel is row-local, so whatever subset of inserted rows a
reader observes, the result pairs that reference the *original* corpus must
be exactly the reference answer computed on an identical, never-mutated
index.  Any torn state shows up as an exception, a missing original pair or
a wrong similarity.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.candidates.lsh_index import BandPostings
from repro.hashing.base import get_hash_family
from repro.search.engine import as_collection
from repro.search.query import QueryIndex

_N_INITIAL = 80
_N_FEATURES = 96
_N_READERS = 4
_N_BATCHES = 8
_BATCH = 20


def _corpus(seed: int, n: int, features: int = _N_FEATURES) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = rng.random((n, features)) * (rng.random((n, features)) < 0.25)
    half = n // 2
    planted = min(10, n - half)
    dense[:planted] = dense[half : half + planted]
    return dense


def _result_key(results):
    """Result lists as comparable (query, row) -> similarity maps."""
    return [
        {(pair.j): pair.similarity for pair in hits} for hits in results
    ]


def _run_readers(index, queries, reference_by_query, n_initial, errors, n_rounds=12):
    """Reader loop: batched queries whose original-row hits must match exactly."""
    try:
        for _ in range(n_rounds):
            results = index.query_many(queries, threshold=0.5)
            for position, hits in enumerate(results):
                observed = {
                    pair.j: pair.similarity for pair in hits if pair.j < n_initial
                }
                if observed != reference_by_query[position]:
                    raise AssertionError(
                        f"query {position}: original-row hits diverged: "
                        f"{observed} != {reference_by_query[position]}"
                    )
    except Exception as error:  # propagate to the main thread
        errors.append(error)


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_readers_during_insert_see_consistent_answers(measure):
    """Concurrent batched readers while the writer ingests segment batches.

    Uses Bayesian verification so every reader batch drives the round-lazy
    store extension of freshly inserted segments — the main lock target.
    """
    corpus = _corpus(41, _N_INITIAL)
    queries = corpus[:8]
    index = QueryIndex(corpus, measure=measure, threshold=0.55, seed=7)
    reference = QueryIndex(corpus, measure=measure, threshold=0.55, seed=7)
    reference_by_query = _result_key(reference.query_many(queries, threshold=0.5))

    errors: list = []
    readers = [
        threading.Thread(
            target=_run_readers,
            args=(index, queries, reference_by_query, _N_INITIAL, errors),
        )
        for _ in range(_N_READERS)
    ]
    for thread in readers:
        thread.start()
    for batch in range(_N_BATCHES):
        index.insert(_corpus(100 + batch, _BATCH))
    for thread in readers:
        thread.join()

    assert not errors, errors[0]
    assert index.n_indexed == _N_INITIAL + _N_BATCHES * _BATCH
    # The settled index still answers the original-row portion identically.
    settled = _result_key(index.query_many(queries, threshold=0.5))
    for position, observed in enumerate(settled):
        original = {j: s for j, s in observed.items() if j < _N_INITIAL}
        assert original == reference_by_query[position]


def test_pooled_readers_during_insert():
    """Readers using ``n_workers > 1`` while the writer ingests.

    Exercises the pool-creation vs ingest race: `QueryIndex._fork_pool` holds
    the update lock across the fork-time snapshot and the worker forks, so
    every worker inherits a mutually consistent segment list / postings /
    tombstone mask no matter when ``insert`` commits.  The oracle is the
    same as the serial stress test: original-row hits must match a
    never-mutated reference index exactly.
    """
    corpus = _corpus(47, _N_INITIAL)
    queries = corpus[:6]
    index = QueryIndex(corpus, measure="cosine", threshold=0.55, seed=11)
    reference = QueryIndex(corpus, measure="cosine", threshold=0.55, seed=11)
    reference_by_query = _result_key(reference.query_many(queries, threshold=0.5))

    errors: list = []

    def pooled_read_loop():
        try:
            for _ in range(5):
                results = index.query_many(queries, threshold=0.5, n_workers=2)
                for position, hits in enumerate(results):
                    observed = {
                        pair.j: pair.similarity for pair in hits if pair.j < _N_INITIAL
                    }
                    if observed != reference_by_query[position]:
                        raise AssertionError(
                            f"query {position}: original-row hits diverged under pool"
                        )
        except Exception as error:
            errors.append(error)

    readers = [threading.Thread(target=pooled_read_loop) for _ in range(2)]
    for thread in readers:
        thread.start()
    for batch in range(5):
        index.insert(_corpus(200 + batch, _BATCH))
    for thread in readers:
        thread.join()

    assert not errors, errors[0]


def test_readers_during_deletes_and_postings_merges():
    """Readers race deletes, then inserts whose postings runs merge.

    A merge drops the rows deleted by then and publishes the new runs under
    the index's update lock; deleted rows must vanish from results
    immediately and surviving original rows must keep their exact
    similarities throughout.
    """
    corpus = _corpus(43, _N_INITIAL)
    queries = corpus[:8]
    index = QueryIndex(
        corpus, measure="cosine", threshold=0.55, verification="exact", seed=9
    )
    victims = list(range(60, 80))
    reference = QueryIndex(
        corpus, measure="cosine", threshold=0.55, verification="exact", seed=9
    )
    reference.delete(victims)
    reference_full = _result_key(reference.query_many(queries, threshold=0.5))
    survivors_reference = [
        {j: s for j, s in hits.items() if j < 60} for hits in reference_full
    ]

    errors: list = []

    def read_loop():
        try:
            for _ in range(20):
                for position, hits in enumerate(index.query_many(queries, threshold=0.5)):
                    observed = {pair.j: pair.similarity for pair in hits if pair.j < 60}
                    if observed != survivors_reference[position]:
                        raise AssertionError(
                            f"query {position}: surviving hits diverged"
                        )
        except Exception as error:
            errors.append(error)

    readers = [threading.Thread(target=read_loop) for _ in range(_N_READERS)]
    for thread in readers:
        thread.start()
    for row in victims:
        index.delete([row])
    for batch in range(4):
        index.insert(_corpus(300 + batch, _BATCH))
    for thread in readers:
        thread.join()

    assert not errors, errors[0]
    # the inserts merged into the corpus's run, dropping every victim
    assert not set(victims) & set(index._postings.runs[0][1].tolist())
    original = [
        {j: s for j, s in hits.items() if j < _N_INITIAL}
        for hits in _result_key(index.query_many(queries, threshold=0.5))
    ]
    assert original == _result_key(reference.query_many(queries, threshold=0.5))


def test_probes_racing_adds_answer_as_before_or_after_each_add():
    """Readers probe the very postings a writer is adding to.

    ``BandPostings.add`` seals and merges runs off to the side and publishes
    the new runs tuple with one assignment; ``probe_many`` reads that tuple
    once.  So every probe must return exactly the answer of some whole
    prefix of the adds, and a reader's successive probes never go back to
    an earlier prefix.  The corpus is eight mutually disjoint token sets in
    many identical copies; each add carries one copy of every set, so it
    lands in every bucket the eight queries hit, in every band, and the
    growing adds merge runs as they go.
    """
    n_sets, n_copies, n_bands, width = 8, 60, 16, 2
    distinct = [set(range(40 * s, 40 * s + 30)) for s in range(n_sets)]
    collection = as_collection(distinct * n_copies, n_features=40 * n_sets)
    store = get_hash_family("minhash", collection, seed=3).signatures(n_bands * width)
    queries = np.arange(n_sets)
    batches = [n_sets * copy + queries for copy in range(1, n_copies)]

    twin = BandPostings.build(store, queries, n_bands, width)
    answers = [twin.probe_many(store, queries, store)]
    for rows in batches:
        twin.add(store, rows)
        answers.append(twin.probe_many(store, queries, store))
    by_size = {len(members): prefix for prefix, (_, members) in enumerate(answers)}
    assert len(by_size) == len(answers)

    postings = BandPostings.build(store, queries, n_bands, width)
    errors: list = []
    done = threading.Event()

    def probe_loop():
        try:
            last = 0
            while not done.is_set():
                positions, members = postings.probe_many(store, queries, store)
                prefix = by_size.get(len(members))
                if prefix is None or prefix < last:
                    raise AssertionError(f"{len(members)} hits answer no later prefix")
                np.testing.assert_array_equal(positions, answers[prefix][0])
                np.testing.assert_array_equal(members, answers[prefix][1])
                last = prefix
        except Exception as error:  # propagate to the main thread
            errors.append(error)
            done.set()

    readers = [threading.Thread(target=probe_loop) for _ in range(_N_READERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for rows in batches:
            if done.is_set():
                break
            postings.add(store, rows)
            time.sleep(1e-3)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors[0]
    for left, right in zip(postings.probe_many(store, queries, store), answers[-1]):
        np.testing.assert_array_equal(left, right)
