"""Property: band postings held as sealed runs probe exactly like a dict of buckets.

``BandPostings`` keeps its members as sorted ``(key, row)`` runs that merge
as batches arrive, dropping rows tombstoned at merge time.  Whatever the
history of inserts, deletes and probes, a probe with tombstoned rows
filtered out (what ``QueryIndex`` does) must equal the dict-of-buckets
reference (:func:`tests.reference.band_probe_reference`) over the rows
still alive.  The cases cover both key encodings and the gather pitfall:

* ``cosine_8bit`` — 8-bit simhash bands, content packed into the key;
* ``jaccard_4x31`` — 4 minhashes of 31 bits per band, fingerprint keys
  confirmed against the real contents;
* ``jaccard_collide`` — the same with the fingerprint multiplier patched to
  0, so every key of a band collides and only the confirmation separates
  buckets;
* ``bits_4x8`` — 4 bands of 8 bits: one gather over all bands is
  word-aligned and comes back as packed words.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates import lsh_index
from repro.candidates.lsh_index import BandPostings
from repro.hashing.base import get_hash_family
from repro.search.engine import as_collection
from tests.reference import band_probe_reference

_N_ROWS = 48

#: case -> (hash family, bands, band width, fingerprint multiplier patched to 0)
CASES = {
    "cosine_8bit": ("simhash", 6, 8, False),
    "jaccard_4x31": ("minhash", 6, 4, False),
    "jaccard_collide": ("minhash", 6, 4, True),
    "bits_4x8": ("simhash", 4, 8, False),
}


@lru_cache(maxsize=None)
def _store(family_name: str, n_hashes: int):
    """Signatures of a corpus of near-duplicate groups, so buckets share rows."""
    rng = np.random.default_rng(7)
    if family_name == "minhash":
        bases = [set(rng.choice(60, size=12, replace=False).tolist()) for _ in range(8)]
        rows = [{t for t in bases[i % 8] if rng.random() < 0.9} or {0} for i in range(_N_ROWS)]
        collection = as_collection(rows, n_features=60)
    else:
        bases = rng.random((8, 40)) * (rng.random((8, 40)) < 0.4)
        noise = rng.normal(scale=0.05, size=(_N_ROWS, 40))
        collection = as_collection(np.abs(bases[np.arange(_N_ROWS) % 8] + noise))
    return get_hash_family(family_name, collection, seed=13).signatures(n_hashes)


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 9)),
        st.tuples(st.just("delete"), st.lists(st.integers(0, _N_ROWS - 1), max_size=4)),
        st.tuples(st.just("probe"), st.lists(st.integers(0, _N_ROWS - 1), max_size=6)),
    ),
    min_size=1,
    max_size=16,
)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(operations=_OPERATIONS)
def test_runs_probe_equals_dict_of_buckets_over_any_history(case, operations):
    family_name, n_bands, width, collide = CASES[case]
    store = _store(family_name, n_bands * width)
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            patch.setattr(lsh_index, "_FINGERPRINT_MULTIPLIER", np.uint64(0))
        postings = BandPostings(n_bands, width)
        deleted = np.zeros(_N_ROWS, dtype=bool)
        n_inserted = 0
        for kind, argument in [*operations, ("probe", list(range(_N_ROWS)))]:
            if kind == "insert":
                rows = np.arange(n_inserted, min(n_inserted + argument, _N_ROWS))
                postings.add(store, rows, deleted)
                n_inserted += len(rows)
            elif kind == "delete":
                deleted[[row for row in argument if row < n_inserted]] = True
            else:
                queries = np.asarray(argument, dtype=np.int64)
                positions, members = postings.probe_many(store, queries, store)
                keep = ~deleted[members]
                alive = np.flatnonzero(~deleted[:n_inserted])
                expected = band_probe_reference(store, alive, store, queries, n_bands, width)
                np.testing.assert_array_equal(positions[keep], expected[0])
                np.testing.assert_array_equal(members[keep], expected[1])
            for keys, rows in postings.runs:
                assert len(keys) == len(rows)
                ascending = (keys[1:] > keys[:-1]) | ((keys[1:] == keys[:-1]) & (rows[1:] > rows[:-1]))
                assert ascending.all()
