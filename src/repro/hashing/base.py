"""Abstract interface of an LSH family.

A :class:`HashFamily` turns a :class:`~repro.similarity.vectors.VectorCollection`
into a growable :class:`~repro.hashing.signatures.SignatureStore`.  The key
property (Equation 1 of the paper) is that for a random hash function drawn
from the family,

    Pr[h(x) == h(y)] = sim(x, y)

where ``sim`` is the family's *collision similarity*.  For minwise hashing
that collision similarity is exactly the Jaccard similarity; for signed
random projections it is ``r(x, y) = 1 - theta(x, y) / pi``, which BayesLSH
maps back to cosine similarity in the posterior layer.

Families are deterministic given their seed: requesting hashes
``0 .. n-1`` twice produces the same values, and requesting more hashes
extends the store without changing hashes already produced.  That determinism
is what allows candidate generation and candidate verification to share one
set of signatures (advantage 3 in the paper's introduction).
"""

from __future__ import annotations

import threading

from abc import ABC, abstractmethod

from repro.hashing.signatures import SignatureStore
from repro.similarity.vectors import VectorCollection

__all__ = ["HashFamily", "get_hash_family"]


class HashFamily(ABC):
    """A seeded LSH family bound to a particular vector collection."""

    #: machine readable family name ("minhash" or "simhash")
    name: str = ""
    #: True when each hash is a single bit (packed storage, cheap to compare)
    produces_bits: bool = False

    def __init__(self, collection: VectorCollection, seed: int = 0):
        self._collection = collection
        self._seed = int(seed)
        self._store: SignatureStore | None = None
        # Serialises lazy extension so concurrent reader threads (the serving
        # layer's contract: many readers, one writer) cannot interleave
        # _extend calls — an unguarded interleave would append duplicate hash
        # columns and desynchronise the coefficient / projection streams.
        # Reads of an already-materialised store take the lock-free fast path.
        self._extend_lock = threading.Lock()

    @property
    def collection(self) -> VectorCollection:
        """The collection this family instance hashes."""
        return self._collection

    @property
    def seed(self) -> int:
        """The seed that (with the hash index) determines every hash function."""
        return self._seed

    @property
    def n_hashes(self) -> int:
        """Number of hash functions materialised so far."""
        return 0 if self._store is None else self._store.n_hashes

    @abstractmethod
    def _make_store(self) -> SignatureStore:
        """Create an empty store of the right concrete type."""

    @abstractmethod
    def _extend(self, store: SignatureStore, n_new: int) -> None:
        """Append ``n_new`` freshly generated hashes to ``store``."""

    def signatures(self, n_hashes: int) -> SignatureStore:
        """Return a store holding *at least* ``n_hashes`` hashes per vector.

        Hashes are generated lazily and cached, so repeated calls with
        growing ``n_hashes`` only pay for the new hash functions.  Extension
        is thread-safe (serialised under a lock); calls that need no new
        hashes never take the lock.
        """
        if n_hashes < 0:
            raise ValueError(f"n_hashes must be non-negative, got {n_hashes}")
        store = self._store
        if store is not None and store.n_hashes >= n_hashes:
            return store
        with self._extend_lock:
            if self._store is None:
                self._store = self._make_store()
            missing = n_hashes - self._store.n_hashes  # re-check under the lock
            if missing > 0:
                self._extend(self._store, missing)
            return self._store

    def attach_store(self, store: SignatureStore) -> None:
        """Adopt an externally built store as this family's signature cache.

        The serving layer uses this after splicing freshly hashed rows into an
        index's store (incremental insert) and after deserialising a snapshot:
        the family keeps generating *new* hash columns lazily, starting after
        the columns the adopted store already holds.  The caller guarantees
        the store's contents were produced by hash functions ``0 ..
        n_hashes-1`` of this family (same type and seed — the determinism
        contract makes those functions well-defined independent of the
        collection the hashes were computed from).
        """
        if store.n_vectors != self._collection.n_vectors:
            raise ValueError(
                f"store holds {store.n_vectors} rows, collection has "
                f"{self._collection.n_vectors}"
            )
        expected = type(self._make_store())
        if not isinstance(store, expected):
            raise TypeError(
                f"{type(self).__name__} requires a {expected.__name__} store, "
                f"got {type(store).__name__}"
            )
        self._store = store

    @abstractmethod
    def clone_for(self, collection: VectorCollection) -> "HashFamily":
        """A family over ``collection`` evaluating the *same* hash functions.

        Generator state already drawn (hash coefficients, projection vectors,
        RNG position) is carried over, so the clone neither re-derives nor
        re-randomises anything: hash function ``i`` of the clone is hash
        function ``i`` of this family, and future lazy draws continue the
        same stream.  This is what lets the serving layer hash a batch of
        inserted vectors (or a batch of queries) against an existing index.
        """

    @abstractmethod
    def state_dict(self) -> dict:
        """Serialisable generator state (drawn parameters + RNG stream position).

        Together with ``(name, seed)`` and the signature store contents this
        fully determines future behaviour: :meth:`restore_state` on a fresh
        family of the same type and seed reproduces the exact hash functions
        *and* the exact stream of hash functions still to be drawn.  Values
        are NumPy arrays or JSON-serialisable scalars/strings so snapshots can
        store them without pickling.
        """

    @abstractmethod
    def restore_state(self, state: dict) -> None:
        """Restore generator state captured by :meth:`state_dict`."""

    @abstractmethod
    def collision_similarity(self, exact_similarity: float) -> float:
        """Map an exact similarity value to the family's collision probability."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_vectors={self._collection.n_vectors}, "
            f"seed={self._seed}, n_hashes={self.n_hashes})"
        )


def get_hash_family(
    name: str, collection: VectorCollection, seed: int = 0, **kwargs
) -> HashFamily:
    """Instantiate a hash family by name (``"minhash"`` or ``"simhash"``)."""
    from repro.hashing.minhash import MinHashFamily
    from repro.hashing.simhash import SimHashFamily

    families: dict[str, type[HashFamily]] = {
        "minhash": MinHashFamily,
        "simhash": SimHashFamily,
    }
    try:
        factory = families[name]
    except KeyError:
        known = ", ".join(sorted(families))
        raise ValueError(f"unknown hash family {name!r}; expected one of: {known}") from None
    return factory(collection, seed=seed, **kwargs)
