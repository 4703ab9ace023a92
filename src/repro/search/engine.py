"""The search engine: candidate generation + verification, with timing.

:class:`SearchEngine` is the composition point of the two phases the paper
analyses.  It times each phase separately (the paper always reports the full
execution time, including candidate generation and all hashing) and packages
the output in a :class:`~repro.search.results.SearchResult`.

:func:`all_pairs_similarity` is the one-call entry point most users need:
give it data, a threshold and a measure, and it picks the pipeline the
paper's results suggest (AllPairs + BayesLSH for weighted cosine, LSH +
BayesLSH for Jaccard) unless told otherwise.

Streaming
---------
One code path runs every join; ``block_size`` is its only parameter, and
``None`` means one block.

* **Generation** — ``generator.generate(collection, block_size)``: a
  generator is its block stream (:meth:`CandidateGenerator.generate_blocks`,
  raw pair blocks of at most ``block_size`` pairs), and
  :meth:`CandidateSet.from_stream` folds them into the deduplicated set as
  they arrive: each buffer of raw blocks is deduplicated on its own and
  merged into the held set (kept as ``left`` / ``right``, 16 bytes per
  unique pair), so the raw pairs held at once are bounded by the
  deduplicated set plus one block instead of the raw collision count (for
  LSH the raw count is often many times the unique count).  The
  inverted-index generators probe in batches of whole rows within a hit
  budget (a row over it is a batch of its own), so no pair is in two of
  their blocks.
* **Hashing ahead** — a verifier's hashes depend only on the collection and
  the seed, never on the candidates, so while the generator runs, one helper
  thread computes the verifier's first signature block
  (``family.signatures(k)``, which the family rounds up to its block: 256
  simhash or 64 minhash columns).  It runs only for BayesLSH and
  BayesLSH-Lite behind a generator that does not share their family
  (AllPairs, PPJoin+, brute force; the ``lsh_*`` generators have already
  hashed with theirs), and never for the exact verifier.  The family's
  extension lock is the only synchronisation: the first round's
  ``signatures`` call waits on it while the helper holds it, and finds the
  block there.  The helper is joined in a ``finally``, and before
  verification when ``n_workers > 1``, so no thread but the caller's is
  alive when :class:`~repro.search.executor.ExactPool` forks; an exception
  raised on it is re-raised to the caller of :meth:`SearchEngine.run`.  The
  overlap is bounded by the GIL: the Gaussian draws and sorts release it,
  scipy's sparse-times-dense product (``csr_matvecs``, the simhash sign
  products) holds it.
* **Verification** — ``verifier.verify(candidates, block_size, pool)`` walks
  :meth:`CandidateSet.blocks`, so the per-pair verification state is bounded
  by the block size; per-block outputs are combined with
  :meth:`~repro.core.bayeslsh.VerificationOutput.merge`.  With
  ``n_workers > 1`` a :class:`~repro.search.executor.ExactPool` scores pairs
  exactly in forked workers; hashes are counted, and every decision is made,
  in the parent.

Determinism contract
--------------------
For every pipeline, every ``block_size`` and every ``n_workers``:

* the output pair set, its order, and every estimate are bit-identical to the
  one-block serial run (workers run the same NumPy/scipy kernels on the same
  inputs);
* ``n_candidates`` / ``n_pruned`` / ``hash_comparisons`` /
  ``exact_computations`` and the per-round trace are identical (the parent
  keeps them; blocks merge round by round);
* hash families are extended by the parent only, in the same order as the
  serial path, so a given ``(seed, hash index)`` yields the same hash
  function everywhere.  Hashing ahead does not change that order: the helper
  makes the very request the first round would make, under the same lock,
  and nothing else draws from the family's generator before it, so columns
  ``[0, block)`` and the RNG position after them are the same whichever
  thread draws them.  The one exception: a join with no candidates draws
  that first block too

(enforced by ``tests/property/test_execution_invariance.py`` and, for the
serving pools, ``tests/property/test_query_serving.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.candidates.base import CandidateGenerator
from repro.datasets.base import Dataset
from repro.search.executor import ExactPool
from repro.search.results import SearchResult
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection
from repro.verification.base import Verifier
from repro.verification.bayes import BayesLSHLiteVerifier, BayesLSHVerifier

__all__ = ["DEFAULT_BLOCK_SIZE", "SearchEngine", "all_pairs_similarity", "as_collection"]

#: candidate pairs per block when ``n_workers > 1`` is asked for without a ``block_size``
DEFAULT_BLOCK_SIZE = 65536


def as_collection(data, n_features: int | None = None) -> VectorCollection:
    """Coerce user data into a :class:`VectorCollection`.

    Accepts a :class:`Dataset`, a :class:`VectorCollection`, a
    :class:`~repro.serving.segments.SegmentedCollection` (consolidated into
    one monolithic collection — the all-pairs pipelines operate on a single
    matrix), a scipy sparse matrix, a dense array, or a list of sets / dicts.

    ``n_features`` pins the collection's feature space — the serving layer
    passes an index's feature count so that inserted vectors and query
    batches align with the indexed corpus.  Token-set and dict inputs are
    built directly in that space; array-like inputs must already have exactly
    that many columns (a mismatch raises ``ValueError``).
    """
    collection = _coerce_collection(data, n_features)
    if n_features is not None and collection.n_features != n_features:
        raise ValueError(
            f"data has {collection.n_features} features, expected {n_features}"
        )
    return collection


def _coerce_collection(data, n_features: int | None) -> VectorCollection:
    # Imported lazily: the serving layer sits above the search layer, and
    # the engine only needs the type for this isinstance dispatch.
    from repro.serving.segments import SegmentedCollection

    if isinstance(data, Dataset):
        return data.collection
    if isinstance(data, VectorCollection):
        return data
    if isinstance(data, SegmentedCollection):
        return data.to_collection()
    if sp.issparse(data):
        return VectorCollection(data)
    if isinstance(data, np.ndarray):
        return VectorCollection.from_dense(data)
    if isinstance(data, (list, tuple)):
        if not data:
            if n_features is None:
                raise ValueError(
                    "cannot build a collection from an empty sequence without n_features"
                )
            return VectorCollection(sp.csr_matrix((0, n_features), dtype=np.float64))
        first = data[0]
        if isinstance(first, dict):
            return VectorCollection.from_dicts(data, n_features=n_features)
        if isinstance(first, (set, frozenset)):
            return VectorCollection.from_sets(data, n_features=n_features)
        if isinstance(first, (list, tuple, np.ndarray)):
            if n_features is None:
                return VectorCollection.from_sets(data)
            # With the feature space pinned, a batch of integer rows is a
            # batch of token-id sets *unless* every row has exactly
            # n_features entries — then it can only plausibly be a dense
            # matrix (a token set naming every feature is degenerate), and
            # treating it as ids would silently corrupt the vectors.
            integer_rows = all(
                len(row) == 0 or np.issubdtype(np.asarray(row).dtype, np.integer)
                for row in data
            )
            dense_shaped = all(len(row) == n_features for row in data)
            if integer_rows and not dense_shaped:
                return VectorCollection.from_sets(data, n_features=n_features)
            return VectorCollection.from_dense(np.asarray(data, dtype=np.float64))
    # Last resort: let numpy try.
    return VectorCollection.from_dense(np.asarray(data, dtype=np.float64))


class SearchEngine:
    """A candidate generator paired with a verifier.

    Parameters
    ----------
    generator:
        Phase-1 algorithm producing candidate pairs.
    verifier:
        Phase-2 algorithm deciding which candidates to report (bound to the
        collection it will be run on).
    name:
        Optional pipeline name for reports; defaults to
        ``"<generator>+<verifier>"``.
    """

    def __init__(self, generator: CandidateGenerator, verifier: Verifier, name: str | None = None):
        if generator.measure.name != verifier.measure.name:
            raise ValueError(
                "generator and verifier disagree on the similarity measure: "
                f"{generator.measure.name!r} vs {verifier.measure.name!r}"
            )
        if abs(generator.threshold - verifier.threshold) > 1e-12:
            raise ValueError(
                "generator and verifier disagree on the threshold: "
                f"{generator.threshold} vs {verifier.threshold}"
            )
        self._generator = generator
        self._verifier = verifier
        self._name = name or f"{generator.name}+{verifier.name}"

    @property
    def name(self) -> str:
        """Pipeline name used in reports (``"<generator>+<verifier>"`` by default)."""
        return self._name

    @property
    def generator(self) -> CandidateGenerator:
        """The phase-1 candidate generator."""
        return self._generator

    @property
    def verifier(self) -> Verifier:
        """The phase-2 candidate verifier."""
        return self._verifier

    def run(
        self,
        data,
        *,
        block_size: int | None = None,
        n_workers: int | None = None,
        round_timeout: float | None = None,
    ) -> SearchResult:
        """Run the full pipeline on ``data`` and return the scored pairs.

        Parameters
        ----------
        data:
            Anything :func:`as_collection` accepts.
        block_size:
            Candidate pairs per block: generation deduplicates and
            verification runs in blocks of about this many pairs (see the
            module's *Streaming* notes), bounding the peak pair-array and
            verification-state memory.  ``None`` is one block.  Results are
            bit-identical for every value.
        n_workers:
            When greater than 1, exact scoring is sharded across this many
            forked worker processes, forked on the first exact request
            (``block_size`` then defaults to :data:`DEFAULT_BLOCK_SIZE`).
            Results are bit-identical to the serial run — including after
            worker loss, which recomputes the lost shards serially in the
            parent.
        round_timeout:
            Seconds a silent-but-alive worker may stall a gather before the
            supervisor declares it hung and falls back serially (``None``
            waits forever; dead workers are always detected promptly).  Only
            meaningful with ``n_workers > 1``.

        A run with a ``block_size`` or ``n_workers > 1`` records them under
        ``metadata["execution"]``.
        """
        collection = as_collection(data)
        self._check_collection(collection)
        n_workers = 1 if n_workers is None else int(n_workers)
        if n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        if block_size is None and n_workers > 1:
            block_size = DEFAULT_BLOCK_SIZE
        if block_size is not None:
            block_size = int(block_size)
            if block_size <= 0:
                raise ValueError(f"block_size must be positive, got {block_size}")
        start_total = time.perf_counter()
        join_hashing = _hash_first_block(self._generator, self._verifier)
        try:
            candidates = self._generator.generate(collection, block_size)
            generation_time = time.perf_counter() - start_total

            start = time.perf_counter()
            workers = nullcontext()
            if n_workers > 1:
                join_hashing()  # no thread but this one may be alive when the pool forks
                workers = ExactPool(n_workers, self._verifier.exact_similarities, round_timeout)
            with workers as pool:
                output = self._verifier.verify(candidates, block_size, pool)
        finally:
            join_hashing()
        verification_time = time.perf_counter() - start

        timings = {
            "generation": generation_time,
            "verification": verification_time,
            "total": time.perf_counter() - start_total,
        }
        metadata = {
            "candidate_metadata": dict(candidates.metadata),
            "hash_comparisons": output.hash_comparisons,
            "exact_computations": output.exact_computations,
            "n_exact": int(np.count_nonzero(output.exact_mask)),
            "n_unconcentrated": output.n_unconcentrated,
            "prune_trace": list(output.trace),
        }
        if block_size is not None:
            metadata["execution"] = {
                "mode": "streamed", "block_size": block_size, "n_workers": n_workers
            }
        return SearchResult(
            left=output.left,
            right=output.right,
            similarities=output.estimates,
            method=self._name,
            threshold=self._verifier.threshold,
            measure=self._verifier.measure.name,
            n_candidates=output.n_candidates,
            n_pruned=output.n_pruned,
            timings=timings,
            exact_similarities=self._verifier.exact_output,
            metadata=metadata,
            exact_mask=output.exact_mask,
        )

    def _check_collection(self, collection: VectorCollection) -> None:
        """Refuse a run on any corpus but the one the verifier was built over.

        The verifier scores pairs against its own vectors (and an LSH
        generator hashes with the family built over them), so a different
        corpus would get answers computed for the wrong one.  An equal-content
        copy is accepted: the check compares the prepared CSR arrays, O(nnz).
        """
        ours = self._verifier.prepared
        theirs = self._verifier.measure.prepare(collection)
        if theirs is ours:
            return
        same = ours.matrix.shape == theirs.matrix.shape and all(
            np.array_equal(getattr(ours.matrix, part), getattr(theirs.matrix, part))
            for part in ("indptr", "indices", "data")
        )
        if not same:
            raise ValueError(
                f"this engine was built over a {ours.matrix.shape} collection and "
                f"cannot run on a different one (got {theirs.matrix.shape}); "
                "build the pipeline over the data it will run on"
            )

    def __repr__(self) -> str:
        return f"SearchEngine(name={self._name!r})"


def _hash_first_block(generator: CandidateGenerator, verifier: Verifier) -> Callable[[], None]:
    """Start hashing the verifier's first signature block on a helper thread.

    Returns the join: it waits for the thread and re-raises, with its own
    type, anything the hashing raised.  The thread starts only for a
    BayesLSH or BayesLSH-Lite verifier whose family the generator does not
    share (the ``lsh_*`` pipelines' generator has already hashed with it);
    otherwise the join is a no-op.  See the module's *Streaming* notes.
    """
    if not isinstance(verifier, (BayesLSHVerifier, BayesLSHLiteVerifier)) or (
        verifier.family is getattr(generator, "family", None)
    ):
        return lambda: None
    failure: list[BaseException] = []

    def hash_block() -> None:
        try:
            verifier.family.signatures(verifier.params.k)
        except BaseException as exc:  # handed to the joining thread
            failure.append(exc)

    thread = threading.Thread(target=hash_block, name="repro-first-hash-block", daemon=True)
    thread.start()

    def join() -> None:
        thread.join()
        if failure:
            raise failure.pop()

    return join


def all_pairs_similarity(
    data,
    threshold: float,
    measure: str = "cosine",
    method: str | None = None,
    seed: int = 0,
    block_size: int | None = None,
    n_workers: int | None = None,
    round_timeout: float | None = None,
    **pipeline_kwargs,
) -> SearchResult:
    """All-pairs similarity search in one call.

    Parameters
    ----------
    data:
        Anything :func:`as_collection` accepts.
    threshold:
        Similarity threshold ``t`` in (0, 1).
    measure:
        ``"cosine"`` (default), ``"jaccard"`` or ``"binary_cosine"``.
    method:
        Pipeline name from :data:`repro.search.pipelines.PIPELINES`; the
        default is ``"ap_bayeslsh"`` for the cosine measures and
        ``"lsh_bayeslsh"`` for Jaccard — the combinations the paper found
        fastest most often.
    seed:
        Seed for all randomised components.
    block_size, n_workers, round_timeout:
        Block size and worker knobs, forwarded to :meth:`SearchEngine.run`
        (results are bit-identical to the defaults, including after worker
        loss and serial fallback).
    pipeline_kwargs:
        Extra keyword arguments forwarded to
        :func:`repro.search.pipelines.make_pipeline` (``epsilon``, ``delta``,
        ``gamma``, ``h`` and so on).
    """
    from repro.search.pipelines import make_pipeline

    measure_name = get_measure(measure).name
    if method is None:
        method = "ap_bayeslsh" if measure_name in ("cosine", "binary_cosine") else "lsh_bayeslsh"
    collection = as_collection(data)
    engine = make_pipeline(
        method, collection, measure=measure_name, threshold=threshold, seed=seed, **pipeline_kwargs
    )
    return engine.run(
        collection,
        block_size=block_size,
        n_workers=n_workers,
        round_timeout=round_timeout,
    )
