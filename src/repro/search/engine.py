"""The search engine: candidate generation + verification, with timing.

:class:`SearchEngine` is the composition point of the two phases the paper
analyses.  It times each phase separately (the paper always reports the full
execution time, including candidate generation and all hashing) and packages
the output in a :class:`~repro.search.results.SearchResult`.

:func:`all_pairs_similarity` is the one-call entry point most users need:
give it data, a threshold and a measure, and it picks the pipeline the
paper's results suggest (AllPairs + BayesLSH for weighted cosine, LSH +
BayesLSH for Jaccard) unless told otherwise.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.candidates.base import CandidateGenerator
from repro.datasets.base import Dataset
from repro.search.results import SearchResult
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection
from repro.verification.base import Verifier

__all__ = ["SearchEngine", "all_pairs_similarity", "as_collection"]


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
            When set, candidates are generated, deduplicated and verified in
            bounded-memory blocks of at most this many pairs (see
            :class:`~repro.search.executor.StreamExecutor`) instead of one
            monolithic array.  Results are bit-identical either way.
        n_workers:
            When greater than 1, verification's hash counting and exact
            scoring are sharded across this many forked worker processes
            (implies streamed execution, with ``block_size`` defaulting to
            :data:`~repro.search.executor.DEFAULT_BLOCK_SIZE`).  Results are
            bit-identical to the serial path — including after worker loss,
            which recomputes the lost shards serially in the parent.
        round_timeout:
            Seconds a silent-but-alive worker may stall a gather before the
            supervisor declares it hung and falls back serially (``None``
            waits forever; dead workers are always detected promptly).  Only
            meaningful with ``n_workers > 1``.
        """
        collection = as_collection(data)
        self._check_collection(collection)
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        if block_size is not None or (n_workers is not None and int(n_workers) > 1):
            return self._run_streamed(collection, block_size, n_workers, round_timeout)
        start_total = time.perf_counter()

        start = time.perf_counter()
        candidates = self._generator.generate(collection)
        generation_time = time.perf_counter() - start

        start = time.perf_counter()
        output = self._verifier.verify(candidates)
        verification_time = time.perf_counter() - start

        total_time = time.perf_counter() - start_total
        return self._result(
            output,
            dict(candidates.metadata),
            {
                "generation": generation_time,
                "verification": verification_time,
                "total": total_time,
            },
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

    def _result(self, output, candidate_metadata: dict, timings: dict, **metadata) -> SearchResult:
        """Package a verification output (either execution path) as a result."""
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
            metadata={
                "candidate_metadata": candidate_metadata,
                "hash_comparisons": output.hash_comparisons,
                "exact_computations": output.exact_computations,
                "n_exact": int(np.count_nonzero(output.exact_mask)),
                "n_unconcentrated": output.n_unconcentrated,
                "prune_trace": list(output.trace),
                **metadata,
            },
            exact_mask=output.exact_mask,
        )

    def _run_streamed(
        self,
        collection,
        block_size: int | None,
        n_workers: int | None,
        round_timeout: float | None = None,
    ) -> SearchResult:
        """Streamed/sharded execution path (bit-identical to the serial one)."""
        from repro.search.executor import StreamExecutor

        executor = StreamExecutor(
            block_size=block_size, n_workers=n_workers, round_timeout=round_timeout
        )
        candidate_metadata, output, timings = executor.run(
            self._generator, self._verifier, collection
        )
        return self._result(
            output,
            candidate_metadata,
            timings,
            execution={
                "mode": "streamed",
                "block_size": executor.block_size,
                "n_workers": executor.n_workers,
            },
        )

    def __repr__(self) -> str:
        return f"SearchEngine(name={self._name!r})"


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
        Streamed/sharded execution knobs, forwarded to :meth:`SearchEngine.run`
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
