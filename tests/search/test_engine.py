"""Unit tests for the search engine and the one-call entry point."""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.candidates.brute_force import BruteForceGenerator
from repro.candidates.lsh_index import LSHGenerator
from repro.candidates.ppjoin import PPJoinGenerator
from repro.datasets.synthetic import synthetic_text_corpus
from repro.search import engine as engine_module
from repro.search.engine import (
    DEFAULT_BLOCK_SIZE,
    SearchEngine,
    all_pairs_similarity,
    as_collection,
)
from repro.search.pipelines import make_pipeline
from repro.similarity.vectors import VectorCollection
from repro.testing import faults
from repro.verification.bayes import BayesLSHVerifier
from repro.verification.exact import ExactVerifier


class TestAsCollection:
    def test_dataset_passthrough(self, sparse_text_dataset):
        assert as_collection(sparse_text_dataset) is sparse_text_dataset.collection

    def test_collection_passthrough(self, tiny_collection):
        assert as_collection(tiny_collection) is tiny_collection

    def test_dense_array(self):
        collection = as_collection(np.ones((3, 4)))
        assert isinstance(collection, VectorCollection)
        assert collection.n_vectors == 3

    def test_sparse_matrix(self):
        matrix = sp.eye(5, format="csr")
        assert as_collection(matrix).n_vectors == 5

    def test_list_of_sets(self):
        collection = as_collection([{0, 1}, {2}])
        assert collection.is_binary
        assert collection.n_vectors == 2

    def test_list_of_dicts(self):
        collection = as_collection([{0: 1.5}, {1: 2.0}])
        assert collection.n_vectors == 2
        assert not collection.is_binary


class TestSearchEngine:
    def test_run_produces_timed_result(self, sparse_text_dataset):
        generator = LSHGenerator("cosine", 0.7, seed=1)
        verifier = ExactVerifier(sparse_text_dataset.collection, "cosine", 0.7)
        engine = SearchEngine(generator, verifier)
        result = engine.run(sparse_text_dataset)
        assert result.method == "lsh+exact"
        assert result.n_candidates > 0
        assert set(result.timings) == {"generation", "verification", "total"}
        assert result.timings["total"] >= result.timings["generation"]
        assert all(value > 0.7 for value in result.similarities)

    def test_measure_mismatch_rejected(self, sparse_text_dataset):
        generator = LSHGenerator("cosine", 0.7)
        verifier = ExactVerifier(sparse_text_dataset.collection, "jaccard", 0.7)
        with pytest.raises(ValueError, match="measure"):
            SearchEngine(generator, verifier)

    def test_threshold_mismatch_rejected(self, sparse_text_dataset):
        generator = LSHGenerator("cosine", 0.7)
        verifier = ExactVerifier(sparse_text_dataset.collection, "cosine", 0.8)
        with pytest.raises(ValueError, match="threshold"):
            SearchEngine(generator, verifier)

    def test_custom_name(self, sparse_text_dataset):
        generator = LSHGenerator("cosine", 0.7)
        verifier = ExactVerifier(sparse_text_dataset.collection, "cosine", 0.7)
        engine = SearchEngine(generator, verifier, name="my-pipeline")
        assert engine.name == "my-pipeline"

    def test_metadata_carries_prune_trace(self, sparse_text_dataset):
        result = all_pairs_similarity(
            sparse_text_dataset, 0.7, "cosine", method="lsh_bayeslsh", seed=1
        )
        assert "prune_trace" in result.metadata
        assert result.metadata["hash_comparisons"] > 0


def _text_corpus(seed):
    return synthetic_text_corpus(
        n_documents=200, vocabulary_size=600, average_length=30, seed=seed
    ).collection


class TestRunOnItsOwnCorpusOnly:
    """An engine answers for the corpus it was built over, or refuses."""

    CORPUS = _text_corpus(4)

    @staticmethod
    def _foreign(kind):
        own = TestRunOnItsOwnCorpusOnly.CORPUS.matrix
        if kind == "other":
            return VectorCollection(_text_corpus(5).matrix)
        if kind == "reversed":
            return VectorCollection(own[::-1])
        return VectorCollection(own[: own.shape[0] // 2])

    @pytest.mark.parametrize("pipeline, measure", [
        ("lsh_bayeslsh_lite", "jaccard"), ("ap_bayeslsh", "cosine"), ("lsh", "cosine"),
    ])
    @pytest.mark.parametrize("kind", ["other", "reversed", "subset"])
    @pytest.mark.parametrize("run_kwargs", [{}, {"block_size": 64}, {"n_workers": 2}])
    def test_a_different_corpus_is_refused(self, pipeline, measure, kind, run_kwargs):
        engine = make_pipeline(pipeline, self.CORPUS, measure=measure, threshold=0.5, seed=2)
        with pytest.raises(ValueError, match="built over a"):
            engine.run(self._foreign(kind), **run_kwargs)

    @pytest.mark.parametrize("pipeline, measure", [
        ("lsh_bayeslsh_lite", "jaccard"), ("ap_bayeslsh", "cosine"),
    ])
    def test_an_equal_content_copy_answers_as_the_original(self, pipeline, measure):
        expected = make_pipeline(
            pipeline, self.CORPUS, measure=measure, threshold=0.5, seed=2
        ).run(self.CORPUS)
        copy = VectorCollection(self.CORPUS.matrix.copy())
        got = make_pipeline(
            pipeline, self.CORPUS, measure=measure, threshold=0.5, seed=2
        ).run(copy)
        assert len(expected.left) > 0
        np.testing.assert_array_equal(got.left, expected.left)
        np.testing.assert_array_equal(got.right, expected.right)
        np.testing.assert_array_equal(got.similarities, expected.similarities)


class TestBlockSizeAndWorkers:
    """``block_size`` and ``n_workers`` of the one execution path."""

    @pytest.mark.parametrize("entry", ["run", "all_pairs_similarity"])
    def test_validates_parameters(self, entry, sparse_text_collection):
        def call(**kwargs):
            if entry == "run":
                engine = make_pipeline("allpairs", sparse_text_collection, threshold=0.7)
                return engine.run(sparse_text_collection, **kwargs)
            return all_pairs_similarity(sparse_text_collection, 0.7, method="allpairs", **kwargs)

        with pytest.raises(ValueError, match="block_size"):
            call(block_size=0)
        with pytest.raises(ValueError, match="n_workers"):
            call(n_workers=0)

    def test_execution_metadata(self, sparse_text_collection):
        engine = make_pipeline("lsh", sparse_text_collection, threshold=0.7, seed=1)
        assert "execution" not in engine.run(sparse_text_collection).metadata
        assert "execution" not in engine.run(sparse_text_collection, n_workers=1).metadata
        assert engine.run(sparse_text_collection, block_size=9).metadata["execution"] == {
            "mode": "streamed", "block_size": 9, "n_workers": 1,
        }
        pooled = engine.run(sparse_text_collection, n_workers=2)
        assert pooled.metadata["execution"] == {
            "mode": "streamed", "block_size": DEFAULT_BLOCK_SIZE, "n_workers": 2,
        }

    def test_lsh_approx_forks_no_worker(self, sparse_text_collection):
        """LSH Approx never scores a pair exactly, so ``n_workers`` forks nothing."""
        engine = make_pipeline("lsh_approx", sparse_text_collection, threshold=0.5, seed=3)
        serial = engine.run(sparse_text_collection)
        started = []
        with faults.inject() as plan:
            plan.on_event("pool_start", started.append)
            pooled = engine.run(sparse_text_collection, n_workers=2)
        assert started == []
        assert len(serial) > 0
        np.testing.assert_array_equal(pooled.left, serial.left)
        np.testing.assert_array_equal(pooled.right, serial.right)
        np.testing.assert_array_equal(pooled.similarities, serial.similarities)


class TestAllPairsSimilarity:
    def test_default_method_for_cosine(self, sparse_text_dataset):
        result = all_pairs_similarity(sparse_text_dataset, 0.8, "cosine", seed=1)
        assert result.method == "ap_bayeslsh"
        assert result.measure == "cosine"

    def test_default_method_for_jaccard(self, binary_sets_collection):
        result = all_pairs_similarity(binary_sets_collection, 0.5, "jaccard", seed=1)
        assert result.method == "lsh_bayeslsh"

    def test_accepts_raw_dense_data(self):
        rng = np.random.default_rng(0)
        base = np.abs(rng.random((1, 20)))
        data = np.vstack([base, base * 3.0, np.abs(rng.random((30, 20)))])
        result = all_pairs_similarity(data, 0.95, "cosine", method="allpairs")
        assert (0, 1) in result.pair_set()

    def test_pipeline_kwargs_forwarded(self, sparse_text_dataset):
        result = all_pairs_similarity(
            sparse_text_dataset, 0.7, "cosine", method="lsh_bayeslsh", seed=1, epsilon=0.01
        )
        assert len(result) >= 0  # smoke: kwargs accepted

    def test_dataset_wrapper_and_collection_agree(self, sparse_text_dataset):
        from_dataset = all_pairs_similarity(
            sparse_text_dataset, 0.8, "cosine", method="allpairs"
        )
        from_collection = all_pairs_similarity(
            sparse_text_dataset.collection, 0.8, "cosine", method="allpairs"
        )
        assert from_dataset.pair_set() == from_collection.pair_set()


# --------------------------------------------------------------------- #
# the first signature block is hashed on a helper thread during generation
# --------------------------------------------------------------------- #
class _HashingFailed(Exception):
    """Raised by a patched family on the helper thread only."""


def _started_threads(monkeypatch) -> list:
    """Record every thread started from now on (the test's own scope)."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def _no_hashing_ahead(monkeypatch):
    monkeypatch.setattr(engine_module, "_hash_first_block", lambda generator, verifier: lambda: None)


def _hashing_engines(sparse_text_collection, binary_sets_collection):
    """Every verifier that hashes with a family its generator does not share."""
    return {
        "ap_bayeslsh": lambda: make_pipeline(
            "ap_bayeslsh", sparse_text_collection, threshold=0.5, seed=3
        ),
        "ap_bayeslsh_lite": lambda: make_pipeline(
            "ap_bayeslsh_lite", sparse_text_collection, threshold=0.5, seed=3
        ),
        "ppjoin+bayeslsh": lambda: SearchEngine(
            PPJoinGenerator("jaccard", 0.5),
            BayesLSHVerifier(binary_sets_collection, "jaccard", 0.5, seed=3),
        ),
        "brute_force+bayeslsh": lambda: SearchEngine(
            BruteForceGenerator("cosine", 0.5),
            BayesLSHVerifier(sparse_text_collection, "cosine", 0.5, seed=3),
        ),
    }


def _state_arrays(state: dict) -> dict:
    return {key: np.asarray(value).tolist() for key, value in state.items()}


class TestHashingAhead:
    """The helper thread changes when the first block is hashed, nothing else."""

    @pytest.mark.parametrize(
        "name", ["ap_bayeslsh", "ap_bayeslsh_lite", "ppjoin+bayeslsh", "brute_force+bayeslsh"]
    )
    def test_results_and_hash_state_are_those_of_the_serial_run(
        self, name, monkeypatch, sparse_text_collection, binary_sets_collection
    ):
        build = _hashing_engines(sparse_text_collection, binary_sets_collection)[name]
        data = binary_sets_collection if name.startswith("ppjoin") else sparse_text_collection
        started = _started_threads(monkeypatch)
        ahead = build()
        got = ahead.run(data)
        assert len(started) == 1, "the first block was not hashed on a helper thread"
        _no_hashing_ahead(monkeypatch)
        serial = build()
        expected = serial.run(data)
        assert len(started) == 1
        assert expected.n_candidates > 0 and len(expected) > 0
        np.testing.assert_array_equal(got.left, expected.left)
        np.testing.assert_array_equal(got.right, expected.right)
        np.testing.assert_array_equal(got.similarities, expected.similarities)
        np.testing.assert_array_equal(got.exact_mask, expected.exact_mask)
        assert got.n_pruned == expected.n_pruned
        assert got.metadata["prune_trace"] == expected.metadata["prune_trace"]
        assert got.metadata["hash_comparisons"] == expected.metadata["hash_comparisons"]
        family, serial_family = ahead.verifier.family, serial.verifier.family
        assert family.n_hashes == serial_family.n_hashes
        assert _state_arrays(family.state_dict()) == _state_arrays(serial_family.state_dict())

    @pytest.mark.parametrize("pipeline", ["lsh_bayeslsh", "lsh_bayeslsh_lite", "lsh", "allpairs"])
    def test_shared_families_and_the_exact_verifier_start_no_thread(
        self, pipeline, monkeypatch, sparse_text_collection
    ):
        started = _started_threads(monkeypatch)
        engine = make_pipeline(pipeline, sparse_text_collection, threshold=0.5, seed=3)
        engine.run(sparse_text_collection)
        assert started == []

    def test_a_join_without_candidates_still_draws_the_first_block(self):
        collection = VectorCollection.from_dense(np.eye(6))
        engine = make_pipeline("ap_bayeslsh", collection, threshold=0.5, seed=3)
        result = engine.run(collection)
        assert result.n_candidates == 0
        assert engine.verifier.family.n_hashes == 256

    @pytest.mark.parametrize("fails", [None, "generator", "verifier"])
    def test_no_thread_outlives_the_run(self, fails, monkeypatch, sparse_text_collection):
        engine = make_pipeline("ap_bayeslsh", sparse_text_collection, threshold=0.5, seed=3)
        baseline = threading.active_count()
        if fails is not None:
            def fail(*args, **kwargs):
                raise RuntimeError(f"the {fails} failed")

            part = engine.generator if fails == "generator" else engine.verifier
            monkeypatch.setattr(part, "generate" if fails == "generator" else "verify", fail)
            with pytest.raises(RuntimeError, match=fails):
                engine.run(sparse_text_collection)
        else:
            engine.run(sparse_text_collection)
        assert threading.active_count() == baseline

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_failure_on_the_helper_reaches_the_caller(self, monkeypatch, sparse_text_collection):
        engine = make_pipeline("ap_bayeslsh", sparse_text_collection, threshold=0.5, seed=3)
        family = engine.verifier.family
        signatures = family.signatures

        def failing_on_the_helper(n_hashes):
            if threading.current_thread() is not threading.main_thread():
                raise _HashingFailed("hashing ahead failed")
            return signatures(n_hashes)

        monkeypatch.setattr(family, "signatures", failing_on_the_helper)
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        baseline = threading.active_count()
        with pytest.raises(_HashingFailed, match="hashing ahead failed"):
            engine.run(sparse_text_collection)
        assert unhandled == []
        assert threading.active_count() == baseline

    def test_no_helper_is_alive_when_the_pool_forks(self, monkeypatch, sparse_text_collection):
        started = _started_threads(monkeypatch)
        engine = make_pipeline("ap_bayeslsh", sparse_text_collection, threshold=0.5, seed=3)
        family = engine.verifier.family
        signatures = family.signatures

        def slow_on_the_helper(n_hashes):
            # keeps the helper alive well past the fork unless it is joined first
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.3)
            return signatures(n_hashes)

        monkeypatch.setattr(family, "signatures", slow_on_the_helper)
        alive_at_fork = []
        with faults.inject() as plan:
            plan.on_event(
                "pool_start",
                lambda info: alive_at_fork.append([t for t in started if t.is_alive()]),
            )
            pooled = engine.run(sparse_text_collection, n_workers=2)
        assert len(alive_at_fork) == 1, "the pool never forked"
        assert alive_at_fork == [[]]
        assert started, "the first block was not hashed on a helper thread"
        _no_hashing_ahead(monkeypatch)
        serial = make_pipeline(
            "ap_bayeslsh", sparse_text_collection, threshold=0.5, seed=3
        ).run(sparse_text_collection)
        np.testing.assert_array_equal(pooled.left, serial.left)
        np.testing.assert_array_equal(pooled.similarities, serial.similarities)
