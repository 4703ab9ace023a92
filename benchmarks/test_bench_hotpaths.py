"""Hot-path micro-benchmarks: signature generation, verification, candidates.

Unlike the figure/table benchmarks (which time whole experiments at reduced
scale), this module times the three inner loops that dominate every
experiment, so regressions in any one of them are visible in isolation:

* **signature generation** — hashing every vector of a corpus with the
  minwise and signed-random-projection families;
* **candidate verification** — ``BayesLSH.verify`` on 100k candidate pairs
  as Algorithm 1 (``on_budget="estimate"``), a workload dominated by prefix
  match counting, the pruning/concentration table lookups and the batched
  MAP estimates (each call builds its own decision tables, so the table
  build is timed too); the same pairs through the default hybrid
  (``BayesLSHVerifier.verify``: one hash block, then exact scores) and
  through ``BayesLSHLiteVerifier.verify``: prior fit, pruning rounds and the
  exact scoring of the survivors;
* **the round engine alone** — ``replay_rounds`` over ~600k pairs whose
  agreement counts are already in hand, pruned at ``ap_text``'s rate;
* **the two cost constants behind the hybrid's hash budget** — hashing and
  comparing one more hash for a pair, and scoring a pair exactly
  (``PosteriorModel.exact_budget``, ``docs/reproduction.md``);
* **candidate generation** — the LSH banding index, AllPairs and PPJoin on
  the synthetic corpus, and AllPairs on a community graph with hub rows;
* **a whole AllPairs + BayesLSH join**, whose first hash block is computed
  while AllPairs generates;
* **the serving band probe** — ``BandPostings.probe_many`` for one and for
  64 query rows over an index grown to 30 segments.

The verification workload deliberately mixes same-cluster (high-similarity)
pairs with random pairs: random pairs are pruned in the first round, so a
purely random candidate set would only measure match counting, while the
same-cluster pairs survive many rounds and exercise the concentration test
and estimation paths the way real LSH candidates do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.base import CandidateSet
from repro.candidates.lsh_index import LSHGenerator
from repro.candidates.ppjoin import PPJoinGenerator
from repro.core.bayeslsh import BayesLSH
from repro.core.params import BayesLSHParams
from repro.core.posteriors import BetaPosterior, TruncatedCollisionPosterior, make_posterior
from repro.core.rounds import RoundTables, replay_rounds
from repro.datasets.synthetic import synthetic_graph, synthetic_text_corpus
from repro.hashing.minhash import MinHashFamily
from repro.hashing.signatures import IntSignatures
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import get_measure
from repro.similarity.transforms import tfidf_weighting
from repro.verification.base import exact_similarities_for_pairs
from repro.verification.bayes import BayesLSHLiteVerifier, BayesLSHVerifier

#: corpus scale for the hot-path workloads
_N_DOCUMENTS = 2000
_CLUSTER_SIZE = 4
_N_PAIRS = 100_000
#: hash budget for the verification benchmarks (kept below the paper's 2048
#: so the one-off signature pre-computation stays cheap)
_MAX_HASHES = 512


@pytest.fixture(scope="module")
def hotpath_corpus():
    """A corpus with a large planted-duplicate portion (many verifiable pairs)."""
    return synthetic_text_corpus(
        n_documents=_N_DOCUMENTS,
        vocabulary_size=4000,
        average_length=40,
        duplicate_fraction=0.6,
        cluster_size=_CLUSTER_SIZE,
        mutation_rate=0.1,
        seed=97,
    )


@pytest.fixture(scope="module")
def binary_collection(hotpath_corpus):
    return hotpath_corpus.collection.binarized()


@pytest.fixture(scope="module")
def tfidf_collection(hotpath_corpus):
    return tfidf_weighting(hotpath_corpus.collection)


@pytest.fixture(scope="module")
def candidate_pairs(binary_collection):
    """100k candidate pairs: 60% drawn within duplicate clusters, 40% random.

    Cluster members occupy the leading rows of the synthetic corpus in runs
    of ``_CLUSTER_SIZE``, which is how the same-cluster pairs are drawn.
    """
    rng = np.random.default_rng(5)
    n = binary_collection.n_vectors
    n_cluster_pairs = int(0.6 * _N_PAIRS)
    n_clustered_docs = (n // 2) // _CLUSTER_SIZE * _CLUSTER_SIZE
    base = rng.integers(0, n_clustered_docs, size=n_cluster_pairs)
    offset = rng.integers(1, _CLUSTER_SIZE, size=n_cluster_pairs)
    left_c = base
    right_c = (base // _CLUSTER_SIZE) * _CLUSTER_SIZE + (
        (base % _CLUSTER_SIZE + offset) % _CLUSTER_SIZE
    )
    n_random = _N_PAIRS - n_cluster_pairs
    left_r = rng.integers(0, n, size=n_random)
    right_r = rng.integers(0, n, size=n_random)
    left = np.concatenate([left_c, left_r])
    right = np.concatenate([right_c, right_r])
    keep = left != right
    return left[keep], right[keep]


def test_bench_minhash_signature_generation(benchmark, binary_collection):
    """Incrementally hash the corpus up to 512 minwise hashes.

    Signatures are grown lazily in batches, exactly the way the BayesLSH
    verifier consumes them ("each point is hashed only as many times as
    necessary") — the pattern every figure benchmark exercises.
    """

    def run():
        family = MinHashFamily(binary_collection, seed=3)
        for n_hashes in range(64, _MAX_HASHES + 1, 64):
            store = family.signatures(n_hashes)
        return store

    store = benchmark.pedantic(run, rounds=3, iterations=1)
    assert store.n_hashes >= _MAX_HASHES
    assert store.n_vectors == binary_collection.n_vectors


def test_bench_simhash_signature_generation(benchmark, tfidf_collection):
    """Hash the whole corpus with 2048 projection bits (the paper's cosine budget)."""

    def run():
        return SimHashFamily(tfidf_collection, seed=3).signatures(2048)

    store = benchmark.pedantic(run, rounds=3, iterations=1)
    assert store.n_hashes >= 2048


def test_bench_bayeslsh_verify_jaccard(benchmark, binary_collection, candidate_pairs):
    """BayesLSH.verify on ~100k mixed candidate pairs (Jaccard / minhash)."""
    left, right = candidate_pairs
    family = MinHashFamily(binary_collection, seed=11)
    family.signatures(_MAX_HASHES)  # pre-hash so only verification is timed
    params = BayesLSHParams(
        threshold=0.3, epsilon=0.03, delta=0.05, gamma=0.03, k=32, max_hashes=_MAX_HASHES,
        on_budget="estimate",
    )

    def run():
        return BayesLSH(family, BetaPosterior(), params).verify(left, right)

    output = benchmark.pedantic(run, rounds=3, iterations=1)
    assert output.n_candidates == len(left)
    assert 0 < output.n_output < len(left)


def test_bench_bayeslsh_verify_cosine(benchmark, tfidf_collection, candidate_pairs):
    """BayesLSH.verify on ~100k mixed candidate pairs (cosine / simhash)."""
    left, right = candidate_pairs
    family = SimHashFamily(tfidf_collection, seed=11)
    family.signatures(_MAX_HASHES)
    params = BayesLSHParams(
        threshold=0.5, epsilon=0.03, delta=0.05, gamma=0.03, k=32, max_hashes=_MAX_HASHES,
        on_budget="estimate",
    )

    def run():
        return BayesLSH(family, TruncatedCollisionPosterior(), params).verify(left, right)

    output = benchmark.pedantic(run, rounds=3, iterations=1)
    assert output.n_candidates == len(left)
    assert 0 < output.n_output < len(left)


def test_bench_bayeslsh_lite_verify_jaccard(benchmark, binary_collection, candidate_pairs):
    """BayesLSHLiteVerifier.verify on ~100k mixed candidate pairs (Jaccard / minhash).

    Everything Lite does besides hashing: the Beta prior fitted to a
    1,000-pair sample, the decision-table build, two pruning rounds and the
    exact similarities of the pairs that survive them.
    """
    left, right = candidate_pairs
    candidates = CandidateSet(left=left, right=right)
    family = MinHashFamily(binary_collection, seed=11)
    family.signatures(64)  # pre-hash to Lite's Jaccard budget
    verifier = BayesLSHLiteVerifier(binary_collection, "jaccard", 0.3, family=family, seed=11)

    output = benchmark.pedantic(lambda: verifier.verify(candidates), rounds=3, iterations=1)
    assert output.n_candidates == len(left)
    assert 0 < output.n_output <= output.exact_computations < len(left)


def test_bench_hybrid_verify_cosine(benchmark, tfidf_collection, candidate_pairs):
    """BayesLSHVerifier.verify, the default hybrid, on the same pairs (cosine / simhash).

    Eight rounds over one pre-hashed 256-bit block, then the batched exact
    kernel on the pairs still undecided — the verification half of a default
    ``ap_bayeslsh`` join.
    """
    left, right = candidate_pairs
    candidates = CandidateSet(left=left, right=right)
    family = SimHashFamily(tfidf_collection, seed=11)
    family.signatures(256)
    verifier = BayesLSHVerifier(tfidf_collection, "cosine", 0.5, family=family, seed=11)

    output = benchmark.pedantic(lambda: verifier.verify(candidates), rounds=3, iterations=1)
    assert output.n_candidates == len(left)
    assert 0 < output.n_output <= output.exact_computations < len(left)
    assert output.trace[-1][0] == 256


def test_bench_cost_hash_and_compare_block(benchmark, tfidf_collection, candidate_pairs):
    """Cost constant 1: one more simhash block for every row, compared for 100k pairs.

    What it costs a join to look 256 hashes deeper: 2,000 rows x 256
    projections plus eight 32-bit comparison rounds over every pair (no
    pruning).  Per pair per hash = this / (pairs x 256).
    """
    left, right = candidate_pairs

    def run():
        store = SimHashFamily(tfidf_collection, seed=11).signatures(256)
        return sum(
            int(store.count_matches_rounds(left, right, start, start + 32, 32).sum())
            for start in range(0, 256, 32)
        )

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0


def test_bench_cost_exact_score(benchmark, tfidf_collection, candidate_pairs):
    """Cost constant 2: the batched exact cosine kernel on 100k pairs."""
    left, right = candidate_pairs
    measure = get_measure("cosine")
    prepared = measure.prepare(tfidf_collection)
    values = benchmark.pedantic(
        lambda: exact_similarities_for_pairs(prepared, measure, left, right),
        rounds=3,
        iterations=1,
    )
    assert len(values) == len(left)


@pytest.fixture(scope="module")
def minhash_store(binary_collection):
    """A 512-hash integer signature store over the corpus (for kernel benches)."""
    family = MinHashFamily(binary_collection, seed=19)
    return family.signatures(_MAX_HASHES)


def _kernel_pairs(n_vectors: int, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(23)
    return (
        rng.integers(0, n_vectors, size=n_pairs),
        rng.integers(0, n_vectors, size=n_pairs),
    )


def test_bench_superblock_rounds_small(benchmark, minhash_store):
    """Tiled super-block gather, small active set (one tile == former wide path).

    Guards the 'no slower at small active sets' half of the tiling
    crossover: 500 pairs x 4 rounds of 32 integer hashes.
    """
    left, right = _kernel_pairs(minhash_store.n_vectors, 500)
    counts = benchmark(minhash_store.count_matches_rounds, left, right, 64, 192, 32)
    assert counts.shape == (500, 4)


def test_bench_superblock_rounds_large(benchmark, minhash_store):
    """Tiled super-block gather, large active set (200k pairs x 4 rounds).

    The regime the former wide gather lost (scratch fell out of cache —
    ROADMAP); the L2-sized pair tiles are what make super-blocking win here.
    """
    left, right = _kernel_pairs(minhash_store.n_vectors, 200_000)
    counts = benchmark(minhash_store.count_matches_rounds, left, right, 64, 192, 32)
    assert counts.shape == (200_000, 4)


def test_bench_cross_count_large(benchmark, minhash_store):
    """Cross-store agreement counts at a large active set.

    The call serving makes once a query batch's active set is large: one
    32-hash round on 200k (collection row, query row) pairs, the query rows
    living in a second store of the same family (``other=``).
    """
    queries = IntSignatures.from_values(minhash_store.values[:64])
    rows, _ = _kernel_pairs(minhash_store.n_vectors, 200_000)
    _, query_rows = _kernel_pairs(queries.n_vectors, 200_000)
    counts = benchmark(
        minhash_store.count_matches_rounds, rows, query_rows, 64, 96, 32, queries
    )
    assert counts.shape == (200_000, 1)


@pytest.fixture(scope="module")
def recorded_round_blocks():
    """Every count block ``BayesLSH.verify`` would hand the engine on ~600k pairs.

    The pairs' collision rates make the first rounds prune like ``ap_text``'s
    AllPairs candidates (cosine, t = 0.7, k = 32): ~31% survive round 1,
    ~11% round 2 and ~0.6% reach the 256-hash budget.  Blocks are one round
    wide for the first two rounds and up to four after, as ``verify`` cuts
    them; they are recorded once, so the benchmark times no counting.
    """
    n_pairs, k, n_rounds = 618_000, 32, 8
    rng = np.random.default_rng(34)
    rates = 0.5 + 0.18 * rng.beta(1.0, 2.0, n_pairs)
    near_duplicates = rng.random(n_pairs) < 0.003
    rates[near_duplicates] = rng.uniform(0.85, 1.0, int(near_duplicates.sum()))
    counts = rng.binomial(k, rates[:, None], size=(n_pairs, n_rounds))
    tables = RoundTables(make_posterior("cosine"), BayesLSHParams(threshold=0.7, k=k))
    blocks = []

    def record(active, n_prev, remaining):
        first = n_prev // k
        width = 1 if first < 2 else min(4, remaining)
        blocks.append(counts[active, first : first + width])
        return blocks[-1]

    trace = replay_rounds(tables, n_pairs, record).trace
    return tables, n_pairs, blocks, trace


def test_bench_replay_rounds_large(benchmark, recorded_round_blocks):
    """The round engine's own work on an ``ap_text``-sized candidate set.

    ``replay_rounds`` over pre-recorded count blocks: the per-round
    bookkeeping, pruning and concentration tests and the decision writes,
    without the signature gathers that produce the counts.
    """
    tables, n_pairs, blocks, trace = recorded_round_blocks

    def run():
        replay = iter(blocks)
        return replay_rounds(tables, n_pairs, lambda *_: next(replay))

    state = benchmark(run)
    assert state.trace == trace
    assert 0.25 < trace[0][1] / n_pairs < 0.4 and trace[-1][0] == tables.budget


def test_bench_lsh_candidate_generation(benchmark, binary_collection):
    """LSH banding index over the corpus (Jaccard, threshold 0.5)."""

    def run():
        return LSHGenerator("jaccard", threshold=0.5, seed=3).generate(binary_collection)

    candidates = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(candidates) > 0


def test_bench_allpairs_candidate_generation(benchmark, tfidf_collection):
    """AllPairs inverted-index candidate generation (cosine, threshold 0.7)."""

    def run():
        return AllPairsGenerator("cosine", threshold=0.7).generate(tfidf_collection)

    candidates = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(candidates) > 0


def test_bench_allpairs_candidate_generation_graph(benchmark):
    """AllPairs on a 4,000-node community graph (cosine, threshold 0.5).

    The graph's heavy-tailed degrees give hub rows tens of times the mean
    row length, which the text corpus above does not have; its pair keys
    are sparse in their range where the text corpus's are dense.
    """
    collection = synthetic_graph(
        n_nodes=4000, average_degree=20, n_communities=200, seed=3
    ).collection

    def run():
        return AllPairsGenerator("cosine", threshold=0.5).generate(collection)

    candidates = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(candidates) > 0


def test_bench_allpairs_hybrid_join(benchmark, tfidf_collection):
    """A whole default ``ap_bayeslsh`` join (cosine, threshold 0.7), pipeline built each round.

    The verifier's first simhash block is hashed on a helper thread while
    AllPairs generates, so this tracks the overlap of the two phases as
    well as their sum: losing the overlap costs about the hashing's share.
    """
    from repro.search.pipelines import make_pipeline

    def run():
        engine = make_pipeline("ap_bayeslsh", tfidf_collection, threshold=0.7, seed=3)
        return engine.run(tfidf_collection)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_candidates > len(result) > 0


def test_bench_ppjoin_candidate_generation(benchmark, binary_collection):
    """PPJoin prefix-filter candidate generation (Jaccard, threshold 0.6)."""

    def run():
        return PPJoinGenerator("jaccard", threshold=0.6).generate(binary_collection)

    candidates = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(candidates) > 0


def test_bench_streamed_end_to_end(benchmark, binary_collection):
    """Full streamed pipeline (lsh_bayeslsh, Jaccard) on one in-process worker.

    Tracks the overhead of block streaming + incremental deduplication over
    the monolithic path; the outputs are bit-identical, so any large gap here
    is pure executor overhead.
    """
    from repro.search.engine import all_pairs_similarity

    def run():
        return all_pairs_similarity(
            binary_collection, threshold=0.5, measure="jaccard", seed=3, block_size=65536
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_candidates > 0


# --------------------------------------------------------------------- #
# a served read, in process: what the daemon's executor pays per request
# --------------------------------------------------------------------- #
_SERVE_DOCUMENTS = 3000
_SERVE_QUERIES = 100


@pytest.fixture(scope="module")
def serve_index_and_queries():
    """A warmed 3,000-document cosine index and held-out one-row queries."""
    from repro.search.query import QueryIndex

    corpus = synthetic_text_corpus(
        n_documents=_SERVE_DOCUMENTS + _SERVE_QUERIES,
        vocabulary_size=5000,
        average_length=60,
        duplicate_fraction=0.5,
        cluster_size=_CLUSTER_SIZE,
        mutation_rate=0.1,
        seed=41,
    )
    matrix = tfidf_weighting(corpus.collection).matrix
    # one member of each of the first clusters: its neighbours stay indexed
    labels = corpus.metadata["cluster_labels"]
    _, first_members = np.unique(labels[labels >= 0], return_index=True)
    held_out = np.flatnonzero(labels >= 0)[first_members[:_SERVE_QUERIES]]
    indexed = np.setdiff1d(np.arange(matrix.shape[0]), held_out)
    index = QueryIndex(matrix[indexed], measure="cosine", threshold=0.7, seed=11)
    queries = [matrix[row] for row in held_out]
    for row in queries[:20]:  # tables, postings and the deep stores exist
        index.query(row)
        index.top_k(row, k=10, rank_by="estimate")
    return index, queries


def test_bench_serve_one_row_query(benchmark, serve_index_and_queries):
    """100 one-row hybrid ``query`` calls: prepare, hash, probe, rounds, exact."""
    index, queries = serve_index_and_queries

    def run():
        return sum(len(index.query(row)) for row in queries)

    assert benchmark.pedantic(run, rounds=10, iterations=1) > 0


def test_bench_serve_one_row_top_k_estimate(benchmark, serve_index_and_queries):
    """100 one-row ``top_k(rank_by="estimate")`` calls: Algorithm 1's rounds, no exact."""
    index, queries = serve_index_and_queries

    def run():
        return sum(len(index.top_k(row, k=10, rank_by="estimate")) for row in queries)

    assert benchmark.pedantic(run, rounds=10, iterations=1) > 0


# --------------------------------------------------------------------- #
# the serving band probe over a many-segment index
# --------------------------------------------------------------------- #
_PROBE_SEGMENTS = 30
_PROBE_INSERT = 32


@pytest.fixture(scope="module")
def probe_index_and_queries():
    """A 3,000-document cosine index grown to 30 segments by 32-row inserts,
    and 64 held-out queries hashed as ``query_many`` hashes them."""
    from repro.search.query import QueryIndex

    corpus = synthetic_text_corpus(
        n_documents=_SERVE_DOCUMENTS + 64,
        vocabulary_size=5000,
        average_length=60,
        duplicate_fraction=0.5,
        cluster_size=_CLUSTER_SIZE,
        mutation_rate=0.1,
        seed=41,
    )
    matrix = tfidf_weighting(corpus.collection).matrix
    first = _SERVE_DOCUMENTS - (_PROBE_SEGMENTS - 1) * _PROBE_INSERT
    index = QueryIndex(matrix[:first], measure="cosine", threshold=0.7, seed=11)
    for start in range(first, _SERVE_DOCUMENTS, _PROBE_INSERT):
        index.insert(matrix[start : start + _PROBE_INSERT])
    assert index.n_segments == _PROBE_SEGMENTS
    query_rows, _, query_store = index._hash_queries(
        index._queries_collection(matrix[_SERVE_DOCUMENTS:])
    )
    return index, query_store, query_rows


@pytest.mark.parametrize("n_queries", [1, 64])
def test_bench_band_probe(benchmark, probe_index_and_queries, n_queries):
    """``BandPostings.probe_many`` for one and for 64 query rows: every run
    searched once for all bands' keys (30 segments, O(log) runs)."""
    index, query_store, query_rows = probe_index_and_queries
    rows = query_rows[:n_queries]

    def run():
        return index._postings.probe_many(query_store, rows, index._segments)

    positions, members = benchmark.pedantic(run, rounds=60, iterations=5)
    assert len(members) >= n_queries
