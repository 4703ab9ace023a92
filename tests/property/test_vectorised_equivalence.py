"""Equivalence of the batched kernels and their scalar references.

The vectorisation contract: every batched hot-path kernel must be
*bit-identical* to the retained scalar formulation in :mod:`tests.reference`
— same seeds give same signatures, same prune/emit decisions, same candidate
pairs and the same bookkeeping counters.  These tests check that contract on
randomised inputs (random collections, random match counts, random
thresholds) so a future "optimisation" that changes results gets caught.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.candidates import arrayops
from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.arrayops import pairs_within_groups, ragged_arange
from repro.candidates.lsh_index import LSHGenerator
from repro.candidates.ppjoin import PPJoinGenerator
from repro.core.concentration_cache import ConcentrationCache
from repro.core.posteriors import (
    BetaPosterior,
    GridCollisionPosterior,
    TruncatedCollisionPosterior,
)
from repro.candidates.base import CandidateSet
from repro.core.priors import BetaPrior
from repro.hashing.base import get_hash_family
from repro.hashing.minhash import MinHashFamily
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection
from repro.verification.base import exact_similarities_for_pairs
from repro.verification.bayes import BayesLSHLiteVerifier, BayesLSHVerifier

from tests import reference

_SETTINGS = settings(max_examples=15, deadline=None)

_POSTERIORS = [
    BetaPosterior(),
    BetaPosterior(BetaPrior(2.5, 7.0)),
    TruncatedCollisionPosterior(),
]


def _random_sets_collection(seed: int, n_rows: int = 40, universe: int = 60):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n_rows):
        size = int(rng.integers(0, 16))
        sets.append(set(rng.choice(universe, size=min(size, universe), replace=False).tolist()))
    return VectorCollection.from_sets(sets, n_features=universe)


def _random_weighted_collection(seed: int, n_rows: int = 35, n_features: int = 200):
    """Random non-negative rows of varying density, plus the shapes AllPairs depends on.

    From six rows on, one row is a hub holding every feature (over 10x the
    mean row length), two rows hold a single feature, one is empty, and two
    are binary rows of one length on different supports.  The single-entry
    rows and the binary rows tie on their normalised maximum weight, which
    exercises the stable processing order.  Rows are then shuffled.
    """
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.01, 0.1, size=(n_rows, 1))
    dense = rng.random((n_rows, n_features)) * (rng.random((n_rows, n_features)) < density)
    if n_rows >= 6:
        dense[0] = rng.random(n_features) + 0.05
        dense[1:6] = 0.0
        dense[1, rng.integers(n_features)] = rng.random() + 0.05
        dense[2, rng.integers(n_features)] = rng.random() + 0.05
        length = int(rng.integers(2, 12))
        for row in (4, 5):
            dense[row, rng.choice(n_features, size=length, replace=False)] = 1.0
        dense = dense[rng.permutation(n_rows)]
    return VectorCollection.from_dense(dense)


def _reference_prefix_bounds(collection: VectorCollection) -> list[float]:
    """Every running bound ``b`` the sequential AllPairs reference accumulates.

    The same float operations in the same order as
    :func:`tests.reference.allpairs_candidates_reference`, so a threshold
    taken from this list lands the reference's ``b >= t`` exactly on
    equality.
    """
    prepared = get_measure("cosine").prepare(collection).normalized()
    matrix = prepared.matrix
    feature_counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
    feature_rank = np.empty(prepared.n_features, dtype=np.int64)
    feature_rank[np.argsort(-feature_counts, kind="stable")] = np.arange(prepared.n_features)
    max_weight_dim = np.zeros(prepared.n_features, dtype=np.float64)
    coo = matrix.tocoo()
    np.maximum.at(max_weight_dim, coo.col, coo.data)
    bounds = []
    for x in range(prepared.n_vectors):
        features, weights = prepared.row_features(x), prepared.row_values(x)
        order = np.argsort(feature_rank[features], kind="stable")
        x_max_weight = float(prepared.max_weights[x])
        bound = 0.0
        for feature, weight in zip(features[order], weights[order]):
            bound += float(weight) * min(float(max_weight_dim[feature]), x_max_weight)
            bounds.append(bound)
    return bounds


class TestSignatureEquivalence:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_minhash_matches_scalar_reference(self, seed):
        collection = _random_sets_collection(seed)
        family = MinHashFamily(collection, seed=seed % 257)
        store = family.signatures(96)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_minhash_incremental_growth_matches_reference(self, seed):
        collection = _random_sets_collection(seed)
        family = MinHashFamily(collection, seed=3)
        family.signatures(64)
        store = family.signatures(192)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    @pytest.mark.parametrize("n_hashes", [320, 512])
    def test_minhash_one_shot_across_tile_widths(self, n_hashes):
        collection = _random_sets_collection(17, n_rows=60, universe=900)
        family = MinHashFamily(collection, seed=4)
        store = family.signatures(n_hashes)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    @pytest.mark.parametrize("block_size", [7, 48])
    def test_minhash_non_default_block_sizes(self, block_size):
        collection = _random_sets_collection(23)
        family = MinHashFamily(collection, seed=6, block_size=block_size)
        for n_hashes in (5, 50, 130):
            family.signatures(n_hashes)
        store = family.signatures(0)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    def test_minhash_growth_64_to_320(self):
        collection = _random_sets_collection(29)
        family = MinHashFamily(collection, seed=8)
        family.signatures(64)
        store = family.signatures(320)
        expected = reference.minhash_signatures_reference(family, store.n_hashes)
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)

    def test_minhash_extreme_coefficients_and_features(self):
        """``a``, ``b`` near ``p - 1`` on features near ``2**31 - 2``: the
        one-fold reduction's conditional subtraction, against Python ints."""
        prime = (1 << 31) - 1
        top = 2**31 - 2
        sets = [
            {top, top - 1, top - 5},
            {top},
            {top - 2, top - 3, top - 64},
            set(),
            {top - 7, top - 9, top},
        ]
        collection = VectorCollection.from_sets(sets, n_features=2**31 - 1)
        coef_a = np.array([prime - 1, prime - 2, prime - 3, 1, prime - 1, 2**30, prime - 7, 3])
        coef_b = np.array([prime - 1, prime - 1, 0, prime - 1, prime - 2, prime - 1, 5, prime - 1])
        family = MinHashFamily(collection, seed=0, block_size=len(coef_a))
        family.restore_state(
            {"coef_a": coef_a, "coef_b": coef_b, "rng_state": family.state_dict()["rng_state"]}
        )
        # The case is adversarial: some folded value lands in [p, 2p).
        folded = [
            ((a * f + b) & prime) + ((a * f + b) >> 31)
            for f in set().union(*sets)
            for a, b in zip(coef_a.tolist(), coef_b.tolist())
        ]
        assert max(folded) >= prime
        store = family.signatures(len(coef_a))
        expected = [
            [
                min((a * f + b) % prime for f in features) if features else -(row + 1)
                for a, b in zip(coef_a.tolist(), coef_b.tolist())
            ]
            for row, features in enumerate(sets)
        ]
        np.testing.assert_array_equal(np.asarray(store.values, dtype=np.int64), expected)
        np.testing.assert_array_equal(
            np.asarray(store.values, dtype=np.int64),
            reference.minhash_signatures_reference(family, len(coef_a)),
        )

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_simhash_matches_scalar_reference(self, seed):
        collection = _random_weighted_collection(seed)
        family = SimHashFamily(collection, seed=seed % 101)
        store = family.signatures(64)
        expected = reference.simhash_bits_reference(family, 64)
        for row in range(collection.n_vectors):
            np.testing.assert_array_equal(store.get_bits(row, 0, 64), expected[row])


class TestPosteriorBatchEquivalence:
    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=512),
        st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    )
    def test_prob_above_threshold_many(self, seed, n, threshold):
        rng = np.random.default_rng(seed)
        matches = rng.integers(0, n + 1, size=24)
        for posterior in _POSTERIORS:
            batched = posterior.prob_above_threshold_many(matches, n, threshold)
            expected = reference.prob_above_threshold_reference(posterior, matches, n, threshold)
            np.testing.assert_array_equal(batched, expected)

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=512))
    def test_map_estimate_many(self, seed, n_max):
        rng = np.random.default_rng(seed)
        hashes = rng.integers(0, n_max + 1, size=24)
        matches = (hashes * rng.random(24)).astype(np.int64)
        for posterior in _POSTERIORS:
            batched = posterior.map_estimate_many(matches, hashes)
            expected = reference.map_estimates_reference(posterior, matches, hashes)
            np.testing.assert_array_equal(batched, expected)

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=512),
        st.sampled_from([(0.05, 0.03), (0.01, 0.05), (0.10, 0.02)]),
    )
    def test_concentration_decisions_match_scalar(self, seed, n, accuracy):
        delta, gamma = accuracy
        rng = np.random.default_rng(seed)
        matches = rng.integers(0, n + 1, size=24)
        for posterior in _POSTERIORS:
            cache = ConcentrationCache(posterior, delta=delta, gamma=gamma)
            batched = cache.is_concentrated_many(matches, n)
            expected = reference.concentration_decisions_reference(
                posterior, matches, n, delta, gamma
            )
            np.testing.assert_array_equal(batched, expected)

    def test_grid_posterior_uses_scalar_fallback(self):
        posterior = GridCollisionPosterior(lambda r: np.ones_like(r))
        matches = np.array([10, 20, 30])
        batched = posterior.map_estimate_many(matches, np.full(3, 32))
        expected = reference.map_estimates_reference(posterior, matches, np.full(3, 32))
        np.testing.assert_array_equal(batched, expected)


class TestCandidateGeneratorEquivalence:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.5, 0.7]))
    def test_lsh_matches_bucket_reference(self, seed, threshold):
        collection = _random_sets_collection(seed)
        generator = LSHGenerator("jaccard", threshold, seed=7)
        candidates = generator.generate(collection)
        store = generator.family.signatures(0)
        rows = np.flatnonzero(collection.row_nnz > 0)
        expected_pairs, expected_collisions = reference.lsh_candidates_reference(
            store, rows, candidates.metadata["n_signatures"], generator.signature_width
        )
        assert candidates.as_set() == expected_pairs
        assert candidates.metadata["n_raw_collisions"] == expected_collisions

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.4, 0.6, 0.8]),
        st.integers(min_value=0, max_value=40),
    )
    @example(seed=0, threshold=0.6, n_rows=0)
    @example(seed=0, threshold=0.6, n_rows=1)
    def test_allpairs_matches_sequential_reference(self, seed, threshold, n_rows):
        collection = _random_weighted_collection(seed, n_rows=n_rows)
        thresholds = [threshold]
        bounds = [bound for bound in _reference_prefix_bounds(collection) if 0.0 < bound < 1.0]
        if bounds:  # plus one threshold the reference's running bound reaches exactly
            thresholds.append(bounds[np.random.default_rng(seed).integers(len(bounds))])
        for t in thresholds:
            generator = AllPairsGenerator("cosine", t)
            candidates = generator.generate(collection)
            expected_pairs, expected_meta = reference.allpairs_candidates_reference(
                collection, "cosine", t
            )
            assert list(zip(candidates.left.tolist(), candidates.right.tolist())) == sorted(
                expected_pairs
            )
            assert candidates.metadata == {"generator": "allpairs", **expected_meta}
            # The hit budget's floor, 4,096 hits, is more than these
            # collections gather, so a budget of a few hits is what splits the
            # probe into many batches.
            with pytest.MonkeyPatch.context() as patch:
                streams = [generator.generate_blocks(collection, 3)]
                patch.setattr(arrayops, "_HIT_BATCH", 5)
                patch.setattr(arrayops, "_HIT_BATCH_FLOOR", 5)
                streams.append(generator.generate_blocks(collection, 3))
                for stream in streams:
                    streamed = CandidateSet.from_stream(stream)
                    np.testing.assert_array_equal(streamed.left, candidates.left)
                    np.testing.assert_array_equal(streamed.right, candidates.right)
                    assert streamed.metadata == candidates.metadata

    def test_the_weighted_collection_has_the_intended_shapes(self):
        """Guard: a 10x hub, single-entry and empty rows, tied maximum weights."""
        collection = _random_weighted_collection(3)
        prepared = get_measure("cosine").prepare(collection).normalized()
        lengths = prepared.row_nnz
        assert lengths.max() >= 10 * lengths.mean()
        assert (lengths == 1).sum() >= 2 and (lengths == 0).sum() >= 1
        max_weights = prepared.max_weights[lengths > 0]
        assert len(np.unique(max_weights)) < len(max_weights)

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["jaccard", "binary_cosine"]),
        st.sampled_from([0.4, 0.6]),
        st.booleans(),
        st.booleans(),
    )
    def test_ppjoin_matches_sequential_reference(
        self, seed, measure, threshold, positional, suffix
    ):
        collection = _random_sets_collection(seed)
        candidates = PPJoinGenerator(
            measure,
            threshold,
            use_positional_filter=positional,
            use_suffix_filter=suffix,
        ).generate(collection)
        expected_pairs, expected_meta = reference.ppjoin_candidates_reference(
            collection,
            measure,
            threshold,
            use_positional_filter=positional,
            use_suffix_filter=suffix,
        )
        assert candidates.as_set() == expected_pairs
        for key, value in expected_meta.items():
            assert candidates.metadata[key] == value, key


def _pair_kernel_collection(seed: int, n_rows: int = 12, n_features: int = 48):
    """Random weighted rows plus the shapes the pair kernel must not trip on.

    Row 0 is empty, rows 1 and 2 are identical, rows 3 and 4 have disjoint
    supports, and rows 5 and 6 are fully dense — a 48-term intersection with
    each other, well past the 8 terms at which NumPy's pairwise summation
    starts to block, which is where two summation orders part ways.
    """
    rng = np.random.default_rng(seed)
    density = rng.choice([0.1, 0.4, 0.8])
    dense = rng.random((n_rows, n_features)) * (rng.random((n_rows, n_features)) < density)
    dense[0] = 0.0
    dense[2] = dense[1]
    dense[3, ::2] = 0.0
    dense[4, 1::2] = 0.0
    dense[5:7] = rng.random((2, n_features)) + 0.1
    return VectorCollection.from_dense(dense)


class TestExactSimilarityEquivalence:
    """One definition of an exact similarity: ``measure.exact`` == the pair kernel."""

    @_SETTINGS
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["cosine", "jaccard", "binary_cosine"]),
    )
    def test_scalar_equals_batched_bit_for_bit(self, seed, name):
        measure = get_measure(name)
        prepared = measure.prepare(_pair_kernel_collection(seed))
        n = prepared.n_vectors
        lefts, rights = (axis.ravel() for axis in np.indices((n, n)))  # incl. i == j
        batched = exact_similarities_for_pairs(prepared, measure, lefts, rights)
        chunked = exact_similarities_for_pairs(prepared, measure, lefts, rights, chunk_size=7)
        scalar = [measure.exact(prepared, int(i), int(j)) for i, j in zip(lefts, rights)]
        assert batched.tolist() == scalar  # inside a larger batch
        assert chunked.tolist() == scalar  # whatever the batch's composition
        for p in np.random.default_rng(seed).choice(len(lefts), size=30, replace=False):
            alone = exact_similarities_for_pairs(prepared, measure, lefts[[p]], rights[[p]])
            assert alone[0] == scalar[p]  # and as a batch of one

    def test_planted_rows_have_the_intended_shapes(self):
        """Guard: the empty / identical / disjoint / long-intersection cases exist."""
        prepared = _pair_kernel_collection(3).binarized()
        overlap = (prepared.matrix @ prepared.matrix.T).toarray()
        assert prepared.row_nnz[0] == 0
        assert overlap[1, 2] == prepared.row_nnz[1] == prepared.row_nnz[2] > 0
        assert overlap[3, 4] == 0 and prepared.row_nnz[3] and prepared.row_nnz[4]
        assert overlap[5, 6] >= 8

    @pytest.mark.parametrize("name", ["cosine", "jaccard"])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("verifier_class", [BayesLSHLiteVerifier, BayesLSHVerifier])
    def test_exact_terminal_rule_equals_scalar_rounds_then_scalar_exact(
        self, name, seed, verifier_class
    ):
        """Lite and the hybrid == the scalar loop pair by pair, ``measure.exact`` its scorer.

        The emitted pairs are exactly those the scalar round loop emits
        concentrated, or leaves undecided at the budget with a scalar exact
        similarity above the threshold, in candidate order, and every exact
        value *is* that scalar similarity — a last-ulp disagreement between
        the scorers would flip a ``> threshold`` test.
        """
        rng = np.random.default_rng(seed)
        dense = rng.random((40, 60)) * (rng.random((40, 60)) < 0.3)
        dense[:10] = dense[20:30]
        dense[:10][rng.random((10, 60)) < 0.1] = 0.0
        collection = VectorCollection.from_dense(dense)
        measure = get_measure(name)
        left, right = np.triu_indices(40, k=1)
        candidates = CandidateSet(left=left.astype(np.int64), right=right.astype(np.int64))
        budget = {"h": 64} if verifier_class is BayesLSHLiteVerifier else {"max_hashes": 64}
        verifier = verifier_class(
            collection, name, 0.5, seed=seed, k=16, prior_sample_size=300, **budget
        )
        output = verifier.verify(candidates)

        prepared, params = verifier.prepared, verifier.params
        posterior = verifier.last_algorithm.posterior
        store = get_hash_family(measure.lsh_family, prepared, seed=seed).signatures(64)
        expected = []
        for i, j in zip(left.tolist(), right.tolist()):
            stream = [store.count_matches(i, j, start, start + 16) for start in range(0, 64, 16)]
            outcome, _, _, value = reference.bayeslsh_pair_reference(
                posterior, params, 64, stream, measure.exact(prepared, i, j)
            )
            if not np.isnan(value):
                expected.append((i, j, value, outcome == "exhausted"))
        assert any(entry[3] for entry in expected), "no pair was scored exactly"
        emitted = list(
            zip(
                output.left.tolist(),
                output.right.tolist(),
                output.estimates.tolist(),
                output.exact_mask.tolist(),
            )
        )
        assert emitted == expected


class TestArrayOps:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 8)), max_size=12))
    @example(segments=[(7, 0), (3, 2), (40, 3)])  # leading empty segment
    @example(segments=[(3, 2), (40, 3), (9, 0)])  # trailing empty segment
    @example(segments=[(5, 1), (6, 0), (1, 0), (0, 4)])  # consecutive empty segments
    @example(segments=[(4, 0), (0, 0)])  # every segment empty
    @example(segments=[])
    def test_ragged_arange(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        lengths = np.array([length for _, length in segments], dtype=np.int64)
        expected = (
            np.concatenate([np.arange(s, s + length) for s, length in segments])
            if segments and lengths.sum()
            else np.zeros(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(ragged_arange(starts, lengths), expected)

    @_SETTINGS
    @given(
        st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4), max_size=10),
        st.integers(1, 12),
    )
    @example(groups=[[2], [9, 4], [1], [0, 0]], budget=5)  # a group over budget between two
    @example(groups=[[2], [2, 2], [1]], budget=5)  # the batch ends before the straddling group
    @example(groups=[], budget=3)
    def test_budgeted_batches(self, groups, budget):
        """Greedy batches of whole groups within the budget; a group over it alone."""
        lengths = np.array([length for group in groups for length in group], dtype=np.int64)
        group_ids = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
        ends = np.cumsum([len(group) for group in groups]).tolist()
        totals = [sum(group) for group in groups]
        batches = list(arrayops.budgeted_batches(lengths, budget, group_ids))
        expected, first = [], 0
        while first < len(groups):
            last = first + 1
            while last < len(groups) and sum(totals[first : last + 1]) <= budget:
                last += 1
            expected.append((ends[first - 1] if first else 0, ends[last - 1]))
            first = last
        assert batches == expected

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
    def test_pairs_within_groups(self, sizes):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 100, size=int(np.sum(sizes)))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        earlier, later = pairs_within_groups(values, offsets)
        expected = []
        for g in range(len(sizes)):
            group = values[offsets[g] : offsets[g + 1]]
            for q in range(len(group)):
                for p in range(q):
                    expected.append((group[p], group[q]))
        assert list(zip(earlier.tolist(), later.tolist())) == [
            (int(a), int(b)) for a, b in expected
        ]
