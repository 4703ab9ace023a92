"""Scalar reference implementations of the vectorised hot paths.

Every batched kernel in the library (signature generation, the posterior
``*_many`` queries, the array-based candidate generators) is required to be
**bit-identical** to a straightforward scalar formulation — same seeds give
same signatures, same prune/emit decisions, same candidate pairs and the
same bookkeeping counters.  This module holds those scalar formulations:
direct ports of the original one-row-at-a-time / one-pair-at-a-time loops,
kept as the executable specification that
``tests/property/test_vectorised_equivalence.py`` checks the production
kernels against on randomised inputs.

Nothing here is exported for production use; these functions trade every
optimisation for obviousness.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.posteriors import PosteriorModel
from repro.hashing.minhash import _PRIME, MinHashFamily
from repro.hashing.signatures import SignatureStore
from repro.hashing.simhash import SimHashFamily
from repro.similarity.measures import get_measure
from repro.similarity.vectors import VectorCollection

__all__ = [
    "minhash_signatures_reference",
    "simhash_bits_reference",
    "concentration_decisions_reference",
    "map_estimates_reference",
    "prob_above_threshold_reference",
    "bayeslsh_pair_reference",
    "lsh_candidates_reference",
    "band_probe_reference",
    "allpairs_candidates_reference",
    "ppjoin_candidates_reference",
]


# --------------------------------------------------------------------- #
# hashing
# --------------------------------------------------------------------- #
def minhash_signatures_reference(family: MinHashFamily, n_hashes: int) -> np.ndarray:
    """Row-at-a-time minwise signatures for ``family``'s first ``n_hashes`` functions."""
    coef_a, coef_b = family.coefficients(n_hashes)
    collection = family.collection
    values = np.empty((collection.n_vectors, n_hashes), dtype=np.int64)
    for row in range(collection.n_vectors):
        features = collection.row_features(row)
        if len(features) == 0:
            values[row, :] = -(row + 1)
            continue
        feats = features.astype(np.int64) % _PRIME
        permuted = (coef_a[:, None] * feats[None, :] + coef_b[:, None]) % _PRIME
        values[row, :] = permuted.min(axis=1)
    return values


def simhash_bits_reference(family: SimHashFamily, n_hashes: int) -> np.ndarray:
    """Row-at-a-time signed-random-projection bits for ``family``."""
    directions = family.projections.columns(0, n_hashes)
    collection = family.collection
    bits = np.empty((collection.n_vectors, n_hashes), dtype=np.uint8)
    for row in range(collection.n_vectors):
        products = collection.row(row) @ directions
        bits[row, :] = (np.asarray(products).ravel() >= 0.0).astype(np.uint8)
    return bits


# --------------------------------------------------------------------- #
# posterior queries
# --------------------------------------------------------------------- #
def concentration_decisions_reference(
    posterior: PosteriorModel, matches, n: int, delta: float, gamma: float
) -> np.ndarray:
    """Pair-at-a-time concentration decisions (Equation 6 per match count)."""
    return np.array(
        [
            posterior.concentration_probability(int(m), int(n), delta) >= 1.0 - gamma
            for m in np.asarray(matches)
        ],
        dtype=bool,
    )


def map_estimates_reference(posterior: PosteriorModel, matches, hashes) -> np.ndarray:
    """Pair-at-a-time MAP estimates (Equation 4 per ``(m, n)``)."""
    return np.array(
        [
            posterior.map_estimate(int(m), int(n))
            for m, n in zip(np.asarray(matches), np.asarray(hashes))
        ],
        dtype=np.float64,
    )


def prob_above_threshold_reference(
    posterior: PosteriorModel, matches, n: int, threshold: float
) -> np.ndarray:
    """Pair-at-a-time pruning probabilities (Equation 3 per match count)."""
    return np.array(
        [posterior.prob_above_threshold(int(m), int(n), threshold) for m in np.asarray(matches)],
        dtype=np.float64,
    )


def bayeslsh_pair_reference(
    posterior: PosteriorModel, params, budget: int, agreements, exact_similarity: float = np.nan
) -> tuple[str, int, int, float]:
    """The paper's pair-at-a-time loop for one pair, under any terminal rule.

    ``agreements[i]`` is the number of hashes of round ``i`` on which the pair
    agrees.  Each round the pair is pruned when ``Pr[S >= t | M(m, n)] <
    epsilon`` (line 10 of Algorithm 1) and, if ``params.concentrate``,
    emitted with its MAP estimate once the estimate is concentrated (line
    15); the posterior is queried per ``(m, n)``, no table involved.  A pair
    still undecided after ``budget`` hashes reports its current estimate
    under ``on_budget="estimate"`` (Algorithm 1) and ``exact_similarity``
    under ``"exact"`` (Algorithm 2 and the hybrid), where it is kept only if
    that exceeds the threshold.

    Returns ``(outcome, m, n, value)``: ``outcome`` is ``"pruned"``,
    ``"concentrated"`` or ``"exhausted"``, and ``value`` is NaN for a pair
    that is not output.
    """
    m = n = 0
    for round_index in range(budget // params.k):
        n += params.k
        m += int(agreements[round_index])
        if posterior.prob_above_threshold(m, n, params.threshold) < params.epsilon:
            return "pruned", m, n, np.nan
        if params.concentrate and (
            posterior.concentration_probability(m, n, params.delta) >= 1.0 - params.gamma
        ):
            return "concentrated", m, n, posterior.map_estimate(m, n)
    if params.on_budget == "estimate":
        return "exhausted", m, n, posterior.map_estimate(m, n) if n else 0.0
    kept = exact_similarity > params.threshold
    return "exhausted", m, n, exact_similarity if kept else np.nan


# --------------------------------------------------------------------- #
# candidate generation
# --------------------------------------------------------------------- #
def lsh_candidates_reference(
    store: SignatureStore, rows: np.ndarray, n_signatures: int, signature_width: int
) -> tuple[set[tuple[int, int]], int]:
    """Dict-of-buckets LSH banding: ``(candidate pairs, raw collision count)``."""
    pairs: set[tuple[int, int]] = set()
    n_raw_collisions = 0
    for band in range(n_signatures):
        buckets: dict[bytes, list[int]] = defaultdict(list)
        for row in rows:
            buckets[store.band_key(int(row), band, signature_width)].append(int(row))
        for bucket_rows in buckets.values():
            for a_index in range(len(bucket_rows)):
                for b_index in range(a_index + 1, len(bucket_rows)):
                    i, j = bucket_rows[a_index], bucket_rows[b_index]
                    n_raw_collisions += 1
                    pairs.add((i, j) if i < j else (j, i))
    return pairs, n_raw_collisions


def band_probe_reference(
    store: SignatureStore,
    member_rows: np.ndarray,
    query_store: SignatureStore,
    query_rows: np.ndarray,
    n_bands: int,
    band_width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dict-of-buckets band probe: sorted distinct ``(query position, member row)`` arrays.

    Per band a dict maps each member's band bytes to its rows; every query
    row looks its own band bytes up.  What ``BandPostings.probe_many``
    returns over the same members.
    """
    pairs: set[tuple[int, int]] = set()
    for band in range(n_bands):
        buckets: dict[bytes, list[int]] = defaultdict(list)
        for row in member_rows:
            buckets[store.band_key(int(row), band, band_width)].append(int(row))
        for position, row in enumerate(query_rows):
            hits = buckets.get(query_store.band_key(int(row), band, band_width), ())
            pairs.update((position, member) for member in hits)
    ordered = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return ordered[:, 0], ordered[:, 1]


def allpairs_candidates_reference(
    collection: VectorCollection, measure, threshold: float
) -> tuple[set[tuple[int, int]], dict]:
    """Sequential AllPairs with per-feature Python lists (Bayardo et al.)."""
    measure = get_measure(measure)
    prepared = measure.prepare(collection).normalized()
    n_vectors = prepared.n_vectors
    if n_vectors < 2:
        return set(), {"n_score_accumulations": 0, "index_entries": 0}
    matrix = prepared.matrix
    n_features = prepared.n_features

    feature_counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
    feature_order = np.argsort(-feature_counts, kind="stable")
    feature_rank = np.empty(n_features, dtype=np.int64)
    feature_rank[feature_order] = np.arange(n_features)

    max_weight_dim = np.zeros(n_features, dtype=np.float64)
    coo = matrix.tocoo()
    np.maximum.at(max_weight_dim, coo.col, coo.data)

    vector_order = np.argsort(-prepared.max_weights, kind="stable")
    index_rows: list[list[int]] = [[] for _ in range(n_features)]
    index_weights: list[list[float]] = [[] for _ in range(n_features)]
    pairs: set[tuple[int, int]] = set()
    n_score_accumulations = 0

    for x in vector_order:
        x = int(x)
        features = prepared.row_features(x)
        weights = prepared.row_values(x)
        if len(features) == 0:
            continue
        order = np.argsort(feature_rank[features], kind="stable")
        features = features[order]
        weights = weights[order]

        scores: dict[int, float] = {}
        for feature, weight in zip(features, weights):
            for y, y_weight in zip(index_rows[feature], index_weights[feature]):
                scores[y] = scores.get(y, 0.0) + weight * y_weight
                n_score_accumulations += 1
        for y in scores:
            pairs.add((x, y) if x < y else (y, x))

        bound = 0.0
        x_max_weight = float(prepared.max_weights[x])
        for feature, weight in zip(features, weights):
            bound += float(weight) * min(float(max_weight_dim[feature]), x_max_weight)
            if bound >= threshold:
                index_rows[feature].append(x)
                index_weights[feature].append(float(weight))

    metadata = {
        "n_score_accumulations": n_score_accumulations,
        "index_entries": int(sum(len(rows) for rows in index_rows)),
    }
    return pairs, metadata


def _minimum_overlap_reference(measure_name: str, threshold, size_x: int, size_y: int) -> float:
    import math

    if measure_name == "jaccard":
        return threshold / (1.0 + threshold) * (size_x + size_y)
    return threshold * math.sqrt(size_x * size_y)


def ppjoin_candidates_reference(
    collection: VectorCollection,
    measure,
    threshold: float,
    use_positional_filter: bool = True,
    use_suffix_filter: bool = True,
) -> tuple[set[tuple[int, int]], dict]:
    """Sequential PPJoin/PPJoin+ with a dict-based prefix index (Xiao et al.)."""
    import math

    measure = get_measure(measure)
    prepared = measure.prepare(collection)
    n_vectors = prepared.n_vectors
    empty_meta = {
        "n_prefix_collisions": 0,
        "n_filtered_positional": 0,
        "n_filtered_suffix": 0,
    }
    if n_vectors < 2:
        return set(), empty_meta

    binary = prepared.binarized().matrix
    token_counts = np.asarray(binary.sum(axis=0)).ravel()
    token_rank = np.argsort(np.argsort(token_counts, kind="stable"), kind="stable")

    records: list[np.ndarray] = []
    for row in range(n_vectors):
        features = prepared.row_features(row)
        order = np.argsort(token_rank[features], kind="stable")
        records.append(token_rank[features][order].astype(np.int64))
    sizes = np.array([len(tokens) for tokens in records], dtype=np.int64)
    processing_order = np.argsort(sizes, kind="stable")

    def length_bounds(size_x: int) -> float:
        if measure.name == "jaccard":
            return threshold * size_x
        return threshold * threshold * size_x

    def prefix_length(size_x: int) -> int:
        if measure.name == "jaccard":
            min_overlap_with_self = math.ceil(threshold * size_x)
        else:
            min_overlap_with_self = math.ceil(threshold * threshold * size_x)
        return max(1, size_x - min_overlap_with_self + 1)

    def suffix_overlap_bound(tokens_x, tokens_y, position_x, position_y) -> int:
        suffix_x = tokens_x[position_x + 1 :]
        suffix_y = tokens_y[position_y + 1 :]
        if len(suffix_x) == 0 or len(suffix_y) == 0:
            return 0
        if suffix_x[-1] < suffix_y[0] or suffix_y[-1] < suffix_x[0]:
            return 0
        return min(len(suffix_x), len(suffix_y))

    index: dict[int, list[tuple[int, int]]] = defaultdict(list)
    pairs: set[tuple[int, int]] = set()
    n_prefix_collisions = 0
    n_filtered_positional = 0
    n_filtered_suffix = 0

    for x in processing_order:
        x = int(x)
        tokens_x = records[x]
        size_x = len(tokens_x)
        if size_x == 0:
            continue
        lower = length_bounds(size_x)
        prefix_x = prefix_length(size_x)

        scores: dict[int, bool] = {}
        for position_x in range(prefix_x):
            token = int(tokens_x[position_x])
            for y, position_y in index[token]:
                if y in scores:
                    continue
                size_y = len(records[y])
                if size_y < lower:
                    continue
                n_prefix_collisions += 1
                alpha = _minimum_overlap_reference(measure.name, threshold, size_x, size_y)
                if use_positional_filter:
                    overlap_bound = 1 + min(size_x - position_x - 1, size_y - position_y - 1)
                    if overlap_bound < alpha:
                        n_filtered_positional += 1
                        continue
                if use_suffix_filter:
                    suffix_bound = 1 + suffix_overlap_bound(
                        tokens_x, records[y], position_x, position_y
                    )
                    if suffix_bound < alpha:
                        n_filtered_suffix += 1
                        continue
                scores[y] = True
        for y in scores:
            pairs.add((x, y) if x < y else (y, x))

        for position_x in range(prefix_x):
            index[int(tokens_x[position_x])].append((x, position_x))

    metadata = {
        "n_prefix_collisions": n_prefix_collisions,
        "n_filtered_positional": n_filtered_positional,
        "n_filtered_suffix": n_filtered_suffix,
    }
    return pairs, metadata
