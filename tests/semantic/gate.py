"""The semantic gate: a pipeline's measured behaviour against the computed one.

Every other equivalence suite compares one code path with another; this one
compares the pipeline with what :func:`repro.core.operating.operating_characteristic`
says its decision tables must do to pairs of the corpus' *true* similarities
(the benchmark's brute-force oracle, which shares no kernel with the library).  A hashing bias, a
table off by one or a replay bug moves the measured counts away from the
predicted ones, bit-identically on every path.

A cell runs one pipeline on one tiny corpus and reports four statistics, each
a count over candidate pairs with its predicted mean and variance:

* ``false_negatives`` — candidates truly above the threshold that were not
  returned (the BayesLSH-attributable misses: the candidate generator's own
  are not candidates);
* ``delta_misses`` — returned *estimates* further than ``delta`` from the truth;
* ``exhausted`` — pairs that reached the hash budget undecided;
* ``alive@n`` — pairs not pruned after each round (the pruning curve).

The verifier's hash family is seeded independently of the candidate
generator's, as the characteristic assumes; the pairs of a corpus share rows
and hence hash bits, so the counts are not quite sums of independent draws —
the tolerance (:data:`Z`) leaves room for that, and the planted bugs in
``test_gate.py`` show it is still tight enough to matter.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.candidates.allpairs import AllPairsGenerator
from repro.candidates.lsh_index import LSHGenerator
from repro.core.operating import operating_characteristic
from repro.search.engine import SearchEngine
from repro.similarity.vectors import VectorCollection
from repro.verification.bayes import BayesLSHLiteVerifier, BayesLSHVerifier

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from e2e.oracle import pair_similarities  # noqa: E402

THRESHOLD = 0.5
DELTA = 0.05
CONFIGURATIONS = ("algorithm1", "lite", "hybrid")
#: two-sided tolerance in predicted standard deviations (plus one count)
Z = 4.0
_GRID = 241


def corpus(measure: str, seed: int, n_pairs: int = 2000):
    """``n_pairs`` planted pairs of rows on disjoint features, as a CSR matrix.

    Rows ``2i`` and ``2i + 1`` have a similarity drawn uniformly from
    (0.05, 1) and share no feature with any other row, so the candidate
    pairs are (a subset of) the planted ones and their hash agreements are
    independent of each other — what makes a binomial tolerance meaningful.
    """
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.05, 1.0, size=n_pairs)
    rows, cols, values = [], [], []
    if measure == "jaccard":
        size = 24
        for pair, target in enumerate(targets):
            shared = int(round(2 * size * target / (1.0 + target)))
            base = pair * 2 * size
            first = np.arange(base, base + size)
            second = np.concatenate([first[:shared], np.arange(base + size, base + 2 * size - shared)])
            for row, tokens in ((2 * pair, first), (2 * pair + 1, second)):
                rows.extend([row] * len(tokens))
                cols.extend(tokens.tolist())
                values.extend([1.0] * len(tokens))
        # Token ids in random order: minhash permutes with ``(a x + b) mod p``,
        # which is only approximately min-wise independent and visibly biased
        # on sets that are runs of consecutive integers.
        cols = rng.permutation(n_pairs * 2 * size)[cols].tolist()
        n_features = n_pairs * 2 * size
    else:
        half = 3
        for pair, target in enumerate(targets):
            base = pair * 2 * half
            along = rng.random(half) + 0.1
            across = rng.random(half) + 0.1
            second = np.concatenate(
                [
                    target * along / np.linalg.norm(along),
                    np.sqrt(1.0 - target**2) * across / np.linalg.norm(across),
                ]
            )
            rows.extend([2 * pair] * half + [2 * pair + 1] * 2 * half)
            cols.extend(list(range(base, base + half)) + list(range(base, base + 2 * half)))
            values.extend(along.tolist() + second.tolist())
        n_features = n_pairs * 2 * half
    return sp.csr_matrix((values, (rows, cols)), shape=(2 * n_pairs, n_features))


def build_engine(collection, measure: str, configuration: str, seed: int) -> SearchEngine:
    """The library's own generator and verifier, on independent hash streams."""
    if measure == "cosine":
        generator = AllPairsGenerator(measure, THRESHOLD)
    else:
        generator = LSHGenerator(measure, THRESHOLD, seed=seed + 1000)
    if configuration == "lite":
        verifier = BayesLSHLiteVerifier(collection, measure, THRESHOLD, seed=seed)
    else:
        verifier = BayesLSHVerifier(
            collection,
            measure,
            THRESHOLD,
            seed=seed,
            delta=DELTA,
            # 512 hashes already mix concentrated and exhausted pairs, and keep
            # the projection matrix of the 15,000-feature cosine corpus small
            max_hashes=512 if configuration == "algorithm1" else None,
            on_budget="estimate" if configuration == "algorithm1" else "exact",
        )
    return SearchEngine(generator, verifier)


@dataclass
class Statistic:
    name: str
    measured: float
    predicted: float
    variance: float

    @property
    def ok(self) -> bool:
        return abs(self.measured - self.predicted) <= Z * np.sqrt(self.variance) + 1.0

    def __str__(self) -> str:
        z = (self.measured - self.predicted) / np.sqrt(max(self.variance, 1e-12))
        return f"{self.name}: measured {self.measured:g}, predicted {self.predicted:.1f} (z = {z:+.1f})"


def table_problems(tables) -> list:
    """``minMatches(n)`` against its definition, by scalar posterior queries.

    The characteristic is computed from the engine's own tables, so a wrong
    table would move prediction and measurement together; this ties the
    table to the posterior it claims to summarise.
    """
    params, posterior = tables.params, tables.posterior
    found = []
    for n in range(params.k, tables.budget + 1, params.k):
        entry = tables.min_matches.min_matches(n)
        reaches = entry <= n and posterior.prob_above_threshold(entry, n, params.threshold) >= params.epsilon
        below = entry > 0 and posterior.prob_above_threshold(entry - 1, n, params.threshold) >= params.epsilon
        if below or not (reaches or entry == n + 1):
            found.append(f"minMatches({n}) = {entry} is not the smallest m with Pr[S >= t] >= epsilon")
    return found


@dataclass
class Report:
    statistics: list
    tables: list
    #: exact similarities of the returned pairs and which of them are exact values
    returned_truth: np.ndarray
    returned_values: np.ndarray
    returned_exact: np.ndarray

    def problems(self) -> list:
        """Everything the gate objects to (empty for a correct pipeline)."""
        found = self.tables + [str(statistic) for statistic in self.statistics if not statistic.ok]
        truth, exact = self.returned_truth[self.returned_exact], self.returned_exact
        if np.any(truth <= THRESHOLD - 1e-9):
            found.append(f"{int(np.sum(truth <= THRESHOLD - 1e-9))} exactly scored pairs at or below t")
        if np.any(np.abs(self.returned_values[exact] - truth) > 1e-9):
            found.append("an exact value differs from the brute-force similarity by more than 1e-9")
        return found


def run_cell(measure: str, configuration: str, seed: int = 3, n_pairs: int = 2000) -> Report:
    """Run one measure x configuration cell and compare it with its characteristic."""
    matrix = corpus(measure, seed, n_pairs)
    collection = VectorCollection(matrix)
    engine = build_engine(collection, measure, configuration, seed)
    candidates = engine.generator.generate(collection)
    output = engine.verifier.verify(candidates)  # what SearchEngine.run does next

    truth = pair_similarities(matrix, candidates.left, matrix, candidates.right, measure)
    tables = engine.verifier.last_algorithm.tables
    grid = np.linspace(max(truth.min() - 1e-6, 0.0), min(truth.max() + 1e-6, 1.0), _GRID)
    oc = operating_characteristic(tables, grid)

    def predicted(name, curve, mask=slice(None)):
        p = np.clip(np.interp(truth[mask], grid, curve), 0.0, 1.0)
        return name, float(p.sum()), float((p * (1.0 - p)).sum())

    n = collection.n_vectors
    returned = np.isin(
        candidates.left * n + candidates.right, output.left * n + output.right
    )
    above = truth > THRESHOLD + 1e-9
    returned_truth = pair_similarities(matrix, output.left, matrix, output.right, measure)
    measured = {
        "false_negatives": int(np.sum(above & ~returned)),
        "delta_misses": int(
            np.sum(np.abs(output.estimates - returned_truth)[~output.exact_mask] > DELTA)
        ),
        "exhausted": output.exact_computations + output.n_unconcentrated,
    }
    rows = [
        predicted("false_negatives", oc.p_pruned, above),
        predicted("delta_misses", oc.p_delta_miss),
        predicted("exhausted", oc.p_exhausted),
    ]
    alive = dict(output.trace)
    pruned_so_far = np.cumsum(oc.p_pruned_by_round, axis=1)
    for round_index, checkpoint in enumerate(oc.checkpoints.tolist()):
        if checkpoint in alive:
            measured[f"alive@{checkpoint}"] = alive[checkpoint]
            rows.append(predicted(f"alive@{checkpoint}", 1.0 - pruned_so_far[:, round_index]))
    return Report(
        statistics=[Statistic(name, measured[name], mean, var) for name, mean, var in rows],
        tables=table_problems(tables),
        returned_truth=returned_truth,
        returned_values=output.estimates,
        returned_exact=output.exact_mask,
    )
