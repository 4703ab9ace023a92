"""Integration tests for the direction of the paper's guarantees (Section 1).

Guarantee 1 (recall): each pair with probability > epsilon of being a true
positive is included in the output.  Guarantee 2 (accuracy): each similarity
estimate is within delta of the truth with probability > 1 - gamma.

Both are statements per look and under the prior, so what a run achieves is
not ``1 - epsilon`` / ``gamma`` but what the operating characteristic of its
decision tables says (``repro.core.operating``).  *That* equality — measured
false-negative and delta-miss rates against the computed ones, within a
binomial tolerance — is asserted by ``tests/semantic/``, which replaced the
3x-slack bounds that used to live here (they passed at a 9% false-negative
rate).  What stays are the mechanisms: the knobs move the output the way the
paper says they do.
"""

from repro.evaluation.ground_truth import exact_all_pairs
from repro.evaluation.metrics import error_statistics, recall
from repro.search.pipelines import make_pipeline
from repro.verification.base import exact_similarities_for_pairs
from repro.similarity.measures import get_measure


def _exact_map(dataset, measure_name, result):
    measure = get_measure(measure_name)
    prepared = measure.prepare(dataset.collection)
    values = exact_similarities_for_pairs(prepared, measure, result.left, result.right)
    return {
        (int(i), int(j)): float(v) for i, j, v in zip(result.left, result.right, values)
    }


class TestRecallGuarantee:
    def test_smaller_epsilon_gives_higher_recall(self, sparse_text_dataset):
        threshold = 0.7
        truth = exact_all_pairs(sparse_text_dataset, threshold, "cosine")
        recalls = {}
        for epsilon in (0.01, 0.2):
            engine = make_pipeline(
                "ap_bayeslsh",
                sparse_text_dataset,
                measure="cosine",
                threshold=threshold,
                seed=1,
                epsilon=epsilon,
            )
            recalls[epsilon] = recall(engine.run(sparse_text_dataset), truth)
        assert recalls[0.01] >= recalls[0.2]


class TestAccuracyGuarantee:
    def test_smaller_delta_gives_smaller_errors(self, sparse_text_dataset):
        threshold = 0.6
        mean_errors = {}
        for delta in (0.01, 0.10):
            engine = make_pipeline(
                "lsh_bayeslsh",
                sparse_text_dataset,
                measure="cosine",
                threshold=threshold,
                seed=2,
                delta=delta,
                max_hashes=4096,
            )
            result = engine.run(sparse_text_dataset)
            stats = error_statistics(
                result,
                exact_similarities=_exact_map(sparse_text_dataset, "cosine", result),
            )
            mean_errors[delta] = stats.mean_error
        assert mean_errors[0.01] < mean_errors[0.10]

    def test_hash_usage_grows_as_delta_shrinks(self, sparse_text_dataset):
        """The mechanism behind Figure 2: tighter delta means more hash comparisons."""
        threshold = 0.6
        comparisons = {}
        for delta in (0.02, 0.10):
            engine = make_pipeline(
                "lsh_bayeslsh",
                sparse_text_dataset,
                measure="cosine",
                threshold=threshold,
                seed=2,
                delta=delta,
                max_hashes=4096,
            )
            result = engine.run(sparse_text_dataset)
            comparisons[delta] = result.metadata["hash_comparisons"]
        assert comparisons[0.02] > comparisons[0.10]


class TestPruningBehaviour:
    def test_majority_of_false_positives_pruned_early(self, sparse_text_dataset):
        """The Figure 4 mechanism: most candidates disappear within a few rounds."""
        threshold = 0.8
        engine = make_pipeline(
            "ap_bayeslsh", sparse_text_dataset, measure="cosine", threshold=threshold, seed=0
        )
        result = engine.run(sparse_text_dataset)
        trace = result.metadata["prune_trace"]
        assert trace, "expected a pruning trace"
        n_candidates = result.n_candidates
        alive_after_first_rounds = dict(trace).get(96, trace[-1][1])
        assert alive_after_first_rounds < 0.5 * n_candidates

    def test_jaccard_prior_fitting_does_not_hurt_recall(self, binary_sets_collection):
        threshold = 0.4
        truth = exact_all_pairs(binary_sets_collection, threshold, "jaccard")
        engine = make_pipeline(
            "lsh_bayeslsh", binary_sets_collection, measure="jaccard", threshold=threshold, seed=0
        )
        result = engine.run(binary_sets_collection)
        assert recall(result, truth) >= 0.9
