"""Unit tests for the pipeline factory."""

import pytest

from repro.search.pipelines import PIPELINES, make_pipeline, pipelines_for_measure


class TestPipelinesForMeasure:
    def test_cosine_excludes_ppjoin(self):
        names = pipelines_for_measure("cosine")
        assert "ppjoin" not in names
        assert "allpairs" in names and "lsh_bayeslsh" in names

    def test_jaccard_excludes_allpairs(self):
        names = pipelines_for_measure("jaccard")
        assert "allpairs" not in names
        assert "ppjoin" in names

    def test_binary_cosine_includes_everything(self):
        names = pipelines_for_measure("binary_cosine")
        assert set(names) == set(PIPELINES)


class TestMakePipeline:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_every_pipeline_builds_and_runs(self, name, sparse_text_dataset, binary_sets_collection):
        if name == "ppjoin":
            data, measure = binary_sets_collection, "jaccard"
        else:
            data, measure = sparse_text_dataset, "cosine"
        engine = make_pipeline(name, data, measure=measure, threshold=0.7, seed=1)
        result = engine.run(data)
        assert result.method == name
        assert result.n_candidates >= result.n_pruned

    def test_unknown_pipeline(self, sparse_text_dataset):
        with pytest.raises(ValueError, match="unknown pipeline"):
            make_pipeline("magic", sparse_text_dataset)

    @pytest.mark.parametrize(
        "name, generator_name, verifier_name",
        [
            ("allpairs", "allpairs", "exact"),
            ("ap_bayeslsh", "allpairs", "bayeslsh"),
            ("ap_bayeslsh_lite", "allpairs", "bayeslsh_lite"),
            ("lsh", "lsh", "exact"),
            ("lsh_approx", "lsh", "lsh_approx"),
            ("lsh_bayeslsh", "lsh", "bayeslsh"),
            ("lsh_bayeslsh_lite", "lsh", "bayeslsh_lite"),
            ("ppjoin", "ppjoin", "exact"),
        ],
    )
    def test_name_dispatch_selects_components(
        self, name, generator_name, verifier_name, sparse_text_dataset, binary_sets_collection
    ):
        """Every pipeline name maps to exactly the documented component pair."""
        if name == "ppjoin":
            data, measure = binary_sets_collection, "jaccard"
        else:
            data, measure = sparse_text_dataset, "cosine"
        engine = make_pipeline(name, data, measure=measure, threshold=0.6, seed=0)
        assert engine.name == name
        assert engine.generator.name == generator_name
        assert engine.verifier.name == verifier_name

    def test_measure_incompatibility(self, binary_sets_collection):
        with pytest.raises(ValueError, match="does not support"):
            make_pipeline("allpairs", binary_sets_collection, measure="jaccard", threshold=0.5)
        with pytest.raises(ValueError, match="does not support"):
            make_pipeline("ppjoin", binary_sets_collection, measure="cosine", threshold=0.5)

    def test_unknown_kwargs_rejected(self, sparse_text_dataset):
        with pytest.raises(TypeError, match="unknown pipeline arguments"):
            make_pipeline(
                "lsh_bayeslsh", sparse_text_dataset, measure="cosine", threshold=0.7, bogus=1
            )

    def test_lsh_pipelines_share_hash_family(self, sparse_text_dataset):
        engine = make_pipeline(
            "lsh_bayeslsh", sparse_text_dataset, measure="cosine", threshold=0.7, seed=2
        )
        engine.run(sparse_text_dataset)
        assert engine.generator.family is engine.verifier.family

    def test_bayes_parameters_forwarded(self, sparse_text_dataset):
        engine = make_pipeline(
            "ap_bayeslsh",
            sparse_text_dataset,
            measure="cosine",
            threshold=0.7,
            epsilon=0.01,
            delta=0.02,
            gamma=0.04,
        )
        params = engine.verifier.params
        assert (params.epsilon, params.delta, params.gamma) == (0.01, 0.02, 0.04)

    def test_lite_h_forwarded(self, sparse_text_dataset):
        engine = make_pipeline(
            "ap_bayeslsh_lite", sparse_text_dataset, measure="cosine", threshold=0.7, h=64
        )
        assert engine.verifier.params.max_hashes == 64

    def test_lsh_approx_num_hashes_forwarded(self, sparse_text_dataset):
        engine = make_pipeline(
            "lsh_approx", sparse_text_dataset, measure="cosine", threshold=0.7, num_hashes=256
        )
        assert engine.verifier.num_hashes == 256
