"""Unit tests for the signed-random-projection (SimHash) family."""

import numpy as np
import pytest

from repro.hashing.signatures import BitSignatures
from repro.hashing.simhash import (
    SimHashFamily,
    collision_to_cosine,
    cosine_to_collision,
)
from repro.similarity.measures import cosine_similarity
from repro.similarity.vectors import VectorCollection


class TestConversions:
    def test_round_trip(self):
        for cosine in (0.0, 0.3, 0.7, 0.95, 1.0):
            assert collision_to_cosine(cosine_to_collision(cosine)) == pytest.approx(cosine, abs=1e-12)

    def test_known_values(self):
        assert cosine_to_collision(1.0) == pytest.approx(1.0)
        assert cosine_to_collision(0.0) == pytest.approx(0.5)
        assert collision_to_cosine(0.75) == pytest.approx(np.cos(np.pi * 0.25))

    def test_monotonicity(self):
        cosines = np.linspace(0, 1, 50)
        collisions = cosine_to_collision(cosines)
        assert np.all(np.diff(collisions) > 0)

    def test_range_for_nonnegative_data(self):
        collisions = cosine_to_collision(np.linspace(0, 1, 20))
        assert collisions.min() >= 0.5
        assert collisions.max() <= 1.0


class TestSimHashFamily:
    def test_signature_store_grows_lazily(self, small_dense_collection):
        family = SimHashFamily(small_dense_collection, seed=0)
        store = family.signatures(10)
        assert store.n_hashes >= 10
        first = store.n_hashes
        family.signatures(first + 100)
        assert family.signatures(0).n_hashes >= first + 100

    def test_deterministic_given_seed(self, small_dense_collection):
        a = SimHashFamily(small_dense_collection, seed=5).signatures(64)
        b = SimHashFamily(small_dense_collection, seed=5).signatures(64)
        np.testing.assert_array_equal(a.words, b.words)

    def test_seed_changes_hashes(self, small_dense_collection):
        a = SimHashFamily(small_dense_collection, seed=5).signatures(64)
        b = SimHashFamily(small_dense_collection, seed=6).signatures(64)
        assert not np.array_equal(a.words, b.words)

    def test_extension_preserves_existing_hashes(self, small_dense_collection):
        family = SimHashFamily(small_dense_collection, seed=1)
        short = family.signatures(64)
        prefix = short.words[:, :2].copy()
        family.signatures(256)
        np.testing.assert_array_equal(family.signatures(0).words[:, :2], prefix)

    def test_collision_rate_estimates_angle(self, sparse_text_collection):
        """Equation 1: hash agreement fraction approximates 1 - theta/pi."""
        family = SimHashFamily(sparse_text_collection, seed=9)
        n_hashes = 2048
        store = family.signatures(n_hashes)
        rng = np.random.default_rng(0)
        rows = rng.choice(sparse_text_collection.n_vectors, size=(20, 2))
        for i, j in rows:
            i, j = int(i), int(j)
            if i == j:
                continue
            cosine = cosine_similarity(sparse_text_collection, i, j)
            expected = cosine_to_collision(cosine)
            observed = store.count_matches(i, j, 0, n_hashes) / n_hashes
            # standard error ~ sqrt(p(1-p)/n) <= 0.011; allow 5 sigma
            assert abs(observed - expected) < 0.06

    def test_identical_vectors_always_collide(self):
        data = np.abs(np.random.default_rng(2).random((2, 30)))
        collection = VectorCollection.from_dense(np.vstack([data[0], data[0]]))
        store = SimHashFamily(collection, seed=0).signatures(256)
        assert store.count_matches(0, 1, 0, 256) == 256

    def test_quantized_matches_exact_projections(self, small_dense_collection):
        quantized = SimHashFamily(small_dense_collection, seed=3, quantize=True).signatures(512)
        exact = SimHashFamily(small_dense_collection, seed=3, quantize=False).signatures(512)
        # quantisation may flip only hashes whose projection is ~0; allow a tiny fraction
        total = small_dense_collection.n_vectors * 512
        differing = np.sum(
            np.bitwise_count(np.bitwise_xor(quantized.words, exact.words)).astype(int)
        )
        assert differing / total < 0.01

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("n_rows", [1, 2, 40])
    def test_few_touched_features_hash_like_the_float64_product(self, n_rows, quantize):
        # A query vector or an inserted segment touches few of the features and
        # is multiplied against those rows of the projection matrix only; its
        # bits must be the signs of the full float64 product all the same
        # (values down to 1e-30 put products next to zero).
        rng = np.random.default_rng(n_rows)
        dense = np.zeros((n_rows, 3000))
        for row in dense:
            touched = rng.choice(3000, size=25, replace=False)
            row[touched] = rng.random(25) * rng.choice([1e-30, 1.0, 1e6], size=25)
        collection = VectorCollection.from_dense(dense)
        family = SimHashFamily(collection, seed=5, quantize=quantize)
        family.signatures(64)
        store = family.signatures(700)
        products = collection.matrix @ family.projections.columns(0, store.n_hashes)
        expected = BitSignatures(n_rows)
        expected.append_bits((np.asarray(products) >= 0.0).astype(np.uint8))
        np.testing.assert_array_equal(store.words, expected.words)

    def test_block_is_projected_in_column_slices(self, small_dense_collection):
        # 96 is not a multiple of the product width: the last slice of each
        # block is narrower, and the bits are the float64 product's signs.
        family = SimHashFamily(small_dense_collection, seed=5, block_size=96)
        store = family.signatures(200)
        assert store.n_hashes == 288
        products = small_dense_collection.matrix @ family.projections.columns(0, 288)
        expected = BitSignatures(small_dense_collection.n_vectors)
        expected.append_bits((np.asarray(products) >= 0.0).astype(np.uint8))
        np.testing.assert_array_equal(store.words, expected.words)

    @pytest.mark.parametrize("product_bytes", [1, 1 << 10, 1 << 18, 1 << 30])
    def test_bits_do_not_depend_on_the_slice_size(
        self, small_dense_collection, monkeypatch, product_bytes
    ):
        # Slices are sized from the product's scratch bytes (rows x columns):
        # from the 64-column floor to a whole request in one product, a
        # one-row batch included, the bits are the same.
        import repro.hashing.simhash as simhash

        expected = SimHashFamily(small_dense_collection, seed=5).signatures(600).words
        one_row = small_dense_collection.subset([3])
        expected_row = SimHashFamily(one_row, seed=5).signatures(600).words
        widths = []
        project = SimHashFamily._project_bits

        def recording(self, start, end):
            widths.append(end - start)
            return project(self, start, end)

        monkeypatch.setattr(simhash, "_PRODUCT_BYTES", product_bytes)
        monkeypatch.setattr(SimHashFamily, "_project_bits", recording)
        store = SimHashFamily(small_dense_collection, seed=5).signatures(600)
        np.testing.assert_array_equal(store.words, expected)
        n_rows = small_dense_collection.n_vectors
        assert max(widths) == min(768, max(64, product_bytes // (4 * n_rows)))
        widths.clear()
        row_store = SimHashFamily(one_row, seed=5).signatures(600)
        np.testing.assert_array_equal(row_store.words, expected_row)
        np.testing.assert_array_equal(row_store.words[0], expected[3])
        if product_bytes >= 1 << 18:
            assert widths == [768], "a one-row batch is one projection"

    def test_collision_similarity_mapping(self, small_dense_collection):
        family = SimHashFamily(small_dense_collection)
        assert family.collision_similarity(0.7) == pytest.approx(float(cosine_to_collision(0.7)))

    def test_invalid_block_size(self, small_dense_collection):
        with pytest.raises(ValueError):
            SimHashFamily(small_dense_collection, block_size=0)

    def test_repr(self, small_dense_collection):
        assert "SimHashFamily" in repr(SimHashFamily(small_dense_collection))
