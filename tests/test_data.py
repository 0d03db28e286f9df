"""Tests for pair datasets: construction, synthesis, k-shot draws, manifests."""

import numpy as np
import pytest

from pairbag.data import (
    KShotDraw,
    ManifestError,
    PairDataset,
    SyntheticSpec,
    change_direction,
    draw_k_shot,
    generate_synthetic,
    load_manifest,
    save_manifest,
)


def small_dataset(n_pos=4, n_neg=10, d=3, seed=7):
    spec = SyntheticSpec(
        d=d, n_pos=n_pos, n_neg=n_neg, separation=2.0, noise_scale=0.5, seed=seed
    )
    return generate_synthetic(spec)


class TestPairDataset:
    def test_basic_accessors(self):
        ds = small_dataset(n_pos=4, n_neg=10, d=3)
        assert len(ds) == 14
        assert ds.dim == 3
        # positives are generated first, then negatives
        np.testing.assert_array_equal(ds.positives, np.arange(4))
        np.testing.assert_array_equal(ds.negatives, np.arange(4, 14))

    def test_arrays_are_read_only(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            ds.pre[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.labels[0] = 0

    def test_requires_at_least_one_negative(self):
        with pytest.raises(ValueError, match="negative"):
            PairDataset(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2, dtype=int))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            PairDataset(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2, dtype=int))

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            PairDataset(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0, 5]))

    def test_subset_preserves_order(self):
        ds = small_dataset()
        idx = np.array([5, 1, 7])
        sub = ds.subset(idx)
        np.testing.assert_array_equal(sub.pre, ds.pre[idx])
        np.testing.assert_array_equal(sub.labels, ds.labels[idx])


class TestSyntheticSpec:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="d must be"):
            SyntheticSpec(d=0, n_pos=1, n_neg=1, separation=1.0, noise_scale=1.0, seed=0)

    def test_rejects_zero_negatives(self):
        with pytest.raises(ValueError, match="n_neg"):
            SyntheticSpec(d=2, n_pos=1, n_neg=0, separation=1.0, noise_scale=1.0, seed=0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="noise_scale"):
            SyntheticSpec(d=2, n_pos=1, n_neg=1, separation=1.0, noise_scale=0.0, seed=0)


class TestGenerateSynthetic:
    def test_deterministic_for_equal_specs(self):
        spec = SyntheticSpec(d=5, n_pos=20, n_neg=40, separation=3.0, noise_scale=1.0, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.pre, b.pre)
        np.testing.assert_array_equal(a.post, b.post)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        base = dict(d=5, n_pos=20, n_neg=40, separation=3.0, noise_scale=1.0)
        a = generate_synthetic(SyntheticSpec(seed=1, **base))
        b = generate_synthetic(SyntheticSpec(seed=2, **base))
        assert not np.array_equal(a.pre, b.pre)

    def test_class_conditional_difference_means(self):
        """Mean of (post - pre) is ~0 for negatives, ~separation * u for positives."""
        rng = np.random.default_rng(0)
        for _ in range(3):
            seed = int(rng.integers(1 << 30))
            spec = SyntheticSpec(
                d=6, n_pos=4000, n_neg=4000, separation=3.0, noise_scale=1.0, seed=seed
            )
            ds = generate_synthetic(spec)
            diff = ds.post - ds.pre
            u = change_direction(spec)
            pos_mean = diff[ds.positives].mean(axis=0)
            neg_mean = diff[ds.negatives].mean(axis=0)
            np.testing.assert_allclose(neg_mean, 0.0, atol=0.1)
            np.testing.assert_allclose(pos_mean, 3.0 * u, atol=0.1)

    def test_change_direction_is_unit_norm(self):
        spec = SyntheticSpec(d=9, n_pos=1, n_neg=1, separation=1.0, noise_scale=1.0, seed=3)
        assert np.linalg.norm(change_direction(spec)) == pytest.approx(1.0, abs=1e-12)

    def test_separation_is_mean_distance(self):
        """The class-conditional means of (post - pre) sit `separation` apart."""
        spec = SyntheticSpec(
            d=4, n_pos=20000, n_neg=20000, separation=2.5, noise_scale=1.0, seed=5
        )
        ds = generate_synthetic(spec)
        diff = ds.post - ds.pre
        gap = diff[ds.positives].mean(axis=0) - diff[ds.negatives].mean(axis=0)
        assert np.linalg.norm(gap) == pytest.approx(2.5, abs=0.05)


class TestDrawKShot:
    def test_indices_are_distinct_sorted_positives(self):
        ds = small_dataset(n_pos=30, n_neg=50)
        rng = np.random.default_rng(19)
        for _ in range(20):
            k = int(rng.integers(1, 31))
            seed = int(rng.integers(1 << 30))
            draw = draw_k_shot(ds, k, seed)
            assert draw.indices.shape == (k,)
            assert len(np.unique(draw.indices)) == k
            np.testing.assert_array_equal(draw.indices, np.sort(draw.indices))
            assert np.isin(draw.indices, ds.positives).all()

    def test_deterministic(self):
        ds = small_dataset(n_pos=30, n_neg=50)
        a = draw_k_shot(ds, 7, 123)
        b = draw_k_shot(ds, 7, 123)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_negatives_untouched_by_k(self):
        """Drawing positives never shrinks the negative pool."""
        ds = small_dataset(n_pos=30, n_neg=50)
        before = ds.negatives.copy()
        draw_k_shot(ds, 30, 0)
        np.testing.assert_array_equal(ds.negatives, before)

    def test_rejects_k_above_positive_count(self):
        ds = small_dataset(n_pos=5, n_neg=10)
        with pytest.raises(ValueError, match="exceeds"):
            draw_k_shot(ds, 6, 0)

    def test_rejects_nonpositive_k(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="k must be"):
            draw_k_shot(ds, 0, 0)

    def test_draw_validates_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            KShotDraw(k=3, indices=np.array([1, 1, 2]), seed=0)


class TestManifest:
    def test_round_trip_to_float32_precision(self, tmp_path):
        ds = small_dataset(n_pos=3, n_neg=6, d=4)
        manifest = save_manifest(ds, tmp_path / "out")
        loaded = load_manifest(manifest)
        assert len(loaded) == len(ds)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        # the wire format stores float32, so values round to that precision
        np.testing.assert_array_equal(loaded.pre, ds.pre.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(loaded.post, ds.post.astype(np.float32).astype(np.float64))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(p)

    def test_error_names_one_based_row(self, tmp_path):
        ds = small_dataset(n_pos=2, n_neg=2, d=2)
        manifest = save_manifest(ds, tmp_path)
        lines = manifest.read_text().splitlines()
        lines[2] = lines[2].replace(",0", ",7").replace(",1", ",7")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="row 2"):
            load_manifest(manifest)

    def test_missing_vector_file(self, tmp_path):
        ds = small_dataset(n_pos=2, n_neg=2, d=2)
        manifest = save_manifest(ds, tmp_path)
        (tmp_path / "pair000001_pre.vec").unlink()
        with pytest.raises(ManifestError, match="row 2"):
            load_manifest(manifest)

    def test_truncated_vector_file(self, tmp_path):
        ds = small_dataset(n_pos=2, n_neg=2, d=2)
        manifest = save_manifest(ds, tmp_path)
        vec = tmp_path / "pair000000_pre.vec"
        vec.write_bytes(vec.read_bytes()[:-2])
        with pytest.raises(ManifestError, match="row 1"):
            load_manifest(manifest)

    def test_non_finite_vector_names_row(self, tmp_path):
        ds = small_dataset(n_pos=2, n_neg=2, d=2)
        manifest = save_manifest(ds, tmp_path)
        vec = tmp_path / "pair000002_post.vec"
        vec.write_bytes(vec.read_bytes()[:4] + np.array([1.0, np.nan], dtype="<f4").tobytes())
        with pytest.raises(ManifestError, match="row 3: vector holds a non-finite value"):
            load_manifest(manifest)

    def test_dimension_mismatch_across_rows(self, tmp_path):
        ds = small_dataset(n_pos=2, n_neg=2, d=3)
        manifest = save_manifest(ds, tmp_path)
        other = small_dataset(n_pos=1, n_neg=1, d=5)
        save_manifest(other, tmp_path / "other")
        text = manifest.read_text().splitlines()
        text.append("other/pair000000_pre.vec,other/pair000000_post.vec,1")
        manifest.write_text("\n".join(text) + "\n")
        with pytest.raises(ManifestError, match="row 5"):
            load_manifest(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("pre_path,post_path,label\n")
        with pytest.raises(ManifestError, match="no data rows"):
            load_manifest(p)

    def test_all_positive_manifest_rejected(self, tmp_path):
        ds = small_dataset(n_pos=2, n_neg=1, d=2)
        manifest = save_manifest(ds, tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:3]) + "\n")  # keep only the positives
        with pytest.raises(ManifestError, match="no negative"):
            load_manifest(manifest)
