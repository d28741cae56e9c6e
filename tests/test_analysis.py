"""Tests for the analysis subsystems (diffusion, PCA, gradients, retention)."""

import numpy as np
import pytest

from repro.analysis import (
    PCA,
    DiffusionTracker,
    LayerRetention,
    TopKChurnTracker,
    accumulated_gradients,
    gradient_density,
    l2_distance,
    layer_retention_table,
    log_diffusion_fit,
    project_trajectories,
    trajectory_divergence,
)
from repro.core import DropBack
from repro.data import DataLoader, Dataset
from repro.models import mlp, mnist_100_100
from repro.optim import SGD, ConstantLR
from repro.train import Trainer


def _blobs(n=128, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int64)
    return Dataset(x, y)


class TestL2Distance:
    def test_zero_for_identical(self):
        w = np.ones(5)
        assert l2_distance(w, w) == 0.0

    def test_known_value(self):
        assert l2_distance(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(5.0)


class TestDiffusionTracker:
    def _run(self, tracker, epochs=2):
        ds = _blobs()
        m = mlp(4, (8,), 2).finalize(1)
        tr = Trainer(m, SGD(m, lr=0.3), schedule=ConstantLR(0.3), callbacks=[tracker])
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=epochs)
        return tracker

    def test_starts_at_zero(self):
        t = self._run(DiffusionTracker())
        steps, dist = t.series()
        assert steps[0] == 0 and dist[0] == 0.0

    def test_distance_grows(self):
        t = self._run(DiffusionTracker())
        _, dist = t.series()
        assert dist[-1] > 0.0
        assert dist[-1] >= dist[1] * 0.5  # roughly monotone envelope

    def test_log_spacing_grows_gaps(self):
        t = self._run(DiffusionTracker(log_spaced=True), epochs=5)
        steps, _ = t.series()
        gaps = np.diff(steps)
        assert gaps[-1] >= gaps[0]

    def test_linear_spacing(self):
        t = self._run(DiffusionTracker(log_spaced=False, every=2))
        steps, _ = t.series()
        assert all(s % 2 == 0 for s in steps)


class TestLogDiffusionFit:
    def test_recovers_log_relationship(self):
        t = np.arange(1, 200)
        d = 2.5 * np.log(t) + 1.0
        a, b = log_diffusion_fit(t, d)
        assert a == pytest.approx(2.5, rel=1e-6)
        assert b == pytest.approx(1.0, abs=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            log_diffusion_fit(np.array([0]), np.array([0.0]))


class TestAccumulatedGradients:
    def test_zero_right_after_finalize(self):
        m = mnist_100_100().finalize(3)
        np.testing.assert_allclose(accumulated_gradients(m), 0.0)

    def test_equals_weight_displacement(self):
        m = mlp(4, (8,), 2).finalize(1)
        w0 = np.concatenate([p.data.reshape(-1) for p in m.parameters()])
        ds = _blobs()
        tr = Trainer(m, SGD(m, lr=0.3))
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=1)
        w1 = np.concatenate([p.data.reshape(-1) for p in m.parameters()])
        np.testing.assert_allclose(accumulated_gradients(m), w1 - w0, atol=1e-6)

    def test_same_bytes_as_concatenating_parameters(self):
        m = mlp(4, (8,), 2).finalize(1)
        ds = _blobs()
        Trainer(m, SGD(m, lr=0.3)).fit(DataLoader(ds, 32, seed=0), ds, epochs=1)
        params = list(m.parameters())
        w = np.concatenate([p.data.reshape(-1) for p in params])
        w0 = np.concatenate([p.initial_values(m.seed).reshape(-1) for p in params])
        acc = accumulated_gradients(m)
        assert acc.dtype == (w - w0).dtype
        assert acc.tobytes() == (w - w0).tobytes()

    def test_explicit_w0(self):
        m = mlp(4, (8,), 2).finalize(1)
        w0 = np.zeros(m.num_parameters())
        acc = accumulated_gradients(m, w0)
        w = np.concatenate([p.data.reshape(-1) for p in m.parameters()])
        np.testing.assert_allclose(acc, w)

    def test_shape_mismatch_raises(self):
        m = mlp(4, (8,), 2).finalize(1)
        with pytest.raises(ValueError):
            accumulated_gradients(m, np.zeros(3))

    def test_distribution_peaked_at_zero_after_training(self, tiny_mnist):
        """Paper Fig. 1: most accumulated gradients stay near zero."""
        train, test = tiny_mnist
        m = mnist_100_100().finalize(9)
        tr = Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4))
        tr.fit(DataLoader(train, 64, seed=1), test, epochs=4)
        acc = accumulated_gradients(m)
        frac_tiny = np.mean(np.abs(acc) < 0.01)
        assert frac_tiny > 0.5  # bulk of weights barely move


class TestGradientDensity:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        grid, dens = gradient_density(rng.normal(size=5000))
        area = np.trapezoid(dens, grid)
        assert area == pytest.approx(1.0, abs=0.02)

    def test_peak_at_mode(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(loc=2.0, scale=0.1, size=3000)
        grid, dens = gradient_density(vals)
        assert abs(grid[np.argmax(dens)] - 2.0) < 0.05

    def test_large_input_subsampled(self):
        rng = np.random.default_rng(2)
        grid, dens = gradient_density(rng.normal(size=100_000))
        assert np.all(np.isfinite(dens))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gradient_density(np.array([]))

    def test_custom_grid(self):
        grid = np.linspace(-1, 1, 50)
        g, _ = gradient_density(np.zeros(100) + 0.1, grid=grid)
        np.testing.assert_array_equal(g, grid)


class TestTopKChurnTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            TopKChurnTracker(0)

    def test_first_entry_is_k(self):
        ds = _blobs()
        m = mlp(4, (8,), 2).finalize(1)
        cb = TopKChurnTracker(k=10)
        tr = Trainer(m, SGD(m, lr=0.3), callbacks=[cb])
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=1)
        assert cb.series()[0] == 10

    def test_series_matches_concatenated_weights(self, tiny_mnist):
        """Scores read from the plane give the swap series that scores from
        the concatenated parameters give, step for step."""
        from repro.core.selection import top_k_mask
        from repro.train import LambdaCallback

        train, test = tiny_mnist
        m = mnist_100_100().finalize(5)
        params = list(m.parameters())

        def flat():
            return np.concatenate([p.data.reshape(-1) for p in params]).astype(np.float64)

        w0 = flat()
        expected, prev = [], None

        def reference(trainer, step, loss):
            nonlocal prev
            mask = top_k_mask(np.abs(flat() - w0), 2000)
            expected.append(int(mask.sum() if prev is None else np.count_nonzero(mask & ~prev)))
            prev = mask

        cb = TopKChurnTracker(k=2000)
        tr = Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4),
                     callbacks=[cb, LambdaCallback(on_step_end=reference)])
        tr.fit(DataLoader(train, 50, seed=0), test, epochs=1)
        assert cb._w0.tobytes() == w0.tobytes()
        assert len(expected) == 12
        assert cb.series().tolist() == expected

    def test_churn_declines_under_sgd(self, tiny_mnist):
        """Fig. 2 for baseline SGD: top-k membership stabilizes."""
        train, test = tiny_mnist
        m = mnist_100_100().finalize(5)
        cb = TopKChurnTracker(k=2000)
        tr = Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4), callbacks=[cb])
        tr.fit(DataLoader(train, 50, seed=0), test, epochs=3)
        swaps = cb.series()
        assert np.mean(swaps[-6:]) < np.mean(swaps[1:4])


class TestPCA:
    def test_reconstructs_low_rank_structure(self):
        rng = np.random.default_rng(0)
        basis = rng.normal(size=(2, 50))
        coords = rng.normal(size=(100, 2))
        X = coords @ basis
        pca = PCA(2).fit(X)
        Z = pca.transform(X)
        # Projection preserves pairwise distances of a rank-2 dataset.
        d_orig = np.linalg.norm(X[0] - X[1])
        d_proj = np.linalg.norm(Z[0] - Z[1])
        assert d_proj == pytest.approx(d_orig, rel=1e-6)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 10))
        pca = PCA(3).fit(X)
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_gram_trick_matches_covariance_path(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 8))
        # n > d uses covariance path; transposed-ish shape uses Gram path.
        pca_cov = PCA(2).fit(X)  # 20 > 8 -> covariance
        Xc = X[:6]  # 6 < 8 -> gram
        pca_gram = PCA(2).fit(Xc)
        # both must satisfy the PCA variance-maximization property on their data
        for pca, data in ((pca_cov, X), (pca_gram, Xc)):
            Z = pca.transform(data)
            assert Z.var(axis=0)[0] >= Z.var(axis=0)[1] - 1e-12

    def test_explained_variance_sorted(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 12)) * np.linspace(5, 0.1, 12)
        pca = PCA(4).fit(X)
        ev = pca.explained_variance_
        assert np.all(np.diff(ev) <= 1e-9)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PCA(2).transform(np.ones((3, 4)))

    def test_invalid_components(self):
        with pytest.raises(ValueError):
            PCA(0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            PCA(1).fit(np.ones(5))


class TestProjectTrajectories:
    def test_joint_projection_shapes(self):
        rng = np.random.default_rng(0)
        trajs = {
            "a": rng.normal(size=(10, 100)),
            "b": rng.normal(size=(15, 100)),
        }
        out = project_trajectories(trajs, n_components=3)
        assert out["a"].shape == (10, 3)
        assert out["b"].shape == (15, 3)

    def test_mismatched_dims_raise(self):
        with pytest.raises(ValueError):
            project_trajectories({"a": np.ones((3, 5)), "b": np.ones((3, 6))})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            project_trajectories({})

    def test_identical_trajectories_have_zero_divergence(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(8, 3))
        assert trajectory_divergence(t, t) == pytest.approx(0.0)

    def test_divergence_orders_similarity(self):
        base = np.cumsum(np.ones((10, 3)) * 0.1, axis=0)
        near = base + 0.01
        far = base + 5.0
        assert trajectory_divergence(base, near) < trajectory_divergence(base, far)

    def test_divergence_needs_points(self):
        with pytest.raises(ValueError):
            trajectory_divergence(np.ones((1, 2)), np.ones((1, 2)))


class TestLayerRetention:
    def test_table_matches_optimizer_counts(self, tiny_mnist):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(6)
        opt = DropBack(m, k=3000, lr=0.4)
        tr = Trainer(m, opt, schedule=ConstantLR(0.4))
        tr.fit(DataLoader(train, 64, seed=0), test, epochs=1)
        rows = layer_retention_table(m, opt)
        total_row = rows[-1]
        assert total_row.layer == "Total"
        assert total_row.retained == 3000
        assert total_row.baseline_params == 89_610
        assert total_row.compression == pytest.approx(89_610 / 3000)

    def test_compression_infinite_when_empty(self):
        r = LayerRetention("x", 100, 0)
        assert r.compression == float("inf")

    def test_later_layers_keep_proportionally_more_at_tiny_k(self, tiny_mnist):
        """Paper Table 2: fc1 compressed ~107x while fc3 only ~4x at k=1.5k."""
        train, test = tiny_mnist
        m = mnist_100_100().finalize(6)
        opt = DropBack(m, k=1500, lr=0.4)
        tr = Trainer(m, opt, schedule=ConstantLR(0.4))
        tr.fit(DataLoader(train, 64, seed=0), test, epochs=2)
        rows = {r.layer: r for r in layer_retention_table(m, opt)}
        fc1 = rows["layers.1"]
        fc3 = rows["layers.5"]
        assert fc1.compression > fc3.compression
