"""Tests for the LeNet-5 variants and data transforms."""

import numpy as np
import pytest

from repro.core import DropBack
from repro.data import (
    AugmentedLoader,
    Compose,
    DataLoader,
    Dataset,
    GaussianNoise,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
)
from repro.models import lenet5, lenet5_bn, lenet5_prelu
from repro.optim import ConstantLR
from repro.tensor import Tensor
from repro.train import Trainer


def _x(n=2, c=1, s=28, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, c, s, s)).astype(np.float32))


class TestLeNet5:
    def test_forward_shapes(self):
        for factory in (lenet5, lenet5_prelu, lenet5_bn):
            m = factory().finalize(1)
            assert m(_x()).shape == (2, 10)

    def test_param_counts_close(self):
        base = lenet5().num_parameters()
        prelu = lenet5_prelu().num_parameters()
        bn = lenet5_bn().num_parameters()
        # PReLU adds one slope per activation channel/unit.
        assert prelu == base + 6 + 16 + 120 + 84
        # BN adds 2 params per conv channel.
        assert bn == base + 2 * (6 + 16)

    def test_prelu_slopes_are_prunable_parameters(self):
        m = lenet5_prelu().finalize(1)
        slopes = [p for n, p in m.named_parameters() if "slope" in n]
        assert slopes
        np.testing.assert_allclose(slopes[0].data, 0.25)

    def test_dropback_prunes_prelu_slopes(self, tiny_mnist):
        """The paper's unique claim: PReLU parameters participate in the
        budget, and untracked slopes regenerate to their 0.25 constant."""
        train, test = tiny_mnist
        m = lenet5_prelu().finalize(3)
        opt = DropBack(m, k=m.num_parameters() // 10, lr=0.1)
        Trainer(m, opt, schedule=ConstantLR(0.1)).fit(
            DataLoader(train, 64, seed=0), test, epochs=1
        )
        counts = opt.tracked_counts()
        slope_keys = [k for k in counts if "slope" in k]
        assert slope_keys
        # Untracked slopes sit exactly at the constant init.
        slopes = [p for n, p in m.named_parameters() if "slope" in n]
        at_init = sum(int(np.sum(p.data == 0.25)) for p in slopes)
        total = sum(p.size for p in slopes)
        tracked = sum(counts[k] for k in slope_keys)
        assert at_init >= total - tracked

    def test_lenet5_trains(self, tiny_mnist):
        train, test = tiny_mnist
        m = lenet5().finalize(3)
        from repro.optim import SGD

        h = Trainer(m, SGD(m, lr=0.1), schedule=ConstantLR(0.1)).fit(
            DataLoader(train, 64, seed=0), test, epochs=4
        )
        # Conv nets warm up slowly on the 600-sample fixture; well above
        # the 10% chance level is enough to prove the model learns.
        assert h.best_val_accuracy > 0.4


class TestTransforms:
    def _batch(self, n=8, c=3, s=8, seed=0):
        return np.random.default_rng(seed).random((n, c, s, s)).astype(np.float32)

    def test_normalize(self):
        x = self._batch()
        t = Normalize(mean=[0.5, 0.5, 0.5], std=[0.25, 0.25, 0.25])
        out = t(x, np.random.default_rng(0))
        np.testing.assert_allclose(out, (x - 0.5) / 0.25, rtol=1e-6)

    def test_normalize_validation(self):
        with pytest.raises(ValueError):
            Normalize([0.0], [0.0])

    def test_flip_probability_extremes(self):
        x = self._batch()
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(RandomHorizontalFlip(0.0)(x, rng), x)
        flipped = RandomHorizontalFlip(1.0)(x, rng)
        np.testing.assert_array_equal(flipped, x[:, :, :, ::-1])

    def test_flip_preserves_content(self):
        x = self._batch()
        out = RandomHorizontalFlip(0.5)(x, np.random.default_rng(1))
        # Every image is either itself or its mirror.
        for i in range(len(x)):
            same = np.array_equal(out[i], x[i])
            mirrored = np.array_equal(out[i], x[i, :, :, ::-1])
            assert same or mirrored

    def test_flip_validation(self):
        with pytest.raises(ValueError):
            RandomHorizontalFlip(1.5)

    def test_crop_shape_preserved(self):
        x = self._batch()
        out = RandomCrop(2)(x, np.random.default_rng(0))
        assert out.shape == x.shape

    def test_crop_centers_content(self):
        # A crop with offset exactly p recovers the original image.
        x = self._batch(n=200)
        out = RandomCrop(2)(x, np.random.default_rng(0))
        recovered = sum(np.array_equal(out[i], x[i]) for i in range(len(x)))
        assert recovered > 0  # offset (p, p) occurs with prob 1/25 per image

    def test_crop_validation(self):
        with pytest.raises(ValueError):
            RandomCrop(0)

    def test_noise_statistics(self):
        x = np.zeros((4, 1, 32, 32), np.float32)
        out = GaussianNoise(0.1)(x, np.random.default_rng(0))
        assert abs(out.std() - 0.1) < 0.01

    def test_noise_zero_sigma_identity(self):
        x = self._batch()
        assert GaussianNoise(0.0)(x, np.random.default_rng(0)) is x

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)

    def test_compose_order(self):
        x = np.ones((1, 1, 4, 4), np.float32)
        t = Compose([Normalize([1.0], [2.0]), GaussianNoise(0.0)])
        out = t(x, np.random.default_rng(0))
        np.testing.assert_allclose(out, 0.0)

    def test_augmented_loader(self):
        ds = Dataset(self._batch(16), np.zeros(16, np.int64))
        base = DataLoader(ds, 8, shuffle=False)
        aug = AugmentedLoader(base, RandomHorizontalFlip(1.0), seed=0)
        assert len(aug) == 2
        (xb, yb), (x0, y0) = next(iter(aug)), next(iter(base))
        np.testing.assert_array_equal(xb, x0[:, :, :, ::-1])
        np.testing.assert_array_equal(yb, y0)

    def test_augmented_training_runs(self, tiny_mnist):
        train, test = tiny_mnist
        from repro.models import mnist_100_100
        from repro.optim import SGD

        m = mnist_100_100().finalize(1)
        loader = AugmentedLoader(
            DataLoader(train, 64, seed=0),
            Compose([GaussianNoise(0.02)]),
            seed=1,
        )
        h = Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4)).fit(loader, test, epochs=2)
        assert h.best_val_accuracy > 0.6
