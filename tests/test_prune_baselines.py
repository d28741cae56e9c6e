"""Tests for the baseline pruning techniques (magnitude, VD, slimming)."""

import numpy as np
import pytest

from repro.models import mlp, mnist_100_100, wrn_10_1
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.optim import SGD
from repro.prune import (
    LOG_ALPHA_THRESHOLD,
    MagnitudePruning,
    SlimmingSGD,
    VDLinear,
    bn_gammas,
    make_variational,
    prune_channels,
    slimming_compression,
    total_kl,
    vd_loss_fn,
    vd_sparsity,
)
from repro.tensor import Tensor, cross_entropy


def _step(model, opt, in_dim=6, classes=3, seed=0, loss_fn=cross_entropy):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(16, in_dim)).astype(np.float32))
    y = rng.integers(0, classes, size=16)
    model.zero_grad()
    loss = loss_fn(model(x), y)
    loss.backward()
    opt.step()
    return loss.item()


class TestMagnitudePruning:
    def test_sparsity_enforced_each_step(self):
        m = mlp(6, (8,), 3).finalize(1)
        opt = MagnitudePruning(m, lr=0.2, prune_fraction=0.75)
        for s in range(3):
            _step(m, opt, seed=s)
            assert opt.sparsity() == pytest.approx(0.75, abs=0.01)

    def test_keeps_largest_weights(self):
        m = mlp(6, (8,), 3).finalize(1)
        opt = MagnitudePruning(m, lr=1e-12, prune_fraction=0.5)
        w_before = np.concatenate(
            [p.data.reshape(-1) for name, p in m.named_parameters() if name.endswith("weight")]
        )
        _step(m, opt)
        w_after = np.concatenate(
            [p.data.reshape(-1) for name, p in m.named_parameters() if name.endswith("weight")]
        )
        surviving = np.abs(w_before[w_after != 0])
        pruned = np.abs(w_before[w_after == 0])
        assert surviving.min() >= pruned.max() - 1e-9

    def test_biases_untouched_by_default(self):
        m = mlp(6, (8,), 3).finalize(1)
        opt = MagnitudePruning(m, lr=0.2, prune_fraction=0.9)
        for s in range(3):
            _step(m, opt, seed=s)
        biases = [p for name, p in m.named_parameters() if name.endswith("bias")]
        # biases get SGD updates but never forced to zero en masse
        assert all(np.count_nonzero(b.data) > 0 for b in biases if b.size > 2)

    def test_compression_ratio(self):
        m = mnist_100_100().finalize(1)
        opt = MagnitudePruning(m, lr=0.1, prune_fraction=0.8)
        assert 4.0 < opt.compression_ratio < 5.1

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5])
    def test_invalid_fraction(self, bad):
        with pytest.raises(ValueError):
            MagnitudePruning(mlp(4, (4,), 2).finalize(1), lr=0.1, prune_fraction=bad)

    def test_zeroed_weights_differ_from_dropback_regeneration(self):
        """Magnitude pruning zeroes; DropBack regenerates — the paper's key
        structural difference (its Fig. 5 explanation)."""
        m = mlp(6, (8,), 3).finalize(1)
        opt = MagnitudePruning(m, lr=0.2, prune_fraction=0.75)
        _step(m, opt)
        w = np.concatenate(
            [p.data.reshape(-1) for name, p in m.named_parameters() if name.endswith("weight")]
        )
        w0 = np.concatenate(
            [
                p.initial_values(1).reshape(-1)
                for name, p in m.named_parameters()
                if name.endswith("weight")
            ]
        )
        dropped = w == 0
        # dropped weights were NOT zero at init: information destroyed.
        assert np.abs(w0[dropped]).mean() > 0


class TestVariationalDropout:
    def _vd_model(self, seed=1):
        m = make_variational(mlp(6, (8,), 3))
        return m.finalize(seed)

    def test_conversion_swaps_layers(self):
        m = make_variational(mlp(6, (8,), 3))
        kinds = [type(x).__name__ for x in m.modules()]
        assert "VDLinear" in kinds
        assert "Linear" not in kinds

    def test_conversion_on_conv_model(self):
        m = make_variational(wrn_10_1())
        kinds = [type(x).__name__ for x in m.modules()]
        assert "VDConv2d" in kinds
        assert "Conv2d" not in kinds
        assert "VDLinear" in kinds

    def test_param_count_doubles_weights(self):
        base = mlp(6, (8,), 3).num_parameters()
        vd = make_variational(mlp(6, (8,), 3)).num_parameters()
        weights = 6 * 8 + 8 * 3
        assert vd == base + weights

    def test_forward_is_stochastic_in_train(self):
        m = self._vd_model()
        x = Tensor(np.ones((4, 6), np.float32))
        a = m(x).numpy().copy()
        b = m(x).numpy().copy()
        assert not np.array_equal(a, b)

    def test_forward_deterministic_in_eval(self):
        m = self._vd_model()
        m.eval()
        x = Tensor(np.ones((4, 6), np.float32))
        np.testing.assert_array_equal(m(x).numpy(), m(x).numpy())

    def test_kl_finite_and_negative_at_init(self):
        # At init log_sigma2=-8 => alpha tiny => KL ~ 0 (slightly positive).
        m = self._vd_model()
        kl = total_kl(m).item()
        assert np.isfinite(kl)
        assert kl >= -1e-3

    def test_total_kl_requires_vd_layers(self):
        with pytest.raises(ValueError):
            total_kl(mlp(4, (4,), 2).finalize(1))

    def test_sparsity_zero_at_init(self):
        assert vd_sparsity(self._vd_model()) == 0.0

    def test_kl_pressure_creates_sparsity(self):
        m = self._vd_model()
        loss_fn = vd_loss_fn(m, n_train=16, kl_weight=50.0)
        opt = SGD(m, lr=0.1)
        for s in range(100):
            _step(m, opt, seed=s % 4, loss_fn=loss_fn)
        assert vd_sparsity(m) > 0.3

    def test_pruned_weights_silent_at_inference(self):
        m = self._vd_model()
        layer = [x for x in m.modules() if isinstance(x, VDLinear)][0]
        # force all alphas huge
        layer.log_sigma2.data[...] = 20.0
        m.eval()
        assert layer.sparsity() == 1.0
        x = Tensor(np.ones((2, 6), np.float32))
        out = m(x).numpy()
        assert np.all(np.isfinite(out))

    def test_vd_loss_fn_validation(self):
        with pytest.raises(ValueError):
            vd_loss_fn(self._vd_model(), n_train=0)

    def test_threshold_constant(self):
        assert LOG_ALPHA_THRESHOLD == 3.0


class TestNetworkSlimming:
    def _conv_model(self, seed=1):
        return wrn_10_1(in_channels=3).finalize(seed)

    def test_requires_batchnorm(self):
        m = mlp(6, (8,), 3).finalize(1)
        with pytest.raises(ValueError):
            SlimmingSGD(m, lr=0.1)

    def test_l1_shrinks_gammas(self):
        m = self._conv_model()
        opt = SlimmingSGD(m, lr=0.1, l1=0.05)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3, 16, 16)).astype(np.float32))
        y = rng.integers(0, 10, size=4)
        g0 = np.concatenate([bn.gamma.data for bn in bn_gammas(m)])
        for _ in range(10):
            m.zero_grad()
            loss = cross_entropy(m(x), y)
            loss.backward()
            opt.step()
        g1 = np.concatenate([bn.gamma.data for bn in bn_gammas(m)])
        assert np.abs(g1).mean() < np.abs(g0).mean()

    def test_prune_channels_zeroes_smallest(self):
        m = self._conv_model()
        # make gammas distinct
        for i, bn in enumerate(bn_gammas(m)):
            bn.gamma.data = np.linspace(0.01, 1.0, bn.num_features).astype(np.float32) + i
        masks = prune_channels(m, 0.3)
        total = sum(len(v) for v in masks.values())
        dead = sum(int((~v).sum()) for v in masks.values())
        n_prune = round(0.3 * total)
        # The keep-strongest-channel fallback may rescue one channel per
        # fully-below-threshold layer.
        assert n_prune - len(masks) <= dead <= n_prune

    def test_prune_zero_fraction_is_noop(self):
        m = self._conv_model()
        before = [bn.gamma.data.copy() for bn in bn_gammas(m)]
        prune_channels(m, 0.0)
        for bn, prev in zip(bn_gammas(m), before):
            np.testing.assert_array_equal(bn.gamma.data, prev)

    def test_never_kills_whole_layer(self):
        m = self._conv_model()
        prune_channels(m, 0.95)
        for bn in bn_gammas(m):
            assert np.count_nonzero(bn.gamma.data) >= 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            prune_channels(self._conv_model(), 1.0)

    def test_compression_increases_with_pruning(self):
        m = self._conv_model()
        base = slimming_compression(m)
        prune_channels(m, 0.5)
        assert slimming_compression(m) > base
        assert base == pytest.approx(1.0, abs=0.01)

    def test_pruned_channels_are_dead_end_to_end(self):
        """A zeroed BN channel contributes nothing to the output."""
        m = Sequential(
            Conv2d(1, 4, 3, padding=1, bias=False),
            BatchNorm2d(4),
            ReLU(),
            Flatten(),
            Linear(4 * 4 * 4, 2),
        ).finalize(1)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)).astype(np.float32))
        m.eval()
        bn = m[1]
        bn.gamma.data[...] = np.array([1, 1, 0, 0], np.float32)
        bn.beta.data[...] = 0.0
        out1 = m(x).numpy().copy()
        # Changing the dead channels' incoming conv filters must not matter.
        m[0].weight.data[2:] += 100.0
        out2 = m(x).numpy()
        np.testing.assert_allclose(out1, out2, atol=1e-4)

    def test_slimming_l1_validation(self):
        with pytest.raises(ValueError):
            SlimmingSGD(self._conv_model(), lr=0.1, l1=-1.0)
