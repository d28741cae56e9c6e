"""Tests for FLOP counting, seed statistics, and quantized checkpoints."""


import numpy as np
import pytest

from repro.analysis import (
    SeedStats,
    count_flops,
    regen_overhead_ratio,
    seed_sweep,
    summarize,
)
from repro.core import DropBack
from repro.data import DataLoader
from repro.io import (
    load_sparse_quantized,
    read_sparse_payload,
    save_sparse,
    save_sparse_quantized,
)
from repro.models import lenet5, mlp, mnist_100_100, vgg_s
from repro.nn import Linear, Sequential
from repro.optim import ConstantLR
from repro.tensor import Tensor, cross_entropy
from repro.train import Trainer, evaluate


class TestCountFlops:
    def test_linear_flops_exact(self):
        m = Sequential(Linear(10, 5))
        lf = count_flops(m, (10,))
        assert lf[0].flops == 2 * 10 * 5 + 5
        assert lf[0].out_shape == (5,)

    def test_linear_no_bias(self):
        m = Sequential(Linear(10, 5, bias=False))
        assert count_flops(m, (10,))[0].flops == 100

    def test_mnist_mlp_total(self):
        m = mnist_100_100()
        total = sum(lf.flops for lf in count_flops(m, (1, 28, 28)))
        # ~2 FLOPs per weight + biases: just under 180k.
        assert 2 * 89_400 < total < 2 * 89_610 + 1000

    def test_conv_net_shapes_propagate(self):
        m = lenet5()
        layers = count_flops(m, (1, 28, 28))
        assert layers[-1].out_shape == (10,)
        conv_flops = layers[0].flops
        # conv1: 6 out x 28x28 x 1x5x5 MACs x2 + bias adds.
        assert conv_flops == 2 * 6 * 28 * 28 * 25 + 6 * 28 * 28

    def test_conv_dominates_fc_in_vgg(self):
        m = vgg_s(width_mult=0.25)
        layers = count_flops(m, (3, 32, 32))
        conv = sum(lf.flops for lf in layers if lf.layer.startswith("Conv2d"))
        fc = sum(lf.flops for lf in layers if lf.layer.startswith("Linear"))
        assert conv > 10 * fc

    def test_non_sequential_rejected(self):
        from repro.models import wrn_10_1

        with pytest.raises(TypeError):
            count_flops(wrn_10_1(), (3, 16, 16))


class TestRegenOverhead:
    def test_small_for_conv_nets(self):
        m = lenet5()
        ratio = regen_overhead_ratio(m, (1, 28, 28), k=m.num_parameters() // 10)
        # Regeneration is a tiny fraction of the conv arithmetic.
        assert ratio < 0.5

    def test_decreases_with_larger_k(self):
        m = mnist_100_100()
        r_small_k = regen_overhead_ratio(m, (1, 28, 28), k=1_000)
        r_large_k = regen_overhead_ratio(m, (1, 28, 28), k=80_000)
        assert r_large_k < r_small_k

    def test_zero_when_all_tracked(self):
        m = mnist_100_100()
        assert regen_overhead_ratio(m, (1, 28, 28), k=m.num_parameters()) == 0.0


class TestSeedStats:
    def test_basic_statistics(self):
        s = SeedStats((1.0, 2.0, 3.0))
        assert s.mean == 2.0
        assert s.min == 1.0 and s.max == 3.0
        assert s.std == pytest.approx(1.0)
        assert s.n == 3

    def test_single_value_std_zero(self):
        s = SeedStats((5.0,))
        assert s.std == 0.0
        assert s.confidence_interval() == (5.0, 5.0)

    def test_confidence_interval_brackets_mean(self):
        s = SeedStats((1.0, 2.0, 3.0, 4.0))
        lo, hi = s.confidence_interval()
        assert lo < s.mean < hi

    def test_str_format(self):
        assert "n=2" in str(SeedStats((1.0, 2.0)))

    def test_seed_sweep_runs_all(self):
        calls = []

        def run(seed):
            calls.append(seed)
            return seed * 0.1

        s = seed_sweep(run, [1, 2, 3])
        assert calls == [1, 2, 3]
        assert s.mean == pytest.approx(0.2)

    def test_seed_sweep_empty_rejected(self):
        with pytest.raises(ValueError):
            seed_sweep(lambda s: 0.0, [])

    def test_seed_sweep_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            seed_sweep(lambda s: float("nan"), [1])

    def test_summarize(self):
        text = summarize({"err": SeedStats((0.1, 0.2)), "acc": SeedStats((0.9,))})
        assert "err" in text and "acc" in text

    def test_training_across_seeds_has_modest_variance(self, tiny_mnist):
        """Integration: three seeds of DropBack 10x give consistent error."""
        train, test = tiny_mnist

        def run(seed):
            m = mnist_100_100().finalize(seed)
            opt = DropBack(m, k=9_000, lr=0.4)
            h = Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
                DataLoader(train, 64, seed=0), test, epochs=4
            )
            return h.best_val_error

        s = seed_sweep(run, [1, 2, 3])
        assert s.std < 0.1
        assert s.mean < 0.35


class TestQuantizedCheckpoint:
    def _trained(self, tiny_mnist, k=4000):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(3)
        opt = DropBack(m, k=k, lr=0.4)
        Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
            DataLoader(train, 64, seed=0), test, epochs=2
        )
        return m, opt, test

    def test_roundtrip_accuracy_close(self, tmp_path, tiny_mnist):
        m, opt, test = self._trained(tiny_mnist)
        path = str(tmp_path / "q.npz")
        save_sparse_quantized(m, opt, path, bits=8)
        m2 = load_sparse_quantized(mnist_100_100(), path)
        assert abs(evaluate(m2, test) - evaluate(m, test)) < 0.05

    def test_untracked_still_exact(self, tmp_path, tiny_mnist):
        m, opt, test = self._trained(tiny_mnist)
        path = str(tmp_path / "q.npz")
        save_sparse_quantized(m, opt, path, bits=8)
        m2 = load_sparse_quantized(mnist_100_100(), path)
        mask = opt.tracked_mask
        flat2 = np.concatenate([p.data.reshape(-1) for p in m2.parameters()])
        w0 = np.concatenate([p.initial_values(3).reshape(-1) for p in m2.parameters()])
        np.testing.assert_array_equal(flat2[~mask], w0[~mask])

    def _zero_untracked_step(self):
        m = mlp(6, (8,), 3).finalize(11)
        opt = DropBack(m, k=9, lr=0.3, zero_untracked=True)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(16, 6)).astype(np.float32))
        cross_entropy(m(x), rng.integers(0, 3, size=16)).backward()
        opt.step()
        return m, opt

    def test_zero_untracked_survives_round_trip(self, tmp_path):
        m, opt = self._zero_untracked_step()
        path = str(tmp_path / "q.npz")
        save_sparse_quantized(m, opt, path, bits=8)
        m2 = load_sparse_quantized(mlp(6, (8,), 3), path)
        np.testing.assert_array_equal(m2.weight_plane[~opt.tracked_mask], 0.0)

    def test_file_without_the_flag_regenerates(self, tmp_path):
        """Files written before the flag was stored still load, as W(0)."""
        m, opt = self._zero_untracked_step()
        path = str(tmp_path / "q.npz")
        save_sparse_quantized(m, opt, path, bits=8)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != "zero_untracked"}
        np.savez(path, **arrays)
        assert read_sparse_payload(path).zero_untracked is False

    def test_smaller_than_float_sparse(self, tmp_path, tiny_mnist):
        import os

        m, opt, test = self._trained(tiny_mnist, k=8000)
        qp = str(tmp_path / "q.npz")
        sp = str(tmp_path / "s.npz")
        save_sparse_quantized(m, opt, qp, bits=8)
        save_sparse(m, opt, sp)
        assert os.path.getsize(qp) < os.path.getsize(sp)

    def test_requires_trained(self, tmp_path):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=100, lr=0.4)
        with pytest.raises(RuntimeError):
            save_sparse_quantized(m, opt, str(tmp_path / "x.npz"))

    def test_values_snap_to_grid(self, tmp_path, tiny_mnist):
        m, opt, test = self._trained(tiny_mnist)
        path = str(tmp_path / "q.npz")
        save_sparse_quantized(m, opt, path, bits=8)
        with np.load(path) as data:
            q = data["q_values"]
            assert q.dtype == np.int8
            assert int(data["bits"]) == 8
