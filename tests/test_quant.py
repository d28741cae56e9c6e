"""Tests for the quantization extension (paper Section 5: orthogonal,
combinable with DropBack)."""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.models import mnist_100_100
from repro.optim import ConstantLR
from repro.quant import (
    QuantizedDropBack,
    QuantizedSGD,
    UniformQuantizer,
    quantization_error,
    quantize_model,
)
from repro.train import Trainer, evaluate


class TestUniformQuantizer:
    def test_roundtrip_bounded_error(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=1000)
        q = UniformQuantizer(bits=8)
        back = q.roundtrip(vals)
        scale = q.scale_for(vals)
        assert np.abs(back - vals).max() <= scale * 0.5 + 1e-9

    def test_int_range_respected(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=500) * 10
        q = UniformQuantizer(bits=4)
        ints, _ = q.quantize(vals)
        assert ints.max() <= 7 and ints.min() >= -7

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=2000)
        errs = [quantization_error(vals, b) for b in (2, 4, 8, 12)]
        assert errs == sorted(errs, reverse=True)

    def test_zero_tensor(self):
        q = UniformQuantizer(bits=8)
        back = q.roundtrip(np.zeros(10))
        np.testing.assert_array_equal(back, 0.0)

    def test_stochastic_rounding_unbiased(self):
        q = UniformQuantizer(bits=4, stochastic=True, seed=0)
        # A value exactly between grid points should round up half the time.
        vals = np.full(20_000, 0.35)
        scale = 1.0 / q.qmax
        ints, _ = q.quantize(vals, scale=scale)
        mean = ints.mean() * scale
        assert abs(mean - 0.35) < 0.01

    def test_deterministic_rounding_is_stable(self):
        q = UniformQuantizer(bits=8)
        vals = np.linspace(-1, 1, 100)
        np.testing.assert_array_equal(q.roundtrip(vals), q.roundtrip(vals))

    @pytest.mark.parametrize("bad", [1, 17, 0])
    def test_bits_validation(self, bad):
        with pytest.raises(ValueError):
            UniformQuantizer(bits=bad)

    def test_repr(self):
        assert "8" in repr(UniformQuantizer(bits=8))


class TestQuantizeModel:
    def test_weights_snap_to_grid(self):
        m = mnist_100_100().finalize(1)
        scales = quantize_model(m, bits=8)
        for name, p in m.named_parameters():
            if p.data.std() == 0:
                continue
            grid = p.data / scales[name]
            np.testing.assert_allclose(grid, np.round(grid), atol=1e-4)

    def test_accuracy_survives_8bit(self, tiny_mnist):
        train, test = tiny_mnist
        from repro.optim import SGD

        m = mnist_100_100().finalize(1)
        Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4)).fit(
            DataLoader(train, 64, seed=0), test, epochs=4
        )
        acc_fp = evaluate(m, test)
        quantize_model(m, bits=8)
        acc_q = evaluate(m, test)
        assert acc_q > acc_fp - 0.03


class TestQuantizedDropBack:
    def _train(self, opt_cls, tiny_mnist, epochs=4, **kw):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(5)
        opt = opt_cls(m, lr=0.4, **kw)
        Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
            DataLoader(train, 64, seed=0), test, epochs=epochs
        )
        return m, opt, evaluate(m, test)

    def test_untracked_still_exact_after_quantization(self, tiny_mnist):
        m, opt, _ = self._train(QuantizedDropBack, tiny_mnist, k=5_000, bits=8)
        assert opt.untracked_values_match_init()

    def test_learns_at_8bit(self, tiny_mnist):
        # DropBack learns more slowly early (paper Fig. 3): give it the
        # epochs it needs on the tiny fixture.
        _, _, acc = self._train(QuantizedDropBack, tiny_mnist, epochs=7, k=10_000, bits=8)
        assert acc > 0.7  # clearly learning; 8-bit rounding noise costs a bit

    def test_total_compression_multiplies(self):
        m = mnist_100_100().finalize(1)
        opt = QuantizedDropBack(m, k=8_961, lr=0.4, bits=8)
        assert opt.total_compression == pytest.approx(10.0 * 4.0)

    def test_storage_bits(self):
        m = mnist_100_100().finalize(1)
        opt = QuantizedDropBack(m, k=1_000, lr=0.4, bits=4)
        assert opt.storage_bits() == 4_000

    def test_budget_invariant_still_holds(self, tiny_mnist):
        m, opt, _ = self._train(QuantizedDropBack, tiny_mnist, k=2_000, bits=8)
        seed = m.seed
        diffs = sum(
            int(np.count_nonzero(p.data != p.initial_values(seed))) for p in m.parameters()
        )
        assert diffs <= 2_000


class TestQuantizedSGD:
    def test_learns_at_8bit(self, tiny_mnist):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(5)
        opt = QuantizedSGD(m, lr=0.4, bits=8)
        Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
            DataLoader(train, 64, seed=0), test, epochs=4
        )
        assert evaluate(m, test) > 0.8

    def test_storage_bits_dense(self):
        m = mnist_100_100().finalize(1)
        assert QuantizedSGD(m, lr=0.4, bits=8).storage_bits() == 89_610 * 8

    def test_low_bits_degrade(self, tiny_mnist):
        train, test = tiny_mnist
        accs = {}
        for bits in (2, 8):
            m = mnist_100_100().finalize(5)
            opt = QuantizedSGD(m, lr=0.4, bits=bits)
            Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
                DataLoader(train, 64, seed=0), test, epochs=3
            )
            accs[bits] = evaluate(m, test)
        assert accs[8] > accs[2]
