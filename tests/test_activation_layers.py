"""Tests for the activation layer classes (LeakyReLU, ELU, GELU, Softplus)."""

import numpy as np
import pytest

from repro.nn import ELU, GELU, LeakyReLU, Linear, Sequential, Softplus
from repro.tensor import Tensor


def _x(vals):
    return Tensor(np.asarray(vals, dtype=np.float64))


class TestActivationLayers:
    def test_leaky_relu_layer(self):
        layer = LeakyReLU(0.1)
        out = layer(_x([-1.0, 2.0])).numpy()
        np.testing.assert_allclose(out, [-0.1, 2.0])

    def test_elu_layer(self):
        layer = ELU(alpha=2.0)
        out = layer(_x([-100.0, 3.0])).numpy()
        assert out[0] == pytest.approx(-2.0, abs=1e-6)
        assert out[1] == 3.0

    def test_gelu_layer(self):
        layer = GELU()
        assert layer(_x([0.0])).numpy()[0] == 0.0

    def test_softplus_layer(self):
        layer = Softplus()
        assert layer(_x([0.0])).numpy()[0] == pytest.approx(np.log(2))

    def test_layers_have_no_parameters(self):
        for layer in (LeakyReLU(), ELU(), GELU(), Softplus()):
            assert list(layer.named_parameters()) == []

    def test_reprs(self):
        assert "0.01" in repr(LeakyReLU())
        assert "ELU" in repr(ELU())
        assert repr(GELU()) == "GELU()"
        assert repr(Softplus()) == "Softplus()"

    @pytest.mark.parametrize("act", [LeakyReLU(), ELU(), GELU(), Softplus()])
    def test_usable_in_sequential_training(self, act):
        rng = np.random.default_rng(0)
        m = Sequential(Linear(4, 8), act, Linear(8, 2)).finalize(1)
        from repro.optim import SGD
        from repro.tensor import cross_entropy

        opt = SGD(m, lr=0.2)
        x = Tensor(rng.normal(size=(32, 4)).astype(np.float32))
        y = (rng.normal(size=32) > 0).astype(np.int64)
        first = last = None
        for _ in range(20):
            m.zero_grad()
            loss = cross_entropy(m(x), y)
            loss.backward()
            opt.step()
            last = loss.item()
            first = first if first is not None else last
        assert last < first  # every activation supports learning
