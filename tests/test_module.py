"""Tests for the Module/Parameter system and finalize semantics."""

import numpy as np
import pytest

from repro.init import ConstantInit, ScaledNormalInit
from repro.models import mnist_100_100
from repro.nn import Linear, Module, Parameter, ReLU, Sequential


class TestParameter:
    def test_requires_grad(self):
        p = Parameter((3, 2), ScaledNormalInit(0.1))
        assert p.requires_grad

    def test_unfinalized_initial_values_raises(self):
        p = Parameter((3,), ConstantInit(0.0))
        with pytest.raises(RuntimeError):
            p.initial_values(0)

    def test_initialize_sets_values_and_index(self):
        p = Parameter((4, 5), ScaledNormalInit(0.1))
        p.initialize(7, 100)
        assert p.base_index == 100
        np.testing.assert_array_equal(
            p.data, ScaledNormalInit(0.1).regenerate(7, 100, (4, 5))
        )

    def test_initial_values_pure(self):
        p = Parameter((4,), ScaledNormalInit(0.5))
        p.initialize(3, 10)
        w0 = p.initial_values(3)
        p.data = p.data + 100.0  # training moves weights
        np.testing.assert_array_equal(w0, p.initial_values(3))

    def test_repr(self):
        p = Parameter((2,), ConstantInit(0.0))
        assert "Parameter" in repr(p)


class TestModuleDiscovery:
    def test_named_parameters_order_stable(self):
        m = mnist_100_100()
        names = [n for n, _ in m.named_parameters()]
        assert names == [
            "layers.1.weight",
            "layers.1.bias",
            "layers.3.weight",
            "layers.3.bias",
            "layers.5.weight",
            "layers.5.bias",
        ]

    def test_parameters_count(self):
        m = mnist_100_100()
        assert m.num_parameters() == 89610

    def test_modules_traversal(self):
        m = Sequential(Linear(2, 3), ReLU(), Sequential(Linear(3, 1)))
        kinds = [type(x).__name__ for x in m.modules()]
        assert kinds.count("Linear") == 2
        assert kinds.count("Sequential") == 2
        assert kinds.count("ReLU") == 1

    def test_nested_attribute_modules(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2)
                self.b = Linear(2, 1)

            def forward(self, x):
                return self.b(self.a(x).relu())

        names = [n for n, _ in Net().named_parameters()]
        assert names == ["a.weight", "a.bias", "b.weight", "b.bias"]


class TestFinalize:
    def test_consecutive_index_ranges(self):
        m = mnist_100_100().finalize(5)
        offset = 0
        for _, p in m.named_parameters():
            assert p.base_index == offset
            offset += p.size
        assert offset == m.num_parameters()

    def test_same_seed_same_weights(self):
        a = mnist_100_100().finalize(9)
        b = mnist_100_100().finalize(9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = mnist_100_100().finalize(9)
        b = mnist_100_100().finalize(10)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
            if pa.size > 10 and pa.data.std() > 0  # skip constant inits
        )

    def test_seed_property(self):
        m = mnist_100_100()
        assert not m.is_finalized
        with pytest.raises(RuntimeError):
            _ = m.seed
        m.finalize(3)
        assert m.seed == 3
        assert m.is_finalized

    def test_optimizer_requires_finalized(self):
        from repro.optim import SGD

        with pytest.raises(RuntimeError):
            SGD(mnist_100_100(), lr=0.1)

    def test_weight_std_matches_lecun(self):
        m = mnist_100_100().finalize(11)
        w = dict(m.named_parameters())["layers.1.weight"].data
        assert abs(w.std() - 1.0 / np.sqrt(784)) < 0.002

    def test_bias_initialized_zero(self):
        m = mnist_100_100().finalize(11)
        b = dict(m.named_parameters())["layers.1.bias"].data
        np.testing.assert_array_equal(b, 0.0)


class TestTrainEvalAndGrads:
    def test_train_eval_propagates(self):
        m = Sequential(Linear(2, 2), Sequential(Linear(2, 2)))
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())

    def test_zero_grad(self):
        from repro.tensor import Tensor

        m = mnist_100_100().finalize(1)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 28, 28)).astype(np.float32))
        m(x).sum().backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestStateDict:
    def test_roundtrip(self):
        m1 = mnist_100_100().finalize(1)
        m2 = mnist_100_100().finalize(2)
        m2.load_state_dict(m1.state_dict())
        for pa, pb in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_is_copy(self):
        m = mnist_100_100().finalize(1)
        st = m.state_dict()
        st["layers.1.weight"][...] = 0
        assert m.parameters()[0].data.std() > 0

    def test_unknown_key_raises(self):
        m = mnist_100_100().finalize(1)
        with pytest.raises(KeyError):
            m.load_state_dict({"nope": np.zeros(3)})

    def test_shape_mismatch_raises(self):
        m = mnist_100_100().finalize(1)
        with pytest.raises(ValueError):
            m.load_state_dict({"layers.1.weight": np.zeros((2, 2))})

    def test_batchnorm_buffers_in_state(self):
        from repro.models import wrn_10_1

        m = wrn_10_1().finalize(1)
        st = m.state_dict()
        assert any("running_mean" in k for k in st)
        assert any("running_var" in k for k in st)

    def test_buffer_roundtrip(self):
        from repro.models import wrn_10_1

        m1 = wrn_10_1().finalize(1)
        # mutate a buffer
        next(iter(m1._named_buffers()))[2][...] = 7.0
        m2 = wrn_10_1().finalize(2)
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(next(iter(m2._named_buffers()))[2], 7.0)
