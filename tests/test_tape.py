"""The autograd tape holds no reference cycle.

An op's backward function returns one gradient (or ``None``) per parent
and never refers to the tensor it belongs to, so a graph is freed by
reference counting as soon as its last tensor goes.  These tests run with
the cyclic garbage collector disabled: anything it would have to free
shows up as a live object or a non-zero ``gc.collect()``.
"""

from __future__ import annotations

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import tensor as T
from repro.core import DropBack
from repro.models import densenet_tiny, lenet5_bn, lenet5_prelu, mnist_100_100, vgg_s, wrn_10_1
from repro.tensor import Tensor, cross_entropy

TENSOR_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "tensor"

NCHW = (2, 3, 4, 4)


def _leaf(*shape, low=0.5, high=1.5):
    rng = np.random.default_rng(len(shape) * 7 + shape[-1])
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True)


def _signed(*shape):
    return _leaf(*shape, low=-1.0, high=1.0)


# One builder per function that calls Tensor.from_op, keyed by its name.
OPS = {
    "__add__": lambda: _leaf(*NCHW) + _leaf(3, 1, 1),
    "__neg__": lambda: -_leaf(*NCHW),
    "__sub__": lambda: _leaf(*NCHW) - _leaf(*NCHW),
    "__mul__": lambda: _leaf(*NCHW) * _leaf(*NCHW),
    "__truediv__": lambda: _leaf(*NCHW) / _leaf(*NCHW),
    "__pow__": lambda: _leaf(*NCHW) ** 3,
    "__matmul__": lambda: _leaf(*NCHW) @ _leaf(4, 5),
    "reshape": lambda: _leaf(*NCHW).reshape(2, -1),
    "transpose": lambda: _leaf(*NCHW).transpose(),
    "__getitem__": lambda: _leaf(*NCHW)[0, 1:],
    "sum": lambda: _leaf(*NCHW).sum(axis=1),
    "max": lambda: _leaf(*NCHW).max(axis=1),
    "exp": lambda: _leaf(*NCHW).exp(),
    "log": lambda: _leaf(*NCHW).log(),
    "relu": lambda: _signed(*NCHW).relu(),
    "tanh": lambda: _signed(*NCHW).tanh(),
    "sigmoid": lambda: _signed(*NCHW).sigmoid(),
    "abs": lambda: _signed(*NCHW).abs(),
    "clip": lambda: _leaf(*NCHW).clip(0.8, 1.2),
    "concat": lambda: T.concat([_leaf(*NCHW), _leaf(2, 5, 4, 4)], axis=1),
    "pad2d": lambda: T.pad2d(_leaf(*NCHW), 1),
    "prelu": lambda: T.prelu(_signed(*NCHW), _leaf(3)),
    "dropout": lambda: T.dropout(_leaf(*NCHW), 0.5, np.random.default_rng(0)),
    "batch_norm": lambda: T.batch_norm(
        _signed(*NCHW), _leaf(3), _leaf(3), np.zeros(3), np.ones(3), training=True
    ),
    "log_softmax": lambda: T.log_softmax(_signed(2, 5)),
    "nll_loss": lambda: T.nll_loss(_signed(2, 5), np.array([1, 3])),
    "leaky_relu": lambda: T.leaky_relu(_signed(*NCHW)),
    "elu": lambda: T.elu(_signed(*NCHW)),
    "softplus": lambda: T.softplus(_signed(*NCHW)),
    "gelu": lambda: T.gelu(_signed(*NCHW)),
    "conv2d": lambda: T.conv2d(_signed(*NCHW), _signed(4, 3, 3, 3), _signed(4), pad=1),
    "max_pool2d": lambda: T.max_pool2d(_signed(*NCHW), 2),
    "avg_pool2d": lambda: T.avg_pool2d(_signed(*NCHW), 2),
    "global_avg_pool2d": lambda: T.global_avg_pool2d(_signed(*NCHW)),
}

MODELS = {
    "mnist_100_100": (mnist_100_100, (784,)),
    "lenet5_prelu": (lenet5_prelu, (1, 28, 28)),
    "lenet5_bn": (lenet5_bn, (1, 28, 28)),
    "vgg_s": (lambda: vgg_s(width_mult=0.125), (3, 32, 32)),
    "densenet_tiny": (densenet_tiny, (3, 32, 32)),
    "wrn_10_1": (wrn_10_1, (3, 32, 32)),
}


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _from_op_sites() -> set[str]:
    """Names of the functions in the tensor package that call ``from_op``."""
    sites = set()
    for name in ("tensor.py", "functional.py", "conv.py"):
        tree = ast.parse((TENSOR_SRC / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "from_op"
                for sub in ast.walk(node)
            ):
                sites.add(node.name)
    return sites


class TestEveryOpFreesItsOutput:
    def test_table_covers_every_from_op_site(self):
        assert len(OPS) == 34
        assert _from_op_sites() == set(OPS)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_output_freed_by_refcount(self, op, collector_off):
        out = OPS[op]()
        assert out._backward is not None, "the op was not recorded on the tape"
        # Tensor's __slots__ carry no __weakref__.  The backward function is
        # referenced by the output alone, so it is alive exactly as long as
        # the output is.
        probe = weakref.ref(out._backward)
        del out
        assert probe() is None


class TestTrainingLeavesNoCycles:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_two_dropback_steps_leave_nothing_for_the_collector(self, name, collector_off):
        factory, shape = MODELS[name]
        model = factory().finalize(7)
        opt = DropBack(model, k=max(1, model.num_parameters() // 10), lr=0.1)
        gc.collect()  # whatever building the model left behind
        for step in range(2):
            rng = np.random.default_rng(step)
            x = Tensor(rng.normal(size=(4,) + shape).astype(np.float32))
            y = rng.integers(0, 10, size=4)
            model.zero_grad()
            cross_entropy(model(x), y).backward()
            opt.step()
        assert gc.collect() == 0


class TestBackwardContract:
    def test_returned_gradients_added_in_parent_order(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([5.0, 5.0]))
        # a appears three times; c does not require grad, so its returned
        # gradient is dropped, and None contributes nothing.
        out = Tensor.from_op(a.data * 2, (a, a, c, a), lambda g: (g, 2 * g, 7 * g, None))
        out.backward(np.ones(2))
        np.testing.assert_array_equal(a.grad, [3.0, 3.0])
        assert c.grad is None

    def test_graph_lives_while_a_tensor_references_it(self):
        model = lenet5_bn().finalize(3)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 1, 28, 28)).astype(np.float32))
        loss = cross_entropy(model(x), rng.integers(0, 10, size=4))
        loss.backward()
        first = [p.grad.copy() for p in model.parameters()]
        loss.backward()  # the same graph, its kernel contexts intact
        for p, g in zip(model.parameters(), first):
            np.testing.assert_array_equal(p.grad, g + g)
