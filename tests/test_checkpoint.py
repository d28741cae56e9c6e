"""Tests for dense and sparse checkpoint serialization."""

import os

import numpy as np
import pytest

from repro.core import DropBack
from repro.data import DataLoader
from repro.io import (
    compression_report,
    dense_size_bytes,
    load_dense,
    load_sparse,
    save_dense,
    save_sparse,
    sparse_size_bytes,
)
from repro.models import mnist_100_100, wrn_10_1
from repro.optim import ConstantLR
from repro.tensor import Tensor
from repro.train import Trainer, evaluate


def _trained(tiny_mnist, k=4000, epochs=1, seed=3):
    train, test = tiny_mnist
    m = mnist_100_100().finalize(seed)
    opt = DropBack(m, k=k, lr=0.4)
    tr = Trainer(m, opt, schedule=ConstantLR(0.4))
    tr.fit(DataLoader(train, 64, seed=0), test, epochs=epochs)
    return m, opt, test


class TestDense:
    def test_roundtrip(self, tmp_path, tiny_mnist):
        m, _, test = _trained(tiny_mnist)
        path = str(tmp_path / "dense.npz")
        save_dense(m, path)
        m2 = mnist_100_100().finalize(99)
        load_dense(m2, path)
        for pa, pb in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_buffers_roundtrip(self, tmp_path):
        m = wrn_10_1().finalize(1)
        # run one forward in train mode to move running stats
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 16, 16)).astype(np.float32))
        m(x)
        path = str(tmp_path / "dense.npz")
        save_dense(m, path)
        m2 = wrn_10_1().finalize(2)
        load_dense(m2, path)
        for (_, _, b1), (_, _, b2) in zip(m._named_buffers(), m2._named_buffers()):
            np.testing.assert_array_equal(b1, b2)


class TestSparse:
    def test_roundtrip_bit_exact(self, tmp_path, tiny_mnist):
        m, opt, test = _trained(tiny_mnist)
        path = str(tmp_path / "sparse.npz")
        save_sparse(m, opt, path)
        m2 = load_sparse(mnist_100_100(), path)
        for pa, pb in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_accuracy_preserved(self, tmp_path, tiny_mnist):
        m, opt, test = _trained(tiny_mnist)
        path = str(tmp_path / "sparse.npz")
        save_sparse(m, opt, path)
        m2 = load_sparse(mnist_100_100(), path)
        assert evaluate(m2, test) == pytest.approx(evaluate(m, test))

    def test_requires_trained_optimizer(self, tmp_path):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=100, lr=0.4)
        with pytest.raises(RuntimeError):
            save_sparse(m, opt, str(tmp_path / "x.npz"))

    def test_file_smaller_than_dense(self, tmp_path, tiny_mnist):
        m, opt, _ = _trained(tiny_mnist, k=2000)
        sp = str(tmp_path / "sparse.npz")
        dn = str(tmp_path / "dense.npz")
        save_sparse(m, opt, sp)
        save_dense(m, dn)
        assert os.path.getsize(sp) < os.path.getsize(dn) / 10

    def test_zero_untracked_flag_roundtrip(self, tmp_path, tiny_mnist):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(3)
        opt = DropBack(m, k=4000, lr=0.4, zero_untracked=True)
        tr = Trainer(m, opt, schedule=ConstantLR(0.4))
        tr.fit(DataLoader(train, 64, seed=0), test, epochs=1)
        path = str(tmp_path / "z.npz")
        save_sparse(m, opt, path)
        m2 = load_sparse(mnist_100_100(), path)
        for pa, pb in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_sparse_with_batchnorm_buffers(self, tmp_path, tiny_cifar):
        train, test = tiny_cifar
        m = wrn_10_1().finalize(2)
        opt = DropBack(m, k=20_000, lr=0.1)
        tr = Trainer(m, opt, schedule=ConstantLR(0.1))
        tr.fit(DataLoader(train, 32, seed=0), test, epochs=1)
        path = str(tmp_path / "wrn.npz")
        save_sparse(m, opt, path)
        m2 = load_sparse(wrn_10_1(), path)
        assert evaluate(m2, test) == pytest.approx(evaluate(m, test))


class TestSizeAccounting:
    def test_dense_bytes(self):
        m = mnist_100_100()
        assert dense_size_bytes(m) == 89_610 * 4

    def test_sparse_bytes_scale_with_k(self, tiny_mnist):
        m = mnist_100_100().finalize(1)
        small = DropBack(m, k=1000, lr=0.4)
        big = DropBack(m, k=10_000, lr=0.4)
        assert sparse_size_bytes(small) < sparse_size_bytes(big)

    def test_compression_report(self, tiny_mnist):
        m, opt, _ = _trained(tiny_mnist, k=4481)  # ~20x
        rep = compression_report(m, opt)
        assert rep["weight_compression"] == pytest.approx(89_610 / 4481)
        assert rep["byte_ratio"] > 1.0
