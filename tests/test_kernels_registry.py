"""Dispatch-registry semantics: selection precedence, env handling, errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import kernels
from repro.tensor.kernels import registry


@pytest.fixture(autouse=True)
def _restore_selection():
    prev = kernels.get_backend()
    yield
    kernels.set_backend(prev)
    for op in kernels.list_ops():
        kernels.set_op_backend(op, None)


class TestSelection:
    def test_default_backend_is_fast(self):
        assert kernels.DEFAULT_BACKEND == "fast"

    def test_set_backend_changes_resolution(self):
        kernels.set_backend("reference")
        name, _ = kernels.resolve("matmul")
        assert name == "reference"
        kernels.set_backend("fast")
        name, _ = kernels.resolve("matmul")
        assert name == "fast"

    def test_set_backend_normalizes_case_and_whitespace(self):
        kernels.set_backend("  Reference ")
        assert kernels.get_backend() == "reference"

    def test_use_backend_restores_on_exit(self):
        before = kernels.get_backend()
        with kernels.use_backend("reference"):
            assert kernels.get_backend() == "reference"
        assert kernels.get_backend() == before

    def test_use_backend_restores_on_exception(self):
        before = kernels.get_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("reference"):
                raise RuntimeError("boom")
        assert kernels.get_backend() == before

    def test_per_op_override_beats_active_backend(self):
        kernels.set_backend("fast")
        kernels.set_op_backend("matmul", "reference")
        name, _ = kernels.resolve("matmul")
        assert name == "reference"
        # Other ops keep the active selection.
        other, _ = kernels.resolve("conv2d_forward")
        assert other == "fast"

    def test_override_cleared_with_none(self):
        kernels.set_op_backend("matmul", "reference")
        kernels.set_op_backend("matmul", None)
        name, _ = kernels.resolve("matmul")
        assert name == kernels.get_backend()

    def test_explicit_backend_argument_wins(self):
        kernels.set_backend("fast")
        name, _ = kernels.resolve("matmul", "reference")
        assert name == "reference"

    def test_missing_registration_falls_back_to_reference(self):
        # max_pool2d_backward is only registered on reference; resolving it
        # under fast must return the reference kernel, with the name
        # reflecting that.
        kernels.set_backend("fast")
        name, fn = kernels.resolve("max_pool2d_backward")
        assert name == "reference"
        assert fn is registry._KERNELS["max_pool2d_backward"]["reference"]

    def test_missing_registration_falls_back_through_default(self):
        # An op the sparse backend lacks runs on fast when fast has it, and
        # only then on reference.
        table = kernels.op_table()
        with kernels.use_backend("sparse"):
            for op in kernels.list_ops():
                expected = next(
                    b for b in ("sparse", "fast", "reference") if b in table[op]
                )
                name, fn = kernels.resolve(op)
                assert (name, fn) == (expected, table[op][expected]), op


class TestErrors:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            kernels.set_backend("cuda")

    def test_unknown_op_rejected_on_resolve(self):
        with pytest.raises(KeyError, match="unknown op"):
            kernels.resolve("flash_attention")

    def test_unknown_op_rejected_on_override(self):
        with pytest.raises(ValueError, match="unknown op"):
            kernels.set_op_backend("flash_attention", "fast")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @registry.register_kernel("matmul", "reference")
            def clash(a, b):  # pragma: no cover - never called
                return a @ b


class TestEnvironment:
    def test_repro_backend_env_initializes_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        registry._ACTIVE[0] = None  # force a re-read of the environment
        try:
            assert kernels.get_backend() == "reference"
        finally:
            registry._ACTIVE[0] = None

    def test_invalid_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        registry._ACTIVE[0] = None
        try:
            with pytest.raises(ValueError, match="unknown backend"):
                kernels.get_backend()
        finally:
            registry._ACTIVE[0] = None


class TestIntrospection:
    def test_every_op_has_a_reference_kernel(self):
        for op in kernels.list_ops():
            assert "reference" in kernels.list_backends(op), op

    def test_op_table_is_a_copy(self):
        table = kernels.op_table()
        table["matmul"]["reference"] = None
        name, fn = kernels.resolve("matmul", "reference")
        assert fn is not None

    def test_expected_op_catalog(self):
        ops = set(kernels.list_ops())
        assert {
            "matmul",
            "conv2d_forward", "conv2d_backward",
            "relu_forward", "relu_backward",
            "batch_norm_forward", "batch_norm_backward",
            "bn_relu_forward", "bn_relu_backward",
            "max_pool2d_forward", "max_pool2d_backward",
            "avg_pool2d_forward", "avg_pool2d_backward",
        } <= ops


class TestTensorIntegration:
    def test_matmul_routes_through_selected_backend(self):
        from repro.tensor import Tensor

        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        with kernels.use_backend("reference"):
            ref = (a @ b).data
        with kernels.use_backend("fast"):
            fast = (a @ b).data
        np.testing.assert_array_equal(ref, fast)

    def test_backward_pinned_to_forward_backend(self):
        # Resolving the forward under one backend then switching before
        # backward must not mix kernel pairs: the ctx produced by a fast
        # forward is consumed by the fast backward.
        from repro.tensor import Tensor

        x = Tensor(np.array([[-1.0, 2.0]], dtype=np.float32), requires_grad=True)
        with kernels.use_backend("fast"):
            y = x.relu()
        with kernels.use_backend("reference"):
            y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.array([[0.0, 1.0]], dtype=np.float32))
