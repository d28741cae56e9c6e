"""Tests for the public gradcheck utility."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, numerical_gradient


class TestNumericalGradient:
    def test_quadratic(self):
        t = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        num = numerical_gradient(lambda: (t * t).sum(), t)
        np.testing.assert_allclose(num, [4.0, -2.0], atol=1e-6)

    def test_restores_data(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = t.data.copy()
        numerical_gradient(lambda: (t * 3.0).sum(), t)
        np.testing.assert_array_equal(t.data, before)


class TestGradcheck:
    def test_passes_for_correct_op(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert gradcheck(lambda: ((a @ b).relu() ** 2).sum(), [a, b])

    def test_fails_for_broken_gradient(self):
        """A deliberately wrong backward must be caught."""

        def broken_square(x: Tensor) -> Tensor:
            def backward(g):
                return (g * 3.0 * x.data,)  # wrong: should be 2x

            return Tensor.from_op(x.data**2, (x,), backward)

        t = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        with pytest.raises(AssertionError, match="mismatch"):
            gradcheck(lambda: broken_square(t).sum(), [t])
        assert not gradcheck(lambda: broken_square(t).sum(), [t], raise_on_fail=False)

    def test_detects_unreached_tensor(self):
        a = Tensor(np.ones(2), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(AssertionError, match="no gradient"):
            gradcheck(lambda: (a * 2.0).sum(), [a, unused])

    def test_rejects_nonscalar(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            gradcheck(lambda: a * 2.0, [a])

    def test_rejects_non_grad_tensors(self):
        a = Tensor(np.ones(2))
        with pytest.raises(ValueError, match="require grad"):
            gradcheck(lambda: (a * 2.0).sum(), [a])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no tensors"):
            gradcheck(lambda: Tensor(np.array(0.0)), [])
