"""Tests for the autograd core: Tensor mechanics, tape, broadcasting."""

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad, unbroadcast
from tests.conftest import finite_difference_check, rand_tensor


class TestTensorBasics:
    def test_wraps_array(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.size == 6
        assert t.ndim == 2

    def test_requires_grad_default_false(self):
        assert not Tensor(np.ones(3)).requires_grad

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.arange(3), requires_grad=True)

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        c = (b * 3.0).sum()
        assert not c.requires_grad

    def test_repr_mentions_shape(self):
        assert "(2, 3)" in repr(Tensor(np.zeros((2, 3))))

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_from_tensor_shares_data(self):
        a = Tensor(np.ones(3))
        b = Tensor(a)
        assert b.data is a.data


class TestBackwardMechanics:
    def test_scalar_backward_implicit_grad(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])

    def test_nonscalar_backward_requires_grad_arg(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2.0).backward(np.array([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 4.0])

    def test_backward_on_leaf_without_grad_raises(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_reused_tensor_gets_summed_grad(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = (a * a).sum()  # d/da (a^2) = 2a = 4
        out.backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2.0
        c = a * 5.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_deep_chain_does_not_recurse(self):
        # 5000-op chain exceeds Python's default recursion limit if the
        # topo sort were recursive.
        a = Tensor(np.array([1.0]), requires_grad=True)
        x = a
        for _ in range(5000):
            x = x + 0.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestNoGrad:
    def test_disables_graph(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad

    def test_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_overlapping_blocks_in_two_threads(self):
        """Two serving workers run overlapping, not nested, no_grad blocks
        (A enters, B enters, A leaves, B leaves); neither may switch
        recording off for any other thread."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        after = {}

        def worker_a():
            with no_grad():
                a_in.set()
                b_in.wait(timeout=10.0)
            a_out.set()
            after["a"] = is_grad_enabled()

        def worker_b():
            a_in.wait(timeout=10.0)
            with no_grad():
                b_in.set()
                a_out.wait(timeout=10.0)
            after["b"] = is_grad_enabled()

        threads = [threading.Thread(target=worker_a), threading.Thread(target=worker_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert after == {"a": True, "b": True}
        assert is_grad_enabled()
        assert (Tensor(np.ones(2), requires_grad=True) * 2.0).requires_grad


class TestUnbroadcast:
    def test_identity_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_prepended_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_stretched_axes(self):
        g = np.ones((2, 5))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 5.0))

    def test_scalar_target(self):
        g = np.ones((3, 3))
        assert unbroadcast(g, ()) == pytest.approx(9.0)

    def test_mixed(self):
        g = np.ones((4, 2, 5))
        out = unbroadcast(g, (1, 5))
        np.testing.assert_allclose(out, np.full((1, 5), 8.0))


class TestArithmeticGradients:
    def test_add_broadcast(self, rng):
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4,))
        finite_difference_check(lambda: ((a + b) ** 2).sum(), [a, b])

    def test_sub(self, rng):
        a = rand_tensor(rng, (2, 3))
        b = rand_tensor(rng, (2, 3))
        finite_difference_check(lambda: ((a - b) ** 2).sum(), [a, b])

    def test_rsub_scalar(self, rng):
        a = rand_tensor(rng, (3,))
        finite_difference_check(lambda: ((1.0 - a) ** 2).sum(), [a])

    def test_mul_broadcast(self, rng):
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (3, 1))
        finite_difference_check(lambda: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = rand_tensor(rng, (3,))
        b = Tensor(rng.uniform(1.0, 2.0, size=3), requires_grad=True)
        finite_difference_check(lambda: (a / b).sum(), [a, b])

    def test_rdiv_scalar(self, rng):
        b = Tensor(rng.uniform(1.0, 2.0, size=3), requires_grad=True)
        finite_difference_check(lambda: (2.0 / b).sum(), [b])

    def test_neg(self, rng):
        a = rand_tensor(rng, (3,))
        finite_difference_check(lambda: (-a * 3.0).sum(), [a])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        finite_difference_check(lambda: (a**3).sum(), [a])

    def test_pow_rejects_tensor_exponent(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TypeError):
            a ** Tensor(np.ones(2))

    def test_matmul(self, rng):
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (4, 2))
        finite_difference_check(lambda: (a @ b).sum(), [a, b])

    def test_batched_matmul(self, rng):
        a = rand_tensor(rng, (2, 3, 4))
        b = rand_tensor(rng, (2, 4, 5))
        finite_difference_check(lambda: (a @ b).sum(), [a, b])

    def test_radd_scalar(self, rng):
        a = rand_tensor(rng, (3,))
        finite_difference_check(lambda: ((5.0 + a) ** 2).sum(), [a])


class TestShapeOpGradients:
    def test_reshape(self, rng):
        a = rand_tensor(rng, (3, 4))
        finite_difference_check(lambda: (a.reshape(2, 6) ** 2).sum(), [a])

    def test_reshape_minus_one(self, rng):
        a = rand_tensor(rng, (3, 4))
        out = a.reshape(-1)
        assert out.shape == (12,)

    def test_transpose(self, rng):
        a = rand_tensor(rng, (2, 3, 4))
        finite_difference_check(lambda: (a.transpose(2, 0, 1) ** 2).sum(), [a])

    def test_T(self, rng):
        a = rand_tensor(rng, (2, 3))
        assert a.T.shape == (3, 2)
        finite_difference_check(lambda: (a.T @ a).sum(), [a])

    def test_getitem_slice(self, rng):
        a = rand_tensor(rng, (4, 5))
        finite_difference_check(lambda: (a[1:3, :2] ** 2).sum(), [a])

    def test_getitem_repeated_index_accumulates(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        idx = np.array([0, 0, 1])
        out = a[idx].sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [2.0, 1.0])


class TestReductionGradients:
    def test_sum_all(self, rng):
        a = rand_tensor(rng, (3, 4))
        finite_difference_check(lambda: (a.sum() ** 2), [a])

    def test_sum_axis(self, rng):
        a = rand_tensor(rng, (3, 4))
        finite_difference_check(lambda: (a.sum(axis=0) ** 2).sum(), [a])

    def test_sum_keepdims(self, rng):
        a = rand_tensor(rng, (3, 4))
        finite_difference_check(lambda: (a.sum(axis=1, keepdims=True) * a).sum(), [a])

    def test_mean(self, rng):
        a = rand_tensor(rng, (4, 2))
        finite_difference_check(lambda: (a.mean() ** 2), [a])

    def test_mean_axis(self, rng):
        a = rand_tensor(rng, (4, 2))
        finite_difference_check(lambda: (a.mean(axis=0) ** 2).sum(), [a])

    def test_max_all(self, rng):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [0, 0]])

    def test_max_axis(self, rng):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])

    def test_max_ties_split(self):
        a = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])


class TestPointwiseGradients:
    def test_exp(self, rng):
        a = rand_tensor(rng, (3,))
        finite_difference_check(lambda: a.exp().sum(), [a])

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        finite_difference_check(lambda: a.log().sum(), [a])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
        finite_difference_check(lambda: a.sqrt().sum(), [a])

    def test_relu(self, rng):
        a = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])

    def test_tanh(self, rng):
        a = rand_tensor(rng, (4,))
        finite_difference_check(lambda: a.tanh().sum(), [a])

    def test_sigmoid(self, rng):
        a = rand_tensor(rng, (4,))
        finite_difference_check(lambda: a.sigmoid().sum(), [a])

    def test_abs(self):
        a = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        a.abs().sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, 1.0])

    def test_clip_gradient_masked(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_clip_values(self):
        a = Tensor(np.array([-2.0, 0.5, 2.0]))
        np.testing.assert_allclose(a.clip(-1, 1).numpy(), [-1.0, 0.5, 1.0])
