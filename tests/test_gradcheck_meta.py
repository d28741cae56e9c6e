"""Meta-tests: the gradient checker itself must reject broken backwards.

``gradcheck`` is the oracle every op test leans on, so it gets its own
adversarial coverage: custom ops with seeded gradient bugs (wrong scale,
wrong sign, dropped term) that it must reject, and pass-cases over the
real conv/pool/batchnorm ops wired through the sanitizer's NaN tripwire
(:func:`repro.analyze.sanitize.check_finite_gradients`) so a finite but
wrong gradient and a non-finite one are both loud failures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyze.sanitize import GradientTripwireError, check_finite_gradients
from repro.tensor import (
    Tensor,
    avg_pool2d,
    batch_norm,
    conv2d,
    global_avg_pool2d,
    gradcheck,
    max_pool2d,
)


def _custom_op(fn, grad_fn):
    """Build a unary custom op from forward/backward ndarray functions."""

    def op(x: Tensor) -> Tensor:
        def backward(g):
            return (grad_fn(g, x.data),)

        return Tensor.from_op(fn(x.data), (x,), backward)

    return op


class TestGradcheckRejectsSeededBugs:
    """Each op's forward is x^3; only one backward is right."""

    cases = {
        "correct": lambda g, x: g * 3.0 * x**2,
        "wrong_scale": lambda g, x: g * 2.0 * x**2,
        "wrong_sign": lambda g, x: -g * 3.0 * x**2,
        "dropped_term": lambda g, x: g * np.ones_like(x),
    }

    def _tensor(self):
        return Tensor(np.array([1.2, -0.7, 0.4]), requires_grad=True)

    def test_correct_backward_passes(self):
        op = _custom_op(lambda x: x**3, self.cases["correct"])
        t = self._tensor()
        assert gradcheck(lambda: op(t).sum(), [t])

    @pytest.mark.parametrize("bug", ["wrong_scale", "wrong_sign", "dropped_term"])
    def test_broken_backward_rejected(self, bug):
        op = _custom_op(lambda x: x**3, self.cases[bug])
        t = self._tensor()
        with pytest.raises(AssertionError, match="mismatch"):
            gradcheck(lambda: op(t).sum(), [t])
        assert not gradcheck(lambda: op(t).sum(), [t], raise_on_fail=False)

    def test_nan_producing_backward_is_loud(self):
        # A backward emitting NaN: gradcheck reports a mismatch, and the
        # tripwire flags the surviving gradient as non-finite.
        op = _custom_op(lambda x: x**3, lambda g, x: g * np.full_like(x, np.nan))
        t = self._tensor()
        assert not gradcheck(lambda: op(t).sum(), [t], raise_on_fail=False)
        op(t).sum().backward()
        with pytest.raises(GradientTripwireError):
            check_finite_gradients([("t", t)])


class TestRealOpsPassUnderTripwire:
    """conv/pool/batchnorm gradients are correct *and* finite."""

    def _checked(self, f, tensors, named):
        assert gradcheck(f, tensors)
        # Re-run one backward so grads exist, then sweep the tripwire.
        for t in tensors:
            t.grad = None
        f().backward()
        check_finite_gradients(named)

    def test_conv2d(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        self._checked(
            lambda: (conv2d(x, w, b, stride=1, pad=1) ** 2).sum(),
            [x, w, b],
            [("x", x), ("w", w), ("b", b)],
        )

    def test_max_pool2d(self):
        rng = np.random.default_rng(1)
        # Distinct values so the argmax is stable under the FD perturbation.
        vals = rng.permutation(2 * 1 * 4 * 4).astype(np.float64)
        x = Tensor(vals.reshape(2, 1, 4, 4) * 0.1, requires_grad=True)
        self._checked(
            lambda: (max_pool2d(x, kernel=2) ** 2).sum(), [x], [("x", x)]
        )

    def test_avg_pool2d(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        self._checked(
            lambda: (avg_pool2d(x, kernel=2) ** 2).sum(), [x], [("x", x)]
        )

    def test_global_avg_pool2d(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        self._checked(
            lambda: (global_avg_pool2d(x) ** 2).sum(), [x], [("x", x)]
        )

    def test_batch_norm(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)

        def f():
            # Fresh running buffers per call: batch_norm mutates them in
            # place, which would skew the finite-difference evaluations.
            rm = np.zeros(3)
            rv = np.ones(3)
            return (batch_norm(x, gamma, beta, rm, rv, training=True) ** 2).sum()

        self._checked(f, [x, gamma, beta], [("x", x), ("gamma", gamma), ("beta", beta)])
