"""Functional neural-network operations (activations, normalization, losses).

These are the fused, numerically careful ops the layer classes in
:mod:`repro.nn` delegate to.  Each returns a :class:`repro.tensor.Tensor`
wired into the autograd tape.
"""

from __future__ import annotations

import numpy as np

from repro.profile import profiled
from repro.tensor import kernels
from repro.tensor.tensor import Tensor, unbroadcast

__all__ = [
    "linear",
    "prelu",
    "dropout",
    "batch_norm",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "leaky_relu",
    "elu",
    "softplus",
    "gelu",
]


@profiled("linear.forward")
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W.T + b`` with ``W`` of shape (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


@profiled("prelu.forward")
def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Parametric ReLU: ``max(x, 0) + a * min(x, 0)``.

    ``slope`` is either a scalar tensor or per-channel (broadcast against
    axis 1 of an NCHW / NC input).  The slope itself is trainable — and under
    DropBack, prunable back to its constant init (0.25).
    """
    pos = x.data > 0
    a = slope.data
    if a.ndim == 1 and x.ndim > 1:
        a = a.reshape((1, -1) + (1,) * (x.ndim - 2))
    out_data = np.where(pos, x.data, a * x.data)

    def backward(g):
        gx = gs = None
        if x.requires_grad:
            gx = np.where(pos, g, a * g)
        if slope.requires_grad:
            # repro: noqa[RPA002] dtype harmonization before unbroadcast
            ga = np.where(pos, 0.0, g * x.data).astype(slope.dtype)
            gs = unbroadcast(ga, a.shape).reshape(slope.shape)
        return gx, gs

    return Tensor.from_op(out_data, (x, slope), backward)


@profiled("dropout.forward")
def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with prob ``p``, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep  # repro: noqa[RPA002]

    def backward(g):
        return (g * mask,)

    return Tensor.from_op(x.data * mask, (x,), backward)


@profiled("batch_norm.forward")
def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over axis 1 (channels) of an NC or NCHW tensor.

    In training mode the batch statistics are used and the running buffers
    updated in place; in eval mode the running statistics are used.  The
    backward pass implements the full BN gradient (including the dependence
    of mean/var on x).  Normalization itself runs on the kernel backend
    selected in :mod:`repro.tensor.kernels`; batch-statistic computation and
    running-buffer updates are backend-independent and stay here.
    """
    axes, mu, var, g_, b_ = _bn_stats(
        x, gamma, beta, running_mean, running_var, training, momentum
    )
    backend, fwd = kernels.resolve("batch_norm_forward")
    _, bwd = kernels.resolve("batch_norm_backward", backend)
    out_data, ctx = fwd(x.data, g_, b_, mu, var, eps)

    def backward(g):
        with profiled("batch_norm.backward"):
            return bwd(
                g, ctx, axes, training, x.requires_grad, gamma.requires_grad, beta.requires_grad
            )

    return Tensor.from_op(out_data, (x, gamma, beta), backward)


def _bn_stats(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float,
):
    """Batch/running statistics plus reshaped affine params for
    :func:`batch_norm` (updates the running buffers in place when
    training)."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    g_ = gamma.data.reshape(shape)
    b_ = beta.data.reshape(shape)

    if training:
        mu = x.data.mean(axis=axes, keepdims=True)
        # The same bits as var() without mean=, minus var's own mean pass.
        var = x.data.var(axis=axes, keepdims=True, mean=mu)
        m = x.data.size / x.data.shape[1]  # elements per channel
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.reshape(-1)
        # Unbiased variance for the running buffer, as in standard frameworks.
        unbias = m / max(m - 1.0, 1.0)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(-1) * unbias
    else:
        mu = running_mean.reshape(shape)
        var = running_var.reshape(shape)
    return axes, mu, var, g_, b_


@profiled("log_softmax.forward")
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def backward(g):
        sm = np.exp(out_data)
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(out_data, (x,), backward)


@profiled("softmax.forward")
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax via exp(log_softmax) for stability."""
    return log_softmax(x, axis=axis).exp()


@profiled("nll_loss.forward")
def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities and int labels."""
    targets = np.asarray(targets)
    n = log_probs.shape[0]
    idx = (np.arange(n), targets)
    out_data = np.asarray(-log_probs.data[idx].mean(), dtype=log_probs.dtype)

    def backward(g):
        full = np.zeros_like(log_probs.data)  # repro: noqa[RPA002] scatter target
        full[idx] = -1.0 / n
        return (full * g,)

    return Tensor.from_op(out_data, (log_probs,), backward)


@profiled("cross_entropy.forward")
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy from raw logits and integer labels."""
    return nll_loss(log_softmax(logits, axis=-1), targets)


@profiled("mse_loss.forward")
def mse_loss(pred: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=pred.dtype)
    diff = pred - Tensor(t)
    return (diff * diff).mean()


@profiled("leaky_relu.forward")
def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """Leaky ReLU with a fixed negative slope."""
    pos = x.data > 0

    def backward(g):
        return (np.where(pos, g, slope * g),)

    return Tensor.from_op(np.where(pos, x.data, slope * x.data), (x,), backward)


@profiled("elu.forward")
def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit: x for x>0, alpha*(e^x - 1) otherwise."""
    pos = x.data > 0
    exp_x = np.exp(np.minimum(x.data, 0.0))
    out_data = np.where(pos, x.data, alpha * (exp_x - 1.0))

    def backward(g):
        return (np.where(pos, g, g * alpha * exp_x),)

    return Tensor.from_op(out_data, (x,), backward)


@profiled("softplus.forward")
def softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + e^x)``."""
    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-x.data))
        return (g * sig,)

    return Tensor.from_op(np.logaddexp(0.0, x.data), (x,), backward)


@profiled("gelu.forward")
def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data**3)
    t = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        dinner = c * (1.0 + 3 * 0.044715 * x.data**2)
        dt = (1.0 - t**2) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * x.data * dt),)

    return Tensor.from_op(out_data, (x,), backward)
