"""From-scratch reverse-mode autograd engine on numpy (Chainer substitute)."""

from repro.tensor.conv import (
    avg_pool2d,
    conv2d,
    conv_out_size,
    global_avg_pool2d,
    max_pool2d,
)
from repro.tensor.functional import (
    batch_norm,
    cross_entropy,
    dropout,
    elu,
    gelu,
    leaky_relu,
    linear,
    log_softmax,
    mse_loss,
    nll_loss,
    prelu,
    softmax,
    softplus,
)
from repro.tensor.gradcheck import gradcheck, numerical_gradient
from repro.tensor.tensor import Tensor, concat, is_grad_enabled, no_grad, pad2d, unbroadcast

__all__ = [
    "Tensor",
    "concat",
    "pad2d",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "conv_out_size",
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
    "gradcheck",
    "numerical_gradient",
]
