"""Convolution and pooling ops for the autograd engine.

The numerical work lives in :mod:`repro.tensor.kernels`: each op resolves
its forward/backward kernel pair from the dispatch registry at
construction time (so a forward's backward always runs on the backend the
forward used) and this module only wires the result into the tape.  The
``reference`` backend is the original im2col/col2im implementation
verbatim; ``fast`` runs the same math on pooled, persistent workspaces
with a batch-flattened GEMM for small spatial outputs.

All tensors are NCHW.  The workspace pool lives in
:mod:`repro.tensor.workspace`.
"""

from __future__ import annotations

import numpy as np

from repro.profile import profiled
from repro.tensor import kernels
from repro.tensor.tensor import Tensor

__all__ = [
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "conv_out_size",
]


# repro: noqa[RPA005] shape arithmetic, not an op
def conv_out_size(in_size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (in_size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"empty conv output: in={in_size}, kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


@profiled("conv2d.forward")
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) with optional bias.

    Parameters
    ----------
    x:
        Input tensor, shape ``(N, C_in, H, W)``.
    weight:
        Kernel tensor, shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias, shape ``(C_out,)``.
    stride, pad:
        Stride and symmetric zero-padding on both spatial axes.
    """
    _, c, h, w = x.shape
    _, c2, kh, kw = weight.shape
    if c != c2:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {c2}")
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)

    backend, fwd = kernels.resolve("conv2d_forward")
    _, bwd = kernels.resolve("conv2d_backward", backend)
    out_data, ctx = fwd(
        x.data, weight.data, None if bias is None else bias.data, stride, pad, oh, ow
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        with profiled("conv2d.backward"):
            # (gx, gw, gb); without a bias, gb is None and has no parent.
            need_gb = bias is not None and bias.requires_grad
            return bwd(g, ctx, x.requires_grad, weight.requires_grad, need_gb)

    return Tensor.from_op(out_data, parents, backward)


@profiled("pool.max.forward")
def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = stride or kernel
    _, _, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, 0)
    ow = conv_out_size(w, kernel, stride, 0)

    backend, fwd = kernels.resolve("max_pool2d_forward")
    _, bwd = kernels.resolve("max_pool2d_backward", backend)
    out_data, ctx = fwd(x.data, kernel, stride, oh, ow)

    def backward(g):
        with profiled("pool.max.backward"):
            return (bwd(g, ctx),)

    return Tensor.from_op(out_data, (x,), backward)


@profiled("pool.avg.forward")
def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    _, _, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, 0)
    ow = conv_out_size(w, kernel, stride, 0)

    backend, fwd = kernels.resolve("avg_pool2d_forward")
    _, bwd = kernels.resolve("avg_pool2d_backward", backend)
    out_data, ctx = fwd(x.data, kernel, stride, oh, ow)

    def backward(g):
        with profiled("pool.avg.backward"):
            return (bwd(g, ctx),)

    return Tensor.from_op(out_data, (x,), backward)


@profiled("pool.gap.forward")
def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (N, C, H, W) -> (N, C)."""
    _, _, h, w = x.shape
    out_data = x.data.mean(axis=(2, 3))
    inv = 1.0 / (h * w)

    def backward(g):
        # repro: noqa[RPA002] broadcast views are read-only; a gradient must be writable
        return (np.broadcast_to(g[:, :, None, None] * inv, x.shape).copy(),)

    return Tensor.from_op(out_data, (x,), backward)
