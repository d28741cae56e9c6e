"""Reference backend: the pre-dispatch numpy implementations, verbatim.

This backend is the parity oracle.  Every op is registered here, so any
other backend may implement a subset and fall back for the rest.  The code
bodies are the original :mod:`repro.tensor` implementations moved behind
the registry — autograd semantics, summation order, and workspace-pool
behaviour are exactly what shipped before the dispatch layer existed.

Kernel calling conventions
--------------------------
Forward kernels operate on plain ``numpy.ndarray``s (never Tensors) and
return ``(out, ctx)`` where ``ctx`` is an opaque dict the matching
backward kernel consumes.  Backward kernels receive ``need_*`` flags so
they skip gradients nobody asked for, and return a tuple with ``None`` in
the skipped slots.
"""

from __future__ import annotations

import numpy as np

from repro.profile import profiled
from repro.tensor.kernels.registry import REFERENCE_BACKEND, register_kernel
from repro.tensor.workspace import acquire_workspace

__all__: list[str] = []


# ---------------------------------------------------------------------- #
# matmul
# ---------------------------------------------------------------------- #


@register_kernel("matmul", REFERENCE_BACKEND)
@profiled("kernels.matmul.reference")
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain (possibly batched) matrix product."""
    return a @ b


# ---------------------------------------------------------------------- #
# im2col / col2im
# ---------------------------------------------------------------------- #


@profiled("kernels.im2col.reference")
def im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int) -> np.ndarray:
    """Extract conv patches: (N, C, H, W) -> (N, C*KH*KW, OH*OW)."""
    n, c = xp.shape[:2]
    # repro: noqa[RPA002] the patch buffer is retained by the backward
    # closure for the whole step; the fast backend pools it instead
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.reshape(n, c * kh * kw, oh * ow)


@profiled("kernels.col2im.reference")
def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    oh: int,
    ow: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add patches back: inverse of :func:`im2col` (gradient flow)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    xg = acquire_workspace((n, c, hp, wp), cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xg[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]
    if pad:
        xg = xg[:, :, pad:-pad, pad:-pad]
    return xg


# ---------------------------------------------------------------------- #
# conv2d
# ---------------------------------------------------------------------- #


@register_kernel("conv2d_forward", REFERENCE_BACKEND)
@profiled("kernels.conv2d_forward.reference")
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> tuple[np.ndarray, dict]:
    """im2col + batched GEMM convolution forward."""
    n = x.shape[0]
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = im2col(xp, kh, kw, stride, stride, oh, ow)  # (N, C*KH*KW, OH*OW)
    w_flat = weight.reshape(f, -1)  # (F, C*KH*KW)
    out = np.matmul(w_flat, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out += bias.reshape(1, f, 1, 1)
    ctx = {
        "cols": cols,
        "w_flat": w_flat,
        "x_shape": x.shape,
        "w_shape": weight.shape,
        "stride": stride,
        "pad": pad,
        "oh": oh,
        "ow": ow,
    }
    return out, ctx


@register_kernel("conv2d_backward", REFERENCE_BACKEND)
@profiled("kernels.conv2d_backward.reference")
def conv2d_backward(
    g: np.ndarray,
    ctx: dict,
    need_gx: bool,
    need_gw: bool,
    need_gb: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Gradients of :func:`conv2d_forward` w.r.t. input, weight, bias."""
    cols, w_flat = ctx["cols"], ctx["w_flat"]
    n, _, _, _ = ctx["x_shape"]
    f, _, kh, kw = ctx["w_shape"]
    stride, pad, oh, ow = ctx["stride"], ctx["pad"], ctx["oh"], ctx["ow"]
    g2 = g.reshape(n, f, oh * ow)  # (N, F, OH*OW)
    gb = g2.sum(axis=(0, 2)) if need_gb else None
    gw = None
    if need_gw:
        # Sum over batch of (F, OH*OW) @ (OH*OW, C*KH*KW)
        gw = np.einsum("nfo,nko->fk", g2, cols, optimize=True).reshape(ctx["w_shape"])
    gx = None
    if need_gx:
        gcols = np.matmul(w_flat.T, g2)  # (N, C*KH*KW, OH*OW)
        gx = col2im(gcols, ctx["x_shape"], kh, kw, stride, stride, oh, ow, pad)
    return gx, gw, gb


# ---------------------------------------------------------------------- #
# relu
# ---------------------------------------------------------------------- #


@register_kernel("relu_forward", REFERENCE_BACKEND)
@profiled("kernels.relu_forward.reference")
def relu_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Mask-multiply rectifier (two passes; kept as the parity oracle)."""
    mask = x > 0
    return x * mask, {"mask": mask}


@register_kernel("relu_backward", REFERENCE_BACKEND)
@profiled("kernels.relu_backward.reference")
def relu_backward(g: np.ndarray, ctx: dict) -> np.ndarray:
    return g * ctx["mask"]


# ---------------------------------------------------------------------- #
# batch norm
# ---------------------------------------------------------------------- #


@register_kernel("batch_norm_forward", REFERENCE_BACKEND)
@profiled("kernels.batch_norm_forward.reference")
def batch_norm_forward(
    x: np.ndarray,
    g_: np.ndarray,
    b_: np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, dict]:
    """Normalize-scale-shift with ``gamma``/``beta`` already reshaped."""
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    out = g_ * xhat + b_
    return out, {"xhat": xhat, "inv_std": inv_std, "g_": g_}


def _bn_input_grad(gxhat: np.ndarray, xhat: np.ndarray, inv_std, axes, training: bool):
    """Shared full-BN input gradient (dependence of mean/var included)."""
    if training:
        term1 = gxhat
        term2 = gxhat.mean(axis=axes, keepdims=True)
        term3 = xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)
        return (term1 - term2 - term3) * inv_std
    return gxhat * inv_std


@register_kernel("batch_norm_backward", REFERENCE_BACKEND)
@profiled("kernels.batch_norm_backward.reference")
def batch_norm_backward(
    g: np.ndarray,
    ctx: dict,
    axes: tuple[int, ...],
    training: bool,
    need_gx: bool,
    need_ggamma: bool,
    need_gbeta: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    xhat, inv_std, g_ = ctx["xhat"], ctx["inv_std"], ctx["g_"]
    ggamma = (g * xhat).sum(axis=axes) if need_ggamma else None
    gbeta = g.sum(axis=axes) if need_gbeta else None
    gx = _bn_input_grad(g * g_, xhat, inv_std, axes, training) if need_gx else None
    return gx, ggamma, gbeta


# ---------------------------------------------------------------------- #
# pooling
# ---------------------------------------------------------------------- #


@register_kernel("max_pool2d_forward", REFERENCE_BACKEND)
@profiled("kernels.max_pool2d_forward.reference")
def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, oh: int, ow: int
) -> tuple[np.ndarray, dict]:
    """Window-candidate stack + argmax max pooling."""
    n, c = x.shape[:2]
    # Stack window candidates along a new axis and take the argmax.
    # repro: noqa[RPA002] forward staging; the fast backend pools it instead
    cand = np.empty((kernel * kernel, n, c, oh, ow), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cand[i * kernel + j] = x[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    arg = cand.argmax(axis=0)  # (N, C, OH, OW), values in [0, K*K)
    out = np.take_along_axis(cand, arg[None], axis=0)[0]
    ctx = {
        "arg": arg,
        "x_shape": x.shape,
        "dtype": x.dtype,
        "kernel": kernel,
        "stride": stride,
        "oh": oh,
        "ow": ow,
    }
    return out, ctx


@register_kernel("max_pool2d_backward", REFERENCE_BACKEND)
@profiled("kernels.max_pool2d_backward.reference")
def max_pool2d_backward(g: np.ndarray, ctx: dict) -> np.ndarray:
    arg, kernel, stride = ctx["arg"], ctx["kernel"], ctx["stride"]
    oh, ow = ctx["oh"], ctx["ow"]
    xg = acquire_workspace(ctx["x_shape"], ctx["dtype"])
    for win in range(kernel * kernel):
        i, j = divmod(win, kernel)
        mask = arg == win
        xg[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += g * mask
    return xg


@register_kernel("avg_pool2d_forward", REFERENCE_BACKEND)
@profiled("kernels.avg_pool2d_forward.reference")
def avg_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, oh: int, ow: int
) -> tuple[np.ndarray, dict]:
    """Window-sum average pooling."""
    n, c = x.shape[:2]
    inv = 1.0 / (kernel * kernel)
    # repro: noqa[RPA002] op output buffer; the fast backend pools it instead
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            out += x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    out *= inv
    ctx = {
        "x_shape": x.shape,
        "dtype": x.dtype,
        "kernel": kernel,
        "stride": stride,
        "oh": oh,
        "ow": ow,
    }
    return out, ctx


@register_kernel("avg_pool2d_backward", REFERENCE_BACKEND)
@profiled("kernels.avg_pool2d_backward.reference")
def avg_pool2d_backward(g: np.ndarray, ctx: dict) -> np.ndarray:
    kernel, stride, oh, ow = ctx["kernel"], ctx["stride"], ctx["oh"], ctx["ow"]
    inv = 1.0 / (kernel * kernel)
    xg = acquire_workspace(ctx["x_shape"], ctx["dtype"])
    gi = g * inv
    for i in range(kernel):
        for j in range(kernel):
            xg[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += gi
    return xg
