"""Fast backend: pooled workspaces, batch-flattened conv GEMM, fused ops.

Every kernel here is parity-tested against the ``reference`` backend
(``tests/test_kernels_parity.py``) and perf-gated in CI against a
committed normalized baseline, so a "fast" path that stops being fast or
starts being wrong cannot ship silently.

What actually wins on this op mix (measured, not assumed):

* **Persistent im2col workspaces** — the patch buffer is the largest
  allocation in a conv step; acquiring it from the refcount-guarded pool
  (``zero=False``: im2col overwrites every element) makes it persistent
  across training steps.  Likewise the pad buffer, GEMM outputs, and the
  pooling staging buffers.
* **Batch-flattened conv GEMM** — for the late-layer shapes conv produces
  (many channels, small spatial output), N separate ``(F,K) @ (K,OHW)``
  products are dominated by per-GEMM overhead.  Building the patch matrix
  directly in ``(K, N*OH*OW)`` layout turns the whole batch into one
  L2-friendly GEMM (1.2-2.7x on the bench shapes); the backward runs the
  same flat layout (single-GEMM weight gradient instead of an einsum).
* **Blocked/tiled matmul** — very tall 2-D GEMMs are row-blocked so each
  ``block x K`` panel fits the L2 target; batched right-hand sides with a
  skinny trailing dim are flattened into one GEMM.
* **Fused batchnorm(+relu)** — folding ``(gamma, beta, mu, var)`` into a
  per-channel ``scale``/``shift`` pair halves the passes over the
  activation; relu happens in place on the same buffer.  ``xhat`` is
  recomputed lazily in backward, so eval/inference never pays for it.
"""

from __future__ import annotations

import numpy as np

from repro.profile import profiled
from repro.tensor.kernels.reference import _bn_input_grad
from repro.tensor.kernels.registry import register_kernel
from repro.tensor.workspace import acquire_workspace

__all__: list[str] = []

#: Largest OH*OW for which the batch-flattened conv GEMM wins (measured:
#: 1.2-2.7x at <= 64, loses past ~200 where per-batch GEMMs are already big).
FLAT_CONV_MAX_OHW = 64
#: Largest trailing dim for which a batched matmul is flattened (the
#: transpose-in/out copies only pay off for genuinely skinny columns).
FLAT_MATMUL_MAX_COLS = 16
#: Row-block working-set target for the tiled 2-D matmul (L2-ish).
L2_TARGET_BYTES = 1 << 20
#: Minimum rows before tiling is considered at all.
TILE_MIN_ROWS = 8192


# ---------------------------------------------------------------------- #
# matmul
# ---------------------------------------------------------------------- #


def _tiled_matmul_2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-blocked GEMM: each ``block x K`` panel of ``a`` fits the L2 target."""
    m, k = a.shape
    block = max(512, L2_TARGET_BYTES // max(1, k * a.itemsize))
    if m < 2 * block:
        return np.matmul(a, b)
    # repro: noqa[RPA002] op output buffer; escapes to the caller
    out = np.empty((m, b.shape[1]), dtype=a.dtype)
    for lo in range(0, m, block):
        np.matmul(a[lo : lo + block], b, out=out[lo : lo + block])
    return out


def _flattened_batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One big GEMM instead of ``b.shape[0]`` skinny ones.

    ``a`` is (M, K), ``b`` is (N, K, C) with small C: transpose ``b`` into a
    pooled (K, N*C) panel, multiply once, transpose back.
    """
    nb, k, cols = b.shape
    m = a.shape[0]
    panel = acquire_workspace((k, nb * cols), b.dtype, zero=False)
    np.copyto(panel.reshape(k, nb, cols), b.swapaxes(0, 1))
    o2 = acquire_workspace((m, nb * cols), a.dtype, zero=False)
    np.matmul(a, panel, out=o2)
    # repro: noqa[RPA002] op output buffer; escapes to the caller
    out = np.empty((nb, m, cols), dtype=a.dtype)
    np.copyto(out, o2.reshape(m, nb, cols).swapaxes(0, 1))
    return out


@register_kernel("matmul", "fast")
@profiled("kernels.matmul.fast")
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shape-dispatched matmul: flatten skinny batches, tile tall panels."""
    if a.dtype == b.dtype:
        if (
            a.ndim == 2
            and b.ndim == 3
            and b.shape[0] > 1
            and b.shape[1] == a.shape[1]
            and b.shape[2] <= FLAT_MATMUL_MAX_COLS
        ):
            return _flattened_batched_matmul(a, b)
        if a.ndim == 2 and b.ndim == 2 and a.shape[0] >= TILE_MIN_ROWS:
            return _tiled_matmul_2d(a, b)
    return a @ b


# ---------------------------------------------------------------------- #
# conv2d
# ---------------------------------------------------------------------- #


def _padded_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad spatially into a pooled buffer (border re-zeroed per call)."""
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = acquire_workspace((n, c, h + 2 * pad, w + 2 * pad), x.dtype, zero=False)
    xp[:, :, :pad, :] = 0
    xp[:, :, -pad:, :] = 0
    xp[:, :, :, :pad] = 0
    xp[:, :, :, -pad:] = 0
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


@register_kernel("conv2d_forward", "fast")
@profiled("kernels.conv2d_forward.fast")
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> tuple[np.ndarray, dict]:
    """Pooled-workspace conv; one flat GEMM when the spatial output is small."""
    n, c = x.shape[:2]
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    k = c * kh * kw
    ohw = oh * ow
    w_flat = weight.reshape(f, -1)
    xp = _padded_input(x, pad)
    ctx = {
        "w_flat": w_flat,
        "x_shape": x.shape,
        "w_shape": weight.shape,
        "stride": stride,
        "pad": pad,
        "oh": oh,
        "ow": ow,
    }

    if ohw <= FLAT_CONV_MAX_OHW:
        # Patch matrix built directly in (K, N*OH*OW) layout: the whole
        # batch is one GEMM and the transposes live in the im2col writes
        # (same strided-copy cost as the batched layout).
        cols = acquire_workspace((c, kh, kw, n, oh, ow), xp.dtype, zero=False)
        xs = xp.swapaxes(0, 1)  # (C, N, H, W) view
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xs[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
        cf = cols.reshape(k, n * ohw)
        o2 = acquire_workspace((f, n * ohw), xp.dtype, zero=False)
        np.matmul(w_flat, cf, out=o2)
        if bias is not None:
            o2 += bias.reshape(f, 1)
        # repro: noqa[RPA002] op output; escapes into the returned Tensor
        out = np.empty((n, f, oh, ow), dtype=xp.dtype)
        np.copyto(out, o2.reshape(f, n, oh, ow).swapaxes(0, 1))
        ctx.update(flat=True, cols=cols)
        return out, ctx

    # Large spatial output: per-sample GEMMs are already BLAS-sized; keep
    # the batched layout but run it entirely on pooled buffers.
    cols = acquire_workspace((n, c, kh, kw, oh, ow), xp.dtype, zero=False)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    cols3 = cols.reshape(n, k, ohw)
    out3 = acquire_workspace((n, f, ohw), xp.dtype, zero=False)
    np.matmul(w_flat, cols3, out=out3)
    if bias is not None:
        out3 += bias.reshape(1, f, 1)
    ctx.update(flat=False, cols=cols)
    return out3.reshape(n, f, oh, ow), ctx


@register_kernel("conv2d_backward", "fast")
@profiled("kernels.conv2d_backward.fast")
def conv2d_backward(
    g: np.ndarray,
    ctx: dict,
    need_gx: bool,
    need_gw: bool,
    need_gb: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Backward matching :func:`conv2d_forward`'s layout choice."""
    w_flat = ctx["w_flat"]
    n, c, h, w = ctx["x_shape"]
    f, _, kh, kw = ctx["w_shape"]
    stride, pad, oh, ow = ctx["stride"], ctx["pad"], ctx["oh"], ctx["ow"]
    ohw = oh * ow
    k = c * kh * kw

    if ctx["flat"]:
        cf = ctx["cols"].reshape(k, n * ohw)
        g2 = acquire_workspace((f, n * ohw), g.dtype, zero=False)
        np.copyto(g2.reshape(f, n, oh, ow), g.swapaxes(0, 1))
        gb = g2.sum(axis=1) if need_gb else None
        gw = None
        if need_gw:
            gw = acquire_workspace((f, k), g.dtype, zero=False)
            np.matmul(g2, cf.T, out=gw)
            gw = gw.reshape(ctx["w_shape"])
        gx = None
        if need_gx:
            gcols = acquire_workspace((k, n * ohw), g.dtype, zero=False)
            np.matmul(w_flat.T, g2, out=gcols)
            xg = acquire_workspace((n, c, h + 2 * pad, w + 2 * pad), g.dtype)
            xs = xg.swapaxes(0, 1)  # (C, N, HP, WP) view
            c6 = gcols.reshape(c, kh, kw, n, oh, ow)
            for i in range(kh):
                for j in range(kw):
                    xs[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += c6[
                        :, i, j
                    ]
            gx = xg[:, :, pad:-pad, pad:-pad] if pad else xg
        return gx, gw, gb

    cols3 = ctx["cols"].reshape(n, k, ohw)
    g2 = g.reshape(n, f, ohw)
    gb = g2.sum(axis=(0, 2)) if need_gb else None
    gw = None
    if need_gw:
        gw = np.einsum("nfo,nko->fk", g2, cols3, optimize=True).reshape(ctx["w_shape"])
    gx = None
    if need_gx:
        gcols = acquire_workspace((n, k, ohw), g.dtype, zero=False)
        np.matmul(w_flat.T, g2, out=gcols)
        xg = acquire_workspace((n, c, h + 2 * pad, w + 2 * pad), g.dtype)
        c6 = gcols.reshape(n, c, kh, kw, oh, ow)
        for i in range(kh):
            for j in range(kw):
                xg[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += c6[
                    :, :, i, j
                ]
        gx = xg[:, :, pad:-pad, pad:-pad] if pad else xg
    return gx, gw, gb


# ---------------------------------------------------------------------- #
# relu
# ---------------------------------------------------------------------- #


@register_kernel("relu_forward", "fast")
@profiled("kernels.relu_forward.fast")
def relu_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Single-pass rectifier; the mask is derived from the output lazily."""
    # repro: noqa[RPA002] op output; escapes into the returned Tensor
    out = np.maximum(x, 0.0)
    return out, {"out": out}


@register_kernel("relu_backward", "fast")
@profiled("kernels.relu_backward.fast")
def relu_backward(g: np.ndarray, ctx: dict) -> np.ndarray:
    # out > 0 is exactly x > 0 (maximum clamps negatives to 0).
    return g * (ctx["out"] > 0)


# ---------------------------------------------------------------------- #
# batch norm (and fused batchnorm+relu)
# ---------------------------------------------------------------------- #


def _scale_shift(g_, b_, mu, var, eps):
    """Fold (gamma, beta, mu, var) into per-channel scale/shift."""
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = g_ * inv_std
    shift = b_ - mu * scale
    return inv_std, scale, shift


def _lazy_xhat(ctx: dict) -> np.ndarray:
    """Recompute the normalized input on first backward use."""
    if ctx["xhat"] is None:
        ctx["xhat"] = (ctx["x"] - ctx["mu"]) * ctx["inv_std"]
    return ctx["xhat"]


@register_kernel("batch_norm_forward", "fast")
@profiled("kernels.batch_norm_forward.fast")
def batch_norm_forward(
    x: np.ndarray,
    g_: np.ndarray,
    b_: np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, dict]:
    """One multiply-add pass over the activation (xhat deferred to backward)."""
    inv_std, scale, shift = _scale_shift(g_, b_, mu, var, eps)
    out = x * scale
    out += shift
    return out, {"x": x, "mu": mu, "inv_std": inv_std, "g_": g_, "xhat": None}


@register_kernel("batch_norm_backward", "fast")
@profiled("kernels.batch_norm_backward.fast")
def batch_norm_backward(
    g: np.ndarray,
    ctx: dict,
    axes: tuple[int, ...],
    training: bool,
    need_gx: bool,
    need_ggamma: bool,
    need_gbeta: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    inv_std, g_ = ctx["inv_std"], ctx["g_"]
    xhat = _lazy_xhat(ctx) if (need_ggamma or need_gx) else None
    ggamma = (g * xhat).sum(axis=axes) if need_ggamma else None
    gbeta = g.sum(axis=axes) if need_gbeta else None
    gx = _bn_input_grad(g * g_, xhat, inv_std, axes, training) if need_gx else None
    return gx, ggamma, gbeta


@register_kernel("bn_relu_forward", "fast")
@profiled("kernels.bn_relu_forward.fast")
def bn_relu_forward(
    x: np.ndarray,
    g_: np.ndarray,
    b_: np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, dict]:
    """Fused normalize-scale-shift-clamp: one buffer, relu in place."""
    inv_std, scale, shift = _scale_shift(g_, b_, mu, var, eps)
    y = x * scale
    y += shift
    out = np.maximum(y, 0.0, out=y)
    return out, {"x": x, "mu": mu, "inv_std": inv_std, "g_": g_, "out": out, "xhat": None}


@register_kernel("bn_relu_backward", "fast")
@profiled("kernels.bn_relu_backward.fast")
def bn_relu_backward(
    g: np.ndarray,
    ctx: dict,
    axes: tuple[int, ...],
    training: bool,
    need_gx: bool,
    need_ggamma: bool,
    need_gbeta: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    gy = g * (ctx["out"] > 0)
    inv_std, g_ = ctx["inv_std"], ctx["g_"]
    xhat = _lazy_xhat(ctx) if (need_ggamma or need_gx) else None
    ggamma = (gy * xhat).sum(axis=axes) if need_ggamma else None
    gbeta = gy.sum(axis=axes) if need_gbeta else None
    gx = _bn_input_grad(gy * g_, xhat, inv_std, axes, training) if need_gx else None
    return gx, ggamma, gbeta


# ---------------------------------------------------------------------- #
# pooling (forward staging through the pool; backwards already pooled
# in the reference kernels, which the registry falls back to)
# ---------------------------------------------------------------------- #


@register_kernel("max_pool2d_forward", "fast")
@profiled("kernels.max_pool2d_forward.fast")
def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, oh: int, ow: int
) -> tuple[np.ndarray, dict]:
    """Reference argmax pooling with the candidate stack pooled."""
    n, c = x.shape[:2]
    # zero=False: the loop below writes every element of the buffer.
    cand = acquire_workspace((kernel * kernel, n, c, oh, ow), x.dtype, zero=False)
    for i in range(kernel):
        for j in range(kernel):
            cand[i * kernel + j] = x[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    arg = cand.argmax(axis=0)
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


@register_kernel("avg_pool2d_forward", "fast")
@profiled("kernels.avg_pool2d_forward.fast")
def avg_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, oh: int, ow: int
) -> tuple[np.ndarray, dict]:
    """Reference window-sum pooling accumulating into a pooled buffer."""
    n, c = x.shape[:2]
    inv = 1.0 / (kernel * kernel)
    out = acquire_workspace((n, c, oh, ow), x.dtype)  # zeroed: accumulation target
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
