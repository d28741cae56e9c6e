"""Fast backend: pooled workspaces, batch-flattened conv GEMM, folded batchnorm.

Every kernel here is parity-tested against the ``reference`` backend
(``tests/test_kernels_parity.py``) and perf-gated in CI against a
committed normalized baseline, so a "fast" path that stops being fast or
starts being wrong cannot ship silently.  A rewrite of a kernel here also
keeps every bit of a training run (losses, gradients, the weight plane):
it may reorder memory, not arithmetic.  Three conv-backward rewrites rely
on OpenBLAS rounding a transposed product or operand, and a product with
extra zero columns, as it rounds the original (see docs/kernels.md).

What actually wins on this op mix (measured, not assumed; VGG-S x0.125
layers at batch 32, 2-vCPU host, BLAS at one thread):

* **Persistent im2col workspaces** — the patch buffer is the largest
  allocation in a conv step; acquiring it from the refcount-guarded pool
  (``zero=False``: im2col overwrites every element) makes it persistent
  across training steps.  Likewise the pad buffer, GEMM outputs, and the
  pooling outputs and masks.  The pool matches requests by bytes, so an
  evaluation at another batch size reuses the training step's buffers.
* **No patch matrix kept on the per-sample path** — above
  ``FLAT_CONV_MAX_OHW`` the forward runs im2col and the per-sample GEMMs
  a chunk of samples at a time, sized so the chunk's patch matrix stays
  in L2, and keeps only its input.  The backward rebuilds the patch
  matrix once, in the flat ``(K, N*OH*OW)`` layout, for the weight
  gradient ``cols @ g.T``.  No 9x patch matrix lives from forward to
  backward (9.4 MB per 32x32 layer of VGG-S x0.125 at batch 32).
* **Batch-flattened conv GEMM** — for the late-layer shapes conv produces
  (many channels, small spatial output), N separate ``(F,K) @ (K,OHW)``
  products are dominated by per-GEMM overhead.  Building the patch matrix
  directly in ``(K, N*OH*OW)`` layout turns the whole batch into one
  L2-friendly GEMM (1.2-2.7x on the bench shapes); the backward runs the
  same flat layout, with the weight gradient as ``cols @ g.T`` (the
  faster orientation: 0.81 -> 0.51 ms at 8x8) and transposed after.
* **Row-wise col2im** — a stride-1 input gradient computed over rows
  zero-padded to the padded width scatters one contiguous run per window
  and plane (1.2-1.6x up to 16x16 outputs; ``ROW_COL2IM_MAX_OHW``).
* **Blocked/tiled matmul** — very tall 2-D GEMMs are row-blocked so each
  ``block x K`` panel fits the L2 target; batched right-hand sides with a
  skinny trailing dim are flattened into one GEMM.
* **Folded batchnorm** — ``(gamma, beta, mu, var)`` become one
  per-channel ``scale``/``shift`` pair, which halves the passes over the
  activation.  ``xhat`` is recomputed lazily in backward, so
  eval/inference never pays for it, and the backward evaluates the
  reference formula in place (forward + backward 3.16 -> 1.52 ms at 32x32).
* **Winner search in the max-pool backward** — the forward keeps only the
  running maximum of the window views (2.02 -> 0.16 ms at 32x32, against a
  candidate stack and argmax); the backward finds argmax's winner itself.
"""

from __future__ import annotations

import numpy as np

from repro.profile import profiled
from repro.tensor.kernels.registry import register_kernel
from repro.tensor.workspace import acquire_workspace

__all__: list[str] = []

#: Largest OH*OW for which the batch-flattened conv GEMM wins (measured:
#: 1.2-2.7x at <= 64, loses past ~200 where per-batch GEMMs are already big).
FLAT_CONV_MAX_OHW = 64
#: Largest OH*OW for which a stride-1 conv backward computes its input
#: gradient over zero-padded rows (see ``_input_grad``).  Measured on the
#: VGG-S x0.125 layers at batch 32: 1.2-1.6x faster from 2x2 to 16x16
#: outputs, 12% slower at 32x32, where the compact rows are long already.
ROW_COL2IM_MAX_OHW = 256
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
    # op output buffer; escapes to the caller
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
    # op output buffer; escapes to the caller
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


def _flat_cols(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """The patch matrix of padded ``xp`` in (K, N*OH*OW) layout, pooled.

    The transposes live in the im2col writes (same strided-copy cost as
    the batched layout), so the whole batch is one GEMM operand.
    """
    n, c = xp.shape[:2]
    cols = acquire_workspace((c, kh, kw, n, oh, ow), xp.dtype, zero=False)
    xs = xp.swapaxes(0, 1)  # (C, N, H, W) view
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xs[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, n * oh * ow)


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
        cf = _flat_cols(xp, kh, kw, stride, oh, ow)
        o2 = acquire_workspace((f, n * ohw), xp.dtype, zero=False)
        np.matmul(w_flat, cf, out=o2)
        if bias is not None:
            o2 += bias.reshape(f, 1)
        # repro: noqa[RPA002] op output; escapes into the returned Tensor
        out = np.empty((n, f, oh, ow), dtype=xp.dtype)
        np.copyto(out, o2.reshape(f, n, oh, ow).swapaxes(0, 1))
        ctx.update(flat=True, cols=cf)
        return out, ctx

    # Large spatial output: per-sample GEMMs are already BLAS-sized.  im2col
    # and the GEMMs run a chunk of samples at a time, sized so the chunk's
    # patch matrix stays in L2; the ctx keeps only the input, from which the
    # backward rebuilds the patch matrix.
    per_sample = k * ohw * xp.itemsize
    chunk = max(1, min(n, L2_TARGET_BYTES // per_sample))
    cols = acquire_workspace((chunk, c, kh, kw, oh, ow), xp.dtype, zero=False)
    out3 = acquire_workspace((n, f, ohw), xp.dtype, zero=False)
    for lo in range(0, n, chunk):
        part = cols[: min(chunk, n - lo)]
        xs = xp[lo : lo + chunk]
        for i in range(kh):
            rows = slice(i, i + stride * oh, stride)
            for j in range(kw):
                part[:, :, i, j] = xs[:, :, rows, j : j + stride * ow : stride]
        np.matmul(w_flat, part.reshape(len(part), k, ohw), out=out3[lo : lo + chunk])
    if bias is not None:
        out3 += bias.reshape(1, f, 1)
    ctx.update(flat=False, x=x)
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
    n = ctx["x_shape"][0]
    f = ctx["w_shape"][0]
    oh, ow = ctx["oh"], ctx["ow"]
    flat = ctx["flat"]

    gw = None
    if flat or need_gw:
        g2 = acquire_workspace((f, n * oh * ow), g.dtype, zero=False)
        np.copyto(g2.reshape(f, n, oh, ow), g.swapaxes(0, 1))
        if need_gw:
            gw = _weight_grad(g2, ctx)
    if flat:
        gb = g2.sum(axis=1) if need_gb else None
    else:
        g2 = g.reshape(n, f, oh * ow)  # the batched input gradient's layout
        gb = g2.sum(axis=(0, 2)) if need_gb else None
    gx = _input_grad(g, g2, ctx) if need_gx else None
    return gx, gw, gb


def _weight_grad(g2: np.ndarray, ctx: dict) -> np.ndarray:
    """``cols @ g2.T`` from the flat ``(K, N*OHW)`` patch matrix, transposed.

    ``(K, N*OHW) @ (N*OHW, F)`` is this GEMM's faster orientation; the
    small ``(K, F)`` result is transposed into the gradient buffer.  The
    flat path kept its patch matrix in ctx; the per-sample path rebuilds it
    from its input, and hands it back to the pool on return, before the
    input gradient takes its own columns buffer.
    """
    f, _, kh, kw = ctx["w_shape"]
    if ctx["flat"]:
        cf = ctx["cols"]
    else:
        xp = _padded_input(ctx["x"], ctx["pad"])
        cf = _flat_cols(xp, kh, kw, ctx["stride"], ctx["oh"], ctx["ow"])
    k = cf.shape[0]
    gwt = acquire_workspace((k, f), g2.dtype, zero=False)
    np.matmul(cf, g2.T, out=gwt)
    gw = acquire_workspace((f, k), g2.dtype, zero=False)
    np.copyto(gw, gwt.T)
    return gw.reshape(ctx["w_shape"])


def _input_grad(g: np.ndarray, g2: np.ndarray, ctx: dict) -> np.ndarray:
    """``w_flat.T @ g`` columns scattered back onto the (cropped) input.

    ``g2`` is the compact gradient :func:`conv2d_backward` already laid out,
    ``(F, N*OHW)`` on the flat path and ``(N, F, OHW)`` on the batched one.
    A stride-1 conv with ``OH*OW <= ROW_COL2IM_MAX_OHW`` instead computes
    its columns over gradient rows zero-padded to the padded input width
    WP: in a padded plane's flat ``HP*WP`` index, window ``(i, j)`` then
    covers one contiguous run from ``i*WP + j``, not OH runs of OW floats.
    For finite weights the padding columns come out of the GEMM as ±0.0,
    and adding ±0.0 changes no element of the zeroed buffer (a sum that
    starts at +0.0 never reaches -0.0), so the result keeps every bit.
    """
    w_flat = ctx["w_flat"]
    n, c, h, w = ctx["x_shape"]
    f, _, kh, kw = ctx["w_shape"]
    stride, pad, oh, ow = ctx["stride"], ctx["pad"], ctx["oh"], ctx["ow"]
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = ctx["flat"]
    by_rows = stride == 1 and oh * ow <= ROW_COL2IM_MAX_OHW
    if by_rows:
        span = oh * wp
        gm = acquire_workspace((f, n, oh, wp) if flat else (n, f, oh, wp), g.dtype, zero=False)
        gm[..., ow:] = 0
        np.copyto(gm[..., :ow], g.swapaxes(0, 1) if flat else g)
    else:
        span = oh * ow
        gm = g2
    # Columns as a (C, KH, KW, N, span) view whichever layout computed them.
    if flat:
        gcols = acquire_workspace((c * kh * kw, n * span), g.dtype, zero=False)
        np.matmul(w_flat.T, gm.reshape(f, n * span), out=gcols)
        c5 = gcols.reshape(c, kh, kw, n, span)
    else:
        gcols = acquire_workspace((n, c * kh * kw, span), g.dtype, zero=False)
        np.matmul(w_flat.T, gm.reshape(n, f, span), out=gcols)
        c5 = gcols.reshape(n, c, kh, kw, span).transpose(1, 2, 3, 0, 4)

    xg = acquire_workspace((n, c, hp, wp), g.dtype)  # zeroed: scatter-add target
    if by_rows:
        planes = xg.reshape(n, c, hp * wp).swapaxes(0, 1)  # (C, N, HP*WP) view
        run = (oh - 1) * wp + ow  # first to last real column of a plane
        for i in range(kh):
            for j in range(kw):
                lo = i * wp + j
                planes[:, :, lo : lo + run] += c5[:, i, j, :, :run]
    else:
        xs = xg.swapaxes(0, 1)  # (C, N, HP, WP) view
        c6 = c5.reshape(c, kh, kw, n, oh, ow)
        for i in range(kh):
            for j in range(kw):
                xs[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += c6[
                    :, i, j
                ]
    return xg[:, :, pad:-pad, pad:-pad] if pad else xg


# ---------------------------------------------------------------------- #
# relu
# ---------------------------------------------------------------------- #


@register_kernel("relu_forward", "fast")
@profiled("kernels.relu_forward.fast")
def relu_forward(x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Single-pass rectifier; the mask is derived from the output lazily."""
    # op output; escapes into the returned Tensor
    out = np.maximum(x, 0.0)
    return out, {"out": out}


@register_kernel("relu_backward", "fast")
@profiled("kernels.relu_backward.fast")
def relu_backward(g: np.ndarray, ctx: dict) -> np.ndarray:
    # out > 0 is exactly x > 0 (maximum clamps negatives to 0).
    return g * (ctx["out"] > 0)


# ---------------------------------------------------------------------- #
# batch norm
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
        xhat = ctx["x"] - ctx["mu"]
        xhat *= ctx["inv_std"]
        ctx["xhat"] = xhat
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
    """The reference formulas, evaluated in place and on pooled temporaries."""
    inv_std, g_ = ctx["inv_std"], ctx["g_"]
    xhat = _lazy_xhat(ctx) if (need_ggamma or (need_gx and training)) else None
    ggamma = None
    if need_ggamma:
        ggamma = np.multiply(g, xhat, out=_scratch(g, xhat)).sum(axis=axes)
    gbeta = g.sum(axis=axes) if need_gbeta else None
    gx = None
    if need_gx:
        gx = g * g_  # op output; escapes as the input gradient
        if training:
            # ((gx - mean(gx)) - xhat * mean(gx * xhat)) * inv_std
            term2 = gx.mean(axis=axes, keepdims=True)
            tmp = _scratch(gx, xhat)
            m3 = np.multiply(gx, xhat, out=tmp).mean(axis=axes, keepdims=True)
            gx -= term2
            gx -= np.multiply(xhat, m3, out=tmp)
        gx *= inv_std
    return gx, ggamma, gbeta


def _scratch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A pooled buffer of the shape and dtype of ``a * b``."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    return acquire_workspace(shape, np.result_type(a, b), zero=False)


# ---------------------------------------------------------------------- #
# pooling (the avg-pool backward is the reference kernel, which the
# registry falls back to)
# ---------------------------------------------------------------------- #


@register_kernel("max_pool2d_forward", "fast")
@profiled("kernels.max_pool2d_forward.fast")
def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, oh: int, ow: int
) -> tuple[np.ndarray, dict]:
    """Running maximum of the window views; backward finds the winners."""
    n, c = x.shape[:2]
    # Pooled op output (zero=False: the first window overwrites it).
    out = acquire_workspace((n, c, oh, ow), x.dtype, zero=False)
    for win in range(kernel * kernel):
        i, j = divmod(win, kernel)
        view = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
        if win == 0:
            np.copyto(out, view)
        else:
            # maximum returns its second argument on ties, so the earliest
            # window keeps the output, as argmax would (and ±0 keep their
            # sign); a NaN anywhere in the window propagates.
            np.maximum(view, out, out=out)
    return out, {"x": x, "out": out, "kernel": kernel, "stride": stride}


@register_kernel("max_pool2d_backward", "fast")
@profiled("kernels.max_pool2d_backward.fast")
def max_pool2d_backward(g: np.ndarray, ctx: dict) -> np.ndarray:
    """Route each output's gradient to the first window equal to its max.

    That is argmax's winner, a NaN output included (the first NaN wins),
    and each window adds ``0.0 + g * hit`` into a zeroed buffer in window
    order, exactly as the reference backward does.
    """
    x, out, kernel, stride = ctx["x"], ctx["out"], ctx["kernel"], ctx["stride"]
    oh, ow = out.shape[2:]
    xg = acquire_workspace(x.shape, x.dtype)  # zeroed: scatter-add target
    hit = acquire_workspace(out.shape, np.bool_, zero=False)
    free = acquire_workspace(out.shape, np.bool_, zero=False)  # no winner yet
    gh = acquire_workspace(out.shape, g.dtype, zero=False)
    nan = None  # a NaN output equals nothing: its winner is the first NaN
    if np.isnan(out, out=hit).any():
        nan = acquire_workspace(out.shape, np.bool_, zero=False)
    last = kernel * kernel - 1
    for win in range(last + 1):
        i, j = divmod(win, kernel)
        rows = slice(i, i + stride * oh, stride)
        cols = slice(j, j + stride * ow, stride)
        np.equal(x[:, :, rows, cols], out, out=hit)
        if nan is not None:
            hit |= np.isnan(x[:, :, rows, cols], out=nan)
        if win == 0:
            np.logical_not(hit, out=free)
        else:
            hit &= free
            if win < last:
                free ^= hit
        np.multiply(g, hit, out=gh)
        xg[:, :, rows, cols] += gh
    return xg


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
