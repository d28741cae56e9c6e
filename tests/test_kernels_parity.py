"""Backend parity: every registered kernel against the reference oracle.

The ``reference`` backend is the pre-dispatch numpy code verbatim, so any
other backend must reproduce it — bit-exactly for pure gather/scatter and
elementwise ops (relu masks, pooling winners, the batchnorm backward), and
within float32 round-off for ops whose fast path reassociates a GEMM or a
normalization.
Backwards are checked through the matching kernel pair (a fast forward's
ctx feeds the fast backward), exactly as the tape wires them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, kernels
from repro.tensor.workspace import clear_workspace_cache
from repro.tensor.kernels import fast as fast_mod
from repro.tensor.kernels import registry

RNG = np.random.default_rng(1234)

#: Relative tolerance for kernels that reorder float32 summations.
GEMM_RTOL = 2e-5
GEMM_ATOL = 1e-6

#: Backends checked against reference for every op they register.
FAST_BACKENDS = [b for b in kernels.list_backends() if b != "reference"]


def _pair(op: str, backend: str):
    """(reference_fn, backend_fn) for ``op``, skipping unregistered combos."""
    ref = registry._KERNELS[op]["reference"]
    fn = registry._KERNELS[op].get(backend)
    if fn is None:
        pytest.skip(f"{op} not registered on {backend}")
    return ref, fn


@pytest.fixture(autouse=True)
def _fresh_pool():
    clear_workspace_cache()
    yield
    clear_workspace_cache()


# --------------------------------------------------------------------- #
# matmul
# --------------------------------------------------------------------- #


class TestMatmulParity:
    # Shapes straddling every fast-path decision boundary: the batched
    # flatten (trailing <= FLAT_MATMUL_MAX_COLS), its refusal, the 2-D
    # tiled path, and plain fallthrough.
    SHAPES = [
        ((8, 16), (16, 12)),
        ((256, 2304), (8, 2304, 16)),                       # flattened batch path
        ((64, 128), (4, 128, fast_mod.FLAT_MATMUL_MAX_COLS + 8)),  # refused: wide
        ((fast_mod.TILE_MIN_ROWS + 64, 32), (32, 8)),       # tiled 2-D path
        ((3, 7, 5), (3, 5, 9)),                             # batched 3-D @ 3-D
    ]

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("ashape,bshape", SHAPES)
    def test_matches_reference(self, backend, ashape, bshape):
        ref, fn = _pair("matmul", backend)
        a = RNG.standard_normal(ashape).astype(np.float32)
        b = RNG.standard_normal(bshape).astype(np.float32)
        np.testing.assert_allclose(fn(a, b), ref(a, b), rtol=GEMM_RTOL, atol=GEMM_ATOL)

    def test_mixed_dtype_falls_through(self):
        _, fn = _pair("matmul", "fast")
        a = RNG.standard_normal((300, 20)).astype(np.float32)
        b = RNG.standard_normal((20, 4)).astype(np.float64)
        np.testing.assert_allclose(fn(a, b), a @ b)


# --------------------------------------------------------------------- #
# conv2d
# --------------------------------------------------------------------- #

CONV_CASES = [
    # (n, c, f, hw, k, stride, pad) — both the flat small-output path and
    # the batched path above FLAT_CONV_MAX_OHW.
    (2, 3, 4, 6, 3, 1, 1),      # flat: ohw = 36
    (2, 3, 4, 6, 3, 2, 0),      # flat, strided
    (1, 2, 3, 5, 1, 1, 0),      # flat, 1x1 kernel
    (2, 3, 4, 16, 3, 1, 1),     # batched: ohw = 256 > FLAT_CONV_MAX_OHW
]


class TestConvParity:
    @pytest.mark.parametrize("n,c,f,hw,k,stride,pad", CONV_CASES)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_forward(self, n, c, f, hw, k, stride, pad, with_bias):
        ref, fn = _pair("conv2d_forward", "fast")
        oh = ow = (hw + 2 * pad - k) // stride + 1
        x = RNG.standard_normal((n, c, hw, hw)).astype(np.float32)
        w = RNG.standard_normal((f, c, k, k)).astype(np.float32)
        b = RNG.standard_normal(f).astype(np.float32) if with_bias else None
        out_f, _ = fn(x, w, b, stride, pad, oh, ow)
        out_r, _ = ref(x, w, b, stride, pad, oh, ow)
        assert out_f.shape == out_r.shape == (n, f, oh, ow)
        np.testing.assert_allclose(out_f, out_r, rtol=GEMM_RTOL, atol=GEMM_ATOL)

    @pytest.mark.parametrize("n,c,f,hw,k,stride,pad", CONV_CASES)
    def test_backward(self, n, c, f, hw, k, stride, pad):
        fwd_r, fwd_f = _pair("conv2d_forward", "fast")
        bwd_r, bwd_f = _pair("conv2d_backward", "fast")
        oh = ow = (hw + 2 * pad - k) // stride + 1
        x = RNG.standard_normal((n, c, hw, hw)).astype(np.float32)
        w = RNG.standard_normal((f, c, k, k)).astype(np.float32)
        b = RNG.standard_normal(f).astype(np.float32)
        g = RNG.standard_normal((n, f, oh, ow)).astype(np.float32)
        _, ctx_f = fwd_f(x, w, b, stride, pad, oh, ow)
        _, ctx_r = fwd_r(x, w, b, stride, pad, oh, ow)
        gx_f, gw_f, gb_f = bwd_f(g, ctx_f, True, True, True)
        gx_r, gw_r, gb_r = bwd_r(g, ctx_r, True, True, True)
        np.testing.assert_allclose(gb_f, gb_r, rtol=GEMM_RTOL, atol=1e-4)
        np.testing.assert_allclose(gw_f, gw_r, rtol=GEMM_RTOL, atol=1e-4)
        np.testing.assert_allclose(gx_f, gx_r, rtol=GEMM_RTOL, atol=1e-4)

    def test_backward_need_flags_return_none(self):
        fwd_r, fwd_f = _pair("conv2d_forward", "fast")
        bwd_r, bwd_f = _pair("conv2d_backward", "fast")
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
        g = RNG.standard_normal((2, 4, 6, 6)).astype(np.float32)
        for fwd, bwd in ((fwd_f, bwd_f), (fwd_r, bwd_r)):
            _, ctx = fwd(x, w, None, 1, 1, 6, 6)
            gx, gw, gb = bwd(g, ctx, False, True, False)
            assert gx is None and gb is None and gw is not None


# --------------------------------------------------------------------- #
# relu (bit-exact: identical mask semantics)
# --------------------------------------------------------------------- #


class TestReluParity:
    def test_forward_and_backward_bit_exact(self):
        fwd_r, fwd_f = _pair("relu_forward", "fast")
        bwd_r, bwd_f = _pair("relu_backward", "fast")
        x = RNG.standard_normal((64, 32)).astype(np.float32)
        x[0, 0] = 0.0
        x[0, 1] = -0.0
        g = RNG.standard_normal((64, 32)).astype(np.float32)
        out_f, ctx_f = fwd_f(x)
        out_r, ctx_r = fwd_r(x)
        np.testing.assert_array_equal(out_f, out_r)
        np.testing.assert_array_equal(bwd_f(g, ctx_f), bwd_r(g, ctx_r))

    def test_grad_dtype_preserved(self):
        _, fwd_f = _pair("relu_forward", "fast")
        _, bwd_f = _pair("relu_backward", "fast")
        x = RNG.standard_normal((4, 4)).astype(np.float32)
        _, ctx = fwd_f(x)
        assert bwd_f(np.ones((4, 4), dtype=np.float32), ctx).dtype == np.float32


# --------------------------------------------------------------------- #
# batch norm
# --------------------------------------------------------------------- #


def _bn_args(shape):
    x = RNG.standard_normal(shape).astype(np.float32)
    axes = (0,) if len(shape) == 2 else (0, 2, 3)
    pshape = (1, -1) if len(shape) == 2 else (1, -1, 1, 1)
    c = shape[1]
    g_ = (1.0 + 0.1 * RNG.standard_normal(c)).astype(np.float32).reshape(pshape)
    b_ = (0.1 * RNG.standard_normal(c)).astype(np.float32).reshape(pshape)
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    return x, g_, b_, mu, var, axes


BN_SHAPES = [(16, 8), (4, 6, 5, 5)]


class TestBatchNormParity:
    # One op is left; its parameter keeps these tests' ids stable.
    @pytest.mark.parametrize("shape", BN_SHAPES)
    @pytest.mark.parametrize("op", ["batch_norm"])
    def test_forward(self, shape, op):
        ref, fn = _pair(f"{op}_forward", "fast")
        x, g_, b_, mu, var, _ = _bn_args(shape)
        out_f, _ = fn(x, g_, b_, mu, var, 1e-5)
        out_r, _ = ref(x, g_, b_, mu, var, 1e-5)
        np.testing.assert_allclose(out_f, out_r, rtol=2e-5, atol=1e-5)

    @pytest.mark.parametrize("shape", BN_SHAPES)
    @pytest.mark.parametrize("op", ["batch_norm"])
    @pytest.mark.parametrize("training", [True, False])
    def test_backward(self, shape, op, training):
        fwd_r, fwd_f = _pair(f"{op}_forward", "fast")
        bwd_r, bwd_f = _pair(f"{op}_backward", "fast")
        x, g_, b_, mu, var, axes = _bn_args(shape)
        g = RNG.standard_normal(shape).astype(np.float32)
        _, ctx_f = fwd_f(x, g_, b_, mu, var, 1e-5)
        _, ctx_r = fwd_r(x, g_, b_, mu, var, 1e-5)
        grads_f = bwd_f(g, ctx_f, axes, training, True, True, True)
        grads_r = bwd_r(g, ctx_r, axes, training, True, True, True)
        # The fast ctx recomputes xhat as the reference forward computes
        # it, so the backward pair agrees bit for bit (no BLAS involved).
        for got, want in zip(grads_f, grads_r):
            _assert_same_bits(got, want)


# --------------------------------------------------------------------- #
# pooling (bit-exact: the same winners and window sums, in the same order)
# --------------------------------------------------------------------- #


class TestPoolingParity:
    @pytest.mark.parametrize("op", ["max_pool2d", "avg_pool2d"])
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_forward_bit_exact(self, op, kernel, stride):
        ref, fn = _pair(f"{op}_forward", "fast")
        x = RNG.standard_normal((2, 3, 9, 9)).astype(np.float32)
        oh = ow = (9 - kernel) // stride + 1
        out_f, _ = fn(x, kernel, stride, oh, ow)
        out_r, _ = ref(x, kernel, stride, oh, ow)
        np.testing.assert_array_equal(out_f, out_r)

    @pytest.mark.parametrize("op", ["max_pool2d", "avg_pool2d"])
    def test_backward_through_fast_forward_ctx(self, op):
        # The backward the tape pairs with a fast forward (fast for max
        # pooling; the reference kernel for average pooling, which falls
        # back) must accept its ctx and agree with the reference pair.
        ref_fwd, fast_fwd = _pair(f"{op}_forward", "fast")
        ref_bwd = registry._KERNELS[f"{op}_backward"]["reference"]
        _, fast_bwd = kernels.resolve(f"{op}_backward", "fast")
        x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        g = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        _, ctx_f = fast_fwd(x, 2, 2, 4, 4)
        _, ctx_r = ref_fwd(x, 2, 2, 4, 4)
        np.testing.assert_array_equal(fast_bwd(g, ctx_f), ref_bwd(g, ctx_r))


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values (NaN matching NaN) and the same sign on every zero."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestMaxPoolBitExact:
    """The fast max pool (running maximum forward, winner search in
    backward) against the reference argmax, bit for bit, on the inputs
    where a winner search can differ: ties, signed zeros, NaN, windows
    that overlap and a border no window covers.  No BLAS call runs here."""

    @staticmethod
    def _input(fill: str, hw: int, rng: np.random.Generator) -> np.ndarray:
        x = rng.standard_normal((2, 3, hw, hw)).astype(np.float32)
        if fill == "relu":  # the all-zero windows ReLU makes, and ties at 0
            x = np.maximum(x, 0.0)
            x[0, 0] = 0.0
        elif fill == "signed_zeros":  # every window ties between +0 and -0
            x = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0).astype(np.float32)
        elif fill == "nan":  # one NaN in a window, two in another
            x[0, 0, 1, 1] = np.nan
            x[1, 2, 0, 0] = x[1, 2, 0, 1] = np.nan
        return x

    @pytest.mark.parametrize(
        "kernel,stride,hw",
        [(2, 2, 8), (2, 2, 9), (3, 2, 9), (3, 1, 6)],
        ids=["tiled", "odd_border", "overlap", "overlap_stride1"],
    )
    @pytest.mark.parametrize("fill", ["normal", "relu", "signed_zeros", "nan"])
    def test_forward_and_backward(self, kernel, stride, hw, fill):
        rng = np.random.default_rng(7)
        x = self._input(fill, hw, rng)
        oh = ow = (hw - kernel) // stride + 1
        g = rng.standard_normal((2, 3, oh, ow)).astype(np.float32)
        g[0, :, 0, :] = -0.0  # a -0.0 upstream gradient
        fwd_r, fwd_f = _pair("max_pool2d_forward", "fast")
        bwd_r, bwd_f = _pair("max_pool2d_backward", "fast")
        out_f, ctx_f = fwd_f(x, kernel, stride, oh, ow)
        out_r, ctx_r = fwd_r(x, kernel, stride, oh, ow)
        _assert_same_bits(out_f, out_r)
        _assert_same_bits(bwd_f(g, ctx_f), bwd_r(g, ctx_r))


# --------------------------------------------------------------------- #
# end-to-end gradcheck on the non-reference backends
# --------------------------------------------------------------------- #


class TestGradcheckOnFastBackends:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_conv2d(self, backend):
        from repro.tensor import conv2d

        x = Tensor(RNG.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(0.5 * RNG.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(0.1 * RNG.standard_normal(3), requires_grad=True)
        with kernels.use_backend(backend):
            gradcheck(lambda: (conv2d(x, w, b, stride=1, pad=1) ** 2).sum(), (x, w, b))

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_batch_norm(self, backend):
        from repro.tensor import batch_norm

        x = Tensor(RNG.standard_normal((6, 4)), requires_grad=True)
        gamma = Tensor(1.0 + 0.1 * RNG.standard_normal(4), requires_grad=True)
        beta = Tensor(0.1 * RNG.standard_normal(4), requires_grad=True)
        rm = np.zeros(4)
        rv = np.ones(4)
        with kernels.use_backend(backend):
            gradcheck(
                lambda: (
                    batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training=True) ** 2
                ).sum(),
                (x, gamma, beta),
            )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_matmul_and_relu(self, backend):
        a = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
        b = Tensor(RNG.standard_normal((6, 3)), requires_grad=True)
        with kernels.use_backend(backend):
            gradcheck(lambda: ((a @ b).relu() ** 2).sum(), (a, b))


# --------------------------------------------------------------------- #
# module-level parity: a small conv net end to end
# --------------------------------------------------------------------- #


class TestModelLevelParity:
    def test_forward_and_grads_agree_across_backends(self):
        from repro import nn

        def build():
            m = nn.Sequential(
                nn.Conv2d(2, 4, 3, padding=1),
                nn.BatchNorm2d(4),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(4 * 3 * 3, 5),
            )
            return m.finalize(seed=11)

        x_data = RNG.standard_normal((3, 2, 6, 6)).astype(np.float32)
        results = {}
        for backend in ["reference", "fast"]:
            model = build()
            x = Tensor(x_data, requires_grad=True)
            with kernels.use_backend(backend):
                y = model(x)
                y.sum().backward()
            results[backend] = (y.data, x.grad, [p.grad.copy() for p in model.parameters()])
        y_r, gx_r, gp_r = results["reference"]
        y_f, gx_f, gp_f = results["fast"]
        np.testing.assert_allclose(y_f, y_r, rtol=2e-5, atol=1e-5)
        np.testing.assert_allclose(gx_f, gx_r, rtol=2e-4, atol=1e-4)
        for got, want in zip(gp_f, gp_r):
            np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-4)
