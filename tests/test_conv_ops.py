"""Tests for convolution and pooling ops."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    concat,
    conv2d,
    conv_out_size,
    global_avg_pool2d,
    max_pool2d,
    pad2d,
)
from tests.conftest import finite_difference_check, rand_tensor


class TestConvOutSize:
    @pytest.mark.parametrize(
        "inp,k,s,p,expected",
        [(32, 3, 1, 1, 32), (32, 3, 2, 1, 16), (28, 5, 1, 0, 24), (8, 2, 2, 0, 4)],
    )
    def test_sizes(self, inp, k, s, p, expected):
        assert conv_out_size(inp, k, s, p) == expected

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            conv_out_size(2, 5, 1, 0)


class TestConv2dForward:
    def test_identity_kernel(self):
        # 1x1 kernel with identity channel mixing reproduces the input.
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4, 4)).astype(np.float32))
        w = Tensor(np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1))
        out = conv2d(x, w, None)
        np.testing.assert_allclose(out.numpy(), x.numpy(), rtol=1e-6)

    def test_known_sum_kernel(self):
        # All-ones 2x2 kernel computes local window sums.
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        w = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        out = conv2d(x, w, None).numpy()[0, 0]
        assert out[0, 0] == 0 + 1 + 4 + 5
        assert out[2, 2] == 10 + 11 + 14 + 15

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 1, 1), dtype=np.float32))
        b = Tensor(np.array([1.5, -2.0], dtype=np.float32))
        out = conv2d(x, w, b).numpy()
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_stride_downsamples(self):
        x = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert conv2d(x, w, None, stride=2, pad=1).shape == (1, 1, 4, 4)

    def test_padding_preserves_size(self):
        x = Tensor(np.zeros((1, 1, 7, 7), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert conv2d(x, w, None, stride=1, pad=1).shape == (1, 1, 7, 7)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            conv2d(x, w, None)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float64)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float64)
        out = conv2d(Tensor(x), Tensor(w), None, stride=1, pad=0).numpy()
        # naive quadruple loop
        ref = np.zeros((2, 4, 3, 3))
        for n in range(2):
            for f in range(4):
                for i in range(3):
                    for j in range(3):
                        ref[n, f, i, j] = (x[n, :, i : i + 3, j : j + 3] * w[f]).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-10)


class TestConv2dGradients:
    def test_grad_all_inputs(self, rng):
        x = rand_tensor(rng, (2, 2, 5, 5))
        w = rand_tensor(rng, (3, 2, 3, 3))
        b = rand_tensor(rng, (3,))
        finite_difference_check(lambda: (conv2d(x, w, b, stride=1, pad=1) ** 2).sum(), [x, w, b])

    def test_grad_strided(self, rng):
        x = rand_tensor(rng, (1, 2, 6, 6))
        w = rand_tensor(rng, (2, 2, 3, 3))
        finite_difference_check(lambda: (conv2d(x, w, None, stride=2, pad=1) ** 2).sum(), [x, w])

    def test_grad_1x1(self, rng):
        x = rand_tensor(rng, (2, 3, 4, 4))
        w = rand_tensor(rng, (5, 3, 1, 1))
        finite_difference_check(lambda: (conv2d(x, w, None) ** 2).sum(), [x, w])


class TestMaxPool:
    def test_forward_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2).numpy()[0, 0]
        np.testing.assert_allclose(out, [[5, 7], [13, 15]])

    def test_gradient_routes_to_max(self, rng):
        x = rand_tensor(rng, (2, 2, 4, 4))
        finite_difference_check(lambda: (max_pool2d(x, 2) ** 2).sum(), [x])

    def test_overlapping_stride(self, rng):
        x = rand_tensor(rng, (1, 1, 5, 5))
        out = max_pool2d(x, 3, stride=1)
        assert out.shape == (1, 1, 3, 3)
        finite_difference_check(lambda: (max_pool2d(x, 3, stride=1) ** 2).sum(), [x])


class TestAvgPool:
    def test_forward_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2).numpy()[0, 0]
        np.testing.assert_allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_gradient(self, rng):
        x = rand_tensor(rng, (2, 2, 4, 4))
        finite_difference_check(lambda: (avg_pool2d(x, 2) ** 2).sum(), [x])


class TestGlobalAvgPool:
    def test_forward(self):
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32) * 2.0)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.numpy(), 2.0)

    def test_gradient(self, rng):
        x = rand_tensor(rng, (2, 3, 3, 3))
        finite_difference_check(lambda: (global_avg_pool2d(x) ** 2).sum(), [x])


class TestPadConcat:
    def test_pad2d_shape(self):
        x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        assert pad2d(x, 2).shape == (1, 2, 7, 7)

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert pad2d(x, 0) is x

    def test_pad2d_gradient(self, rng):
        x = rand_tensor(rng, (1, 1, 3, 3))
        finite_difference_check(lambda: (pad2d(x, 1) ** 2).sum(), [x])

    def test_concat_forward(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.numpy()[:, :2], 1.0)
        np.testing.assert_allclose(out.numpy()[:, 2:], 0.0)

    def test_concat_gradient(self, rng):
        a = rand_tensor(rng, (2, 2))
        b = rand_tensor(rng, (2, 3))
        finite_difference_check(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_concat_axis0_gradient(self, rng):
        a = rand_tensor(rng, (2, 3))
        b = rand_tensor(rng, (1, 3))
        finite_difference_check(lambda: (concat([a, b], axis=0) ** 2).sum(), [a, b])


class TestWorkspaceCache:
    def test_col2im_reuses_cached_workspace(self, rng):
        """Repeated backward passes hit the shape-keyed workspace pool."""
        from repro import profile
        from repro.tensor.workspace import clear_workspace_cache

        clear_workspace_cache()
        was_enabled = profile.is_enabled()
        profile.enable()
        try:
            before = profile.snapshot()["counters"]
            w = rand_tensor(rng, (2, 1, 3, 3))
            for _ in range(4):
                x = rand_tensor(rng, (2, 1, 6, 6))
                conv2d(x, w, None, stride=1, pad=1).sum().backward()
                x.grad = None
                w.grad = None
            after = profile.snapshot()["counters"]
            hits = after.get("conv.workspace_hits", 0) - before.get("conv.workspace_hits", 0)
            misses = after.get("conv.workspace_misses", 0) - before.get("conv.workspace_misses", 0)
        finally:
            if not was_enabled:
                profile.disable()
            clear_workspace_cache()
        assert misses >= 1  # first backward allocates
        assert hits >= 2  # later backwards reuse the freed buffer

    def test_workspace_reuse_does_not_corrupt_gradients(self, rng):
        """A gradient that outlives its backward pass must not be clobbered
        by a later conv backward reusing the same-shape workspace."""
        from repro import profile
        from repro.tensor.workspace import clear_workspace_cache

        clear_workspace_cache()
        was_enabled = profile.is_enabled()
        profile.enable()
        try:
            w = rand_tensor(rng, (1, 1, 3, 3))
            x1 = rand_tensor(rng, (1, 1, 5, 5))
            conv2d(x1, w, None, stride=1, pad=1).sum().backward()
            held = x1.grad.copy()
            # same-shape backward while x1.grad is still alive
            x2 = rand_tensor(rng, (1, 1, 5, 5))
            w.grad = None
            conv2d(x2, w, None, stride=1, pad=1).sum().backward()
            np.testing.assert_array_equal(x1.grad, held)
        finally:
            if not was_enabled:
                profile.disable()
            clear_workspace_cache()


    def test_vgg_steps_after_the_first_allocate_no_workspace(self, rng):
        """Once the first round (a step, then an evaluation at another batch
        size) has filled the pool, every later VGG-S training step and
        evaluation finds each buffer it needs there, however many it holds
        at once (five conv weight gradients share one size)."""
        from repro import profile
        from repro.core import DropBack
        from repro.models import vgg_s
        from repro.tensor import cross_entropy, kernels, no_grad
        from repro.tensor.workspace import clear_workspace_cache

        model = vgg_s(width_mult=0.125).finalize(0)
        opt = DropBack(model, k=20_000, lr=0.05)
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        x_eval = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)

        def step():
            model.train()
            opt.zero_grad()
            cross_entropy(model(Tensor(x)), y).backward()
            opt.step()

        def evaluate():
            model.eval()
            with no_grad():
                model(Tensor(x_eval))

        clear_workspace_cache()
        was_enabled = profile.is_enabled()
        profile.enable()
        misses = []  # per round: (step, evaluation)
        try:
            with kernels.use_backend("fast"):
                for _ in range(5):
                    counts = []
                    for phase in (step, evaluate):
                        before = profile.snapshot()["counters"].get("conv.workspace_misses", 0)
                        phase()
                        after = profile.snapshot()["counters"].get("conv.workspace_misses", 0)
                        counts.append(after - before)
                    misses.append(tuple(counts))
        finally:
            if not was_enabled:
                profile.disable()
            clear_workspace_cache()
        assert misses[0][0] > 0
        assert misses[1:] == [(0, 0)] * 4

    def test_vgg_fit_pool_holds_at_most_20_mb(self):
        """A VGG-S x0.125 fit at batch 8 that evaluates at batch 16 keeps the
        pool at most 20 MB: evaluation reuses the training buffers' bytes,
        and no step's buffers stay busy through the next step."""
        from repro.core import DropBack
        from repro.data import DataLoader, synth_cifar
        from repro.models import vgg_s
        from repro.tensor import kernels
        from repro.tensor.workspace import clear_workspace_cache, workspace_bytes
        from repro.train import LambdaCallback, Trainer

        train, val = synth_cifar(n_train=32, n_test=32, seed=0)
        model = vgg_s(width_mult=0.125).finalize(0)
        opt = DropBack(model, k=20_000, lr=0.05)
        held = []
        record = LambdaCallback(
            on_step_end=lambda *_: held.append(workspace_bytes()[0]),
            on_epoch_end=lambda *_: held.append(workspace_bytes()[0]),
        )
        clear_workspace_cache()
        try:
            with kernels.use_backend("fast"):
                Trainer(model, opt, callbacks=[record]).fit(
                    DataLoader(train, 8, seed=0),
                    DataLoader(val, 16, shuffle=False),
                    epochs=2,
                )
        finally:
            clear_workspace_cache()
        assert len(held) == 2 * (4 + 1)
        assert max(held) <= 20e6

    def test_per_sample_conv_ctx_keeps_no_patch_matrix(self, rng):
        """Above FLAT_CONV_MAX_OHW the conv keeps only its input for the
        backward, which rebuilds the K*N*OH*OW patch matrix itself."""
        from repro.tensor.kernels import fast

        n, c, f, hw = 4, 3, 5, 16
        x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
        w = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
        assert hw * hw > fast.FLAT_CONV_MAX_OHW
        _, ctx = fast.conv2d_forward(x, w, None, 1, 1, hw, hw)
        patch = c * 3 * 3 * n * hw * hw
        arrays = [v for v in ctx.values() if isinstance(v, np.ndarray)]
        assert any(a is x for a in arrays)
        assert all(a.size != patch for a in arrays)


class TestPoolWorkspace:
    """max/avg pooling backward buffers come from the conv workspace pool."""

    @pytest.mark.parametrize("pool_fn", [max_pool2d, avg_pool2d])
    def test_pool_forward_reuses_cached_workspace(self, rng, pool_fn):
        """The fast backend's pooling *forward* output (the max pool's
        running maximum, the avg pool's accumulation target) also comes
        from the pool: repeated steps over the same shape must climb
        ``conv.workspace_hits``."""
        from repro import profile
        from repro.tensor import kernels, no_grad
        from repro.tensor.workspace import clear_workspace_cache

        clear_workspace_cache()
        was_enabled = profile.is_enabled()
        profile.enable()
        try:
            with kernels.use_backend("fast"), no_grad():
                before = profile.snapshot()["counters"]
                for _ in range(4):
                    out = pool_fn(rand_tensor(rng, (2, 3, 8, 8)), 2)
                    del out  # release any pooled output back to the pool
                after = profile.snapshot()["counters"]
            hits = after.get("conv.workspace_hits", 0) - before.get("conv.workspace_hits", 0)
            misses = after.get("conv.workspace_misses", 0) - before.get(
                "conv.workspace_misses", 0
            )
        finally:
            if not was_enabled:
                profile.disable()
            clear_workspace_cache()
        assert misses >= 1  # first forward allocates
        assert hits >= 2  # later forwards reuse the freed buffer

    @pytest.mark.parametrize("pool_fn", [max_pool2d, avg_pool2d])
    def test_pool_backward_reuses_cached_workspace(self, rng, pool_fn):
        from repro import profile
        from repro.tensor.workspace import clear_workspace_cache

        clear_workspace_cache()
        was_enabled = profile.is_enabled()
        profile.enable()
        try:
            before = profile.snapshot()["counters"]
            for _ in range(4):
                x = rand_tensor(rng, (2, 3, 8, 8))
                pool_fn(x, 2).sum().backward()
                x.grad = None  # release the buffer back to the pool
            after = profile.snapshot()["counters"]
            hits = after.get("conv.workspace_hits", 0) - before.get("conv.workspace_hits", 0)
            misses = after.get("conv.workspace_misses", 0) - before.get(
                "conv.workspace_misses", 0
            )
        finally:
            if not was_enabled:
                profile.disable()
            clear_workspace_cache()
        assert misses >= 1  # first backward allocates
        assert hits >= 2  # later backwards reuse the freed buffer

    @pytest.mark.parametrize("pool_fn", [max_pool2d, avg_pool2d])
    def test_pool_workspace_aliasing_safety(self, rng, pool_fn):
        """A pooling gradient that outlives its backward pass must not be
        clobbered by a later same-shape backward (refcount guard)."""
        from repro.tensor.workspace import clear_workspace_cache

        clear_workspace_cache()
        try:
            x1 = rand_tensor(rng, (1, 2, 6, 6))
            pool_fn(x1, 2).sum().backward()
            held = x1.grad.copy()
            x2 = rand_tensor(rng, (1, 2, 6, 6))
            pool_fn(x2, 2).sum().backward()
            np.testing.assert_array_equal(x1.grad, held)
        finally:
            clear_workspace_cache()

    @pytest.mark.parametrize("pool_fn", [max_pool2d, avg_pool2d])
    def test_pool_gradients_unchanged_by_pooling_buffers(self, rng, pool_fn):
        """Workspace reuse must be value-transparent vs a cold cache."""
        from repro.tensor.workspace import clear_workspace_cache

        grads = []
        for _ in range(2):
            clear_workspace_cache()
            x = Tensor(
                np.random.default_rng(7).normal(size=(2, 2, 6, 6)), requires_grad=True
            )
            pool_fn(x, 2).sum().backward()
            grads.append(x.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])
