"""Performance microbenchmarks of the core kernels.

Quantifies the *software* cost of DropBack relative to plain SGD — the
per-step selection/regeneration overhead — plus the throughput of the
primitives everything rests on: convolution, xorshift regeneration, and
top-k selection.  These are the numbers a user cares about before adopting
the optimizer, and the benches pytest-benchmark is built for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DropBack
from repro.core.selection import top_k_mask
from repro.init import normal_at
from repro.models import mnist_100_100, wrn_10_2
from repro.optim import SGD
from repro.profile import timeit
from repro.tensor import Tensor, conv2d, cross_entropy


@pytest.fixture(scope="module")
def mlp_batch():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(64, 784)).astype(np.float32))
    y = rng.integers(0, 10, size=64)
    return x, y


def _train_step(model, opt, x, y):
    model.zero_grad()
    cross_entropy(model(x), y).backward()
    opt.step()


def test_perf_sgd_step(benchmark, mlp_batch):
    x, y = mlp_batch
    model = mnist_100_100().finalize(1)
    opt = SGD(model, lr=0.4)
    benchmark.pedantic(lambda: _train_step(model, opt, x, y), rounds=10, iterations=1,
                       warmup_rounds=2)


def test_perf_dropback_step(benchmark, mlp_batch):
    x, y = mlp_batch
    model = mnist_100_100().finalize(1)
    opt = DropBack(model, k=9_000, lr=0.4)
    benchmark.pedantic(lambda: _train_step(model, opt, x, y), rounds=10, iterations=1,
                       warmup_rounds=2)


def test_perf_dropback_step_frozen(benchmark, mlp_batch):
    x, y = mlp_batch
    model = mnist_100_100().finalize(1)
    opt = DropBack(model, k=9_000, lr=0.4)
    _train_step(model, opt, x, y)
    opt.freeze()
    benchmark.pedantic(lambda: _train_step(model, opt, x, y), rounds=10, iterations=1,
                       warmup_rounds=2)


def test_perf_conv_forward(benchmark):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(16, 16, 16, 16)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32))
    benchmark.pedantic(lambda: conv2d(x, w, None, stride=1, pad=1), rounds=10,
                       iterations=1, warmup_rounds=2)


def test_perf_conv_backward(benchmark):
    rng = np.random.default_rng(0)

    def fwd_bwd():
        x = Tensor(rng.normal(size=(16, 16, 16, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)
        (conv2d(x, w, None, stride=1, pad=1) ** 2).sum().backward()

    benchmark.pedantic(fwd_bwd, rounds=5, iterations=1, warmup_rounds=1)


def test_perf_xorshift_regeneration(benchmark):
    """Regenerating 1M init values (vectorized stateless xorshift)."""
    idx = np.arange(1_000_000, dtype=np.int64)
    result = benchmark.pedantic(lambda: normal_at(42, idx), rounds=5, iterations=1,
                                warmup_rounds=1)


def test_perf_topk_selection(benchmark):
    """Top-k over a WRN-10-2-sized score vector (300k weights)."""
    rng = np.random.default_rng(0)
    scores = rng.normal(size=wrn_10_2().num_parameters())
    benchmark.pedantic(lambda: top_k_mask(scores, scores.size // 5), rounds=10,
                       iterations=1, warmup_rounds=2)


def test_perf_overhead_summary(mlp_batch, benchmark):
    """DropBack's software overhead over SGD stays within a small factor."""
    x, y = mlp_batch

    def time_steps(opt_factory, n=20):
        model = mnist_100_100().finalize(1)
        opt = opt_factory(model)
        return timeit(lambda: _train_step(model, opt, x, y), n, warmup=1).mean()

    sgd_t = time_steps(lambda m: SGD(m, lr=0.4))
    db_t = time_steps(lambda m: DropBack(m, k=9_000, lr=0.4))
    # The selection adds work, but stays within an order of magnitude.
    assert db_t < 10 * sgd_t
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _synthetic_grad_setter(model, seed=7):
    """Fixed synthetic float32 gradients, reapplied before every step so the
    timing isolates the optimizer from the forward/backward pass."""
    rng = np.random.default_rng(seed)
    params = model.parameters()
    grads = [rng.normal(scale=0.1, size=p.shape).astype(np.float32) for p in params]

    def set_grads():
        for p, g in zip(params, grads):
            p.grad = g

    return set_grads


def test_perf_dropback_step_paths():
    """Flat-plane step vs. the dense reference, and the O(k) frozen path.

    MNIST-100-100 scale (89,610 params) at the paper's extreme budget
    k=1,500 (~60x compression).  Asserts the PR's acceptance criteria —
    the vectorized unfrozen step beats the retained per-parameter
    reference implementation, and the frozen path is >= 5x faster than the
    dense reference — then emits ``perf_dropback_step.json``, the
    committed baseline CI gates on (normalized by
    ``dropback.reference_step`` so the comparison is machine-independent).
    """
    from common import profiled_run

    k = 1_500
    model = mnist_100_100().finalize(1)
    opt = DropBack(model, k=k, lr=0.01)
    set_grads = _synthetic_grad_setter(model)

    def time_per_step(fn, rounds, warmup=5):
        def step():
            set_grads()
            fn()

        return float(timeit(step, rounds, warmup).mean())

    step_t = time_per_step(opt.step, rounds=50)
    reference_t = time_per_step(opt.reference_step, rounds=50)
    opt.freeze()
    frozen_t = time_per_step(opt.step, rounds=200)
    opt.unfreeze()

    # Fixed workload for the committed perf baseline: the gate compares
    # per-op ratios vs dropback.reference_step, so composition must stay
    # stable across regenerations of this report.
    def workload():
        m = mnist_100_100().finalize(1)
        o = DropBack(m, k=k, lr=0.01)
        grads = _synthetic_grad_setter(m)
        for _ in range(150):
            grads()
            o.step()
        for _ in range(150):
            grads()
            o.reference_step()
        o.freeze()
        for _ in range(600):
            grads()
            o.step()

    report = profiled_run(
        "dropback_step",
        workload,
        meta={
            "model": "mnist_100_100",
            "n_params": model.num_parameters(),
            "k": k,
            "steps": {"unfrozen": 150, "reference": 150, "frozen": 600},
            "measured_per_step_seconds": {
                "step": step_t,
                "reference_step": reference_t,
                "frozen_step": frozen_t,
            },
        },
    )
    assert "dropback.step" in report.ops
    assert "dropback.step.frozen" in report.ops
    assert "dropback.reference_step" in report.ops

    # Acceptance criteria (generous slack vs the ~100x typically measured).
    assert step_t < reference_t, (
        f"vectorized step ({step_t * 1e3:.3f} ms) should beat the dense "
        f"reference ({reference_t * 1e3:.3f} ms)"
    )
    assert frozen_t * 5 < reference_t, (
        f"frozen step ({frozen_t * 1e6:.0f} us) should be >=5x faster than "
        f"the dense reference ({reference_t * 1e6:.0f} us)"
    )


def test_packed_registry_bytes_and_parity(tmp_path):
    """Packed serving on a genuinely trained checkpoint from the shared
    density-sweep fixture: same outputs as the dense path (to sparse-kernel
    tolerance) at a fraction of the resident bytes."""
    from common import synth_sparse_checkpoint

    from repro.serve import ModelRegistry
    from repro.tensor.kernels import sparse

    if not sparse.is_available():
        pytest.skip("scipy.sparse unavailable")

    ckpt = synth_sparse_checkpoint(
        "mnist-100-100", tmp_path / "bench.npz", density=0.05, zero_untracked=True
    )
    dense = ModelRegistry()
    packed = ModelRegistry()
    dd = dense.register("m", mnist_100_100, ckpt)
    pd = packed.register("m", mnist_100_100, ckpt, packed=True)
    x = np.random.default_rng(0).normal(size=(16, 28, 28)).astype(np.float32)
    out_dense = dense.acquire(dd).forward(x)
    out_packed = packed.acquire(pd).forward(x)
    np.testing.assert_allclose(out_packed, out_dense, rtol=1e-5, atol=1e-6)
    assert packed.resident_bytes < 0.5 * dense.resident_bytes
