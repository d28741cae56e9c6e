"""Micro-benchmarks of the registered kernels, per backend.

Times every backend registered for a set of representative ops on fixed
shapes drawn from the families where the ``fast`` kernels win (small
spatial outputs from the conv GEMM, channel-major batchnorm activations),
and freezes the minima into a :class:`~repro.profile.PerfReport` whose
gauge ops are named ``kernels.<op>.<backend>``.

Absolute times are machine-dependent, so CI gates the emitted report only
on *ratios*: ``check_perf_report.py --normalize kernels.<op>.reference``
for the committed baseline diff, and the ``speedup_*`` meta entries (the
reference/fast ratio measured in the same process) via ``--gate-meta``.

Used by ``repro kernels --bench`` and the bench-smoke CI job.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.profile import OpStat, PerfReport
from repro.tensor.kernels import registry

__all__ = ["bench_kernels", "BENCH_ROUNDS"]

#: Default timing rounds per (op, backend); the report stores the minimum.
BENCH_ROUNDS = 30

#: Conv bench shape: the batched small-spatial family where the flat
#: im2col layout + single GEMM pays off (N, C, F, H/W, k, pad).
_CONV_N, _CONV_C, _CONV_F = 8, 256, 256
_CONV_HW, _CONV_K, _CONV_PAD = 4, 3, 1

#: BatchNorm+ReLU bench shape (NCHW).
_BN_SHAPE = (64, 64, 16, 16)


def _conv_case(rng: np.random.Generator):
    oh = ow = _CONV_HW + 2 * _CONV_PAD - _CONV_K + 1
    x = rng.standard_normal(
        (_CONV_N, _CONV_C, _CONV_HW, _CONV_HW), dtype=np.float32
    )
    w = rng.standard_normal((_CONV_F, _CONV_C, _CONV_K, _CONV_K), dtype=np.float32)
    b = rng.standard_normal(_CONV_F, dtype=np.float32)
    return (x, w, b, 1, _CONV_PAD, oh, ow)


def _matmul_case(rng: np.random.Generator):
    # The conv-produced GEMM: (F, C*k*k) weight against per-sample column
    # blocks with a small trailing dimension — the batch-flattened path.
    k = _CONV_C * _CONV_K * _CONV_K
    a = rng.standard_normal((_CONV_F, k), dtype=np.float32)
    b = rng.standard_normal((_CONV_N, k, 16), dtype=np.float32)
    return (a, b)


def _bn_relu_case(rng: np.random.Generator):
    x = rng.standard_normal(_BN_SHAPE, dtype=np.float32)
    c = _BN_SHAPE[1]
    shape = (1, c, 1, 1)
    g_ = rng.standard_normal(c, dtype=np.float32).reshape(shape)
    b_ = rng.standard_normal(c, dtype=np.float32).reshape(shape)
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    return (x, g_, b_, mu, var, 1e-5)


def _relu_case(rng: np.random.Generator):
    return (rng.standard_normal(_BN_SHAPE, dtype=np.float32),)


#: op name -> argument factory.  Only ops listed here are benched.
_CASES = {
    "matmul": _matmul_case,
    "conv2d_forward": _conv_case,
    "bn_relu_forward": _bn_relu_case,
    "relu_forward": _relu_case,
}

#: meta name -> op whose reference/fast ratio it records (the CI gates).
_SPEEDUP_METAS = {
    "speedup_conv_gemm": "matmul",
    "speedup_conv_forward": "conv2d_forward",
    "speedup_bn_relu": "bn_relu_forward",
}


def _min_seconds(fn, args, rounds: int, warmup: int = 2) -> float:
    """Best-of-``rounds`` wall time for one kernel call (min rejects
    scheduler noise far better than the mean at microsecond scale)."""
    for _ in range(warmup):
        fn(*args)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(rounds: int = BENCH_ROUNDS, seed: int = 0) -> PerfReport:
    """Time every registered backend of the benched ops; return the report.

    Each gauge op ``kernels.<op>.<backend>`` stores the best-of-``rounds``
    seconds for one call (``calls`` records the rounds).  ``meta`` carries
    the same-process reference/fast speedup ratios the CI gate enforces,
    plus the shapes so a regenerated baseline is self-describing.
    """
    rng = np.random.default_rng(seed)
    ops: dict[str, OpStat] = {}
    minima: dict[tuple[str, str], float] = {}
    for op, make_args in _CASES.items():
        args = make_args(rng)
        for backend in registry.list_backends(op):
            _, fn = registry.resolve(op, backend)
            best = _min_seconds(fn, args, rounds)
            minima[(op, backend)] = best
            name = f"kernels.{op}.{backend}"
            ops[name] = OpStat(name=name, calls=rounds, total_seconds=best)

    from repro.tensor.kernels import sparse

    meta: dict = {
        "rounds": rounds,
        "seed": seed,
        "active_backend": registry.get_backend(),
        "op_overrides": registry.op_overrides(),
        "cpu_count": os.cpu_count() or 1,
        "sparse_density_cutoff": sparse.density_cutoff(),
        "shapes": {
            "conv": [_CONV_N, _CONV_C, _CONV_F, _CONV_HW, _CONV_K, _CONV_PAD],
            "bn_relu": list(_BN_SHAPE),
        },
    }
    for meta_name, op in _SPEEDUP_METAS.items():
        ref = minima.get((op, registry.REFERENCE_BACKEND))
        fast = minima.get((op, "fast"))
        if ref and fast:
            meta[meta_name] = round(ref / fast, 4)
    return PerfReport(name="kernels", ops=ops, meta=meta)


def format_bench_table(report: PerfReport) -> str:
    """Human-readable per-op, per-backend table with reference ratios."""
    from repro.utils import format_table

    ref_us: dict[str, float] = {}
    for name, stat in report.ops.items():
        _, op, backend = name.split(".", 2)
        if backend == registry.REFERENCE_BACKEND:
            ref_us[op] = stat.total_seconds * 1e6
    rows = []
    for name, stat in sorted(report.ops.items()):
        _, op, backend = name.split(".", 2)
        us = stat.total_seconds * 1e6
        ref = ref_us.get(op)
        ratio = f"{ref / us:.2f}x" if ref and us else "-"
        rows.append([op, backend, f"{us:,.1f}", ratio])
    return format_table(["op", "backend", "best us", "vs reference"], rows)
