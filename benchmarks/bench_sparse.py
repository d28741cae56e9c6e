#!/usr/bin/env python
"""Sparse execution bench: packed CSR kernels and plane-free serving.

Two measurements, one report (``benchmarks/results/perf_sparse.json``):

* **kernel micro** — a large square weight at 90% sparsity (density
  0.10, the paper's 10x-compression regime) driven through ``matmul`` on
  the ``fast`` dense backend and on the ``sparse`` backend with a
  registered pack.  The serving-shaped operand (a single activation row
  against a big weight) is where CSR pays: dense matvec is memory-bound
  on the 90%-zero weight, the packed product touches only the tracked
  10%.  ``meta.speedup_sparse_matmul_d90`` is the same-process ratio CI
  gates with ``--gate-meta speedup_sparse_matmul_d90:2.0``.
* **registry bytes** — one 95%-sparse ``zero_untracked`` checkpoint
  registered twice: dense materialization (full weight plane) vs a
  ``packed=True`` entry (CSR structures only).
  ``meta.registry_bytes_ratio`` = packed resident bytes / dense resident
  bytes, gated with ``--gate-meta-max registry_bytes_ratio:0.5``; the
  packed forward is also timed as the ``serve.sparse_forward`` gauge op.

Both gated metas are within-process ratios, so the committed baseline
gates them machine-independently.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_sparse.py \
        --out benchmarks/results/perf_sparse.json

See ``docs/sparse.md`` for format and dispatch semantics.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

_here = Path(__file__).resolve().parent
_src = _here.parent / "src"
for p in (_src, _here):
    if p.is_dir() and str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402

from common import RESULTS_DIR, synth_sparse_checkpoint  # noqa: E402
from repro.profile import OpStat, PerfReport, timeit  # noqa: E402
from repro.serve import ModelRegistry  # noqa: E402
from repro.serve.loadgen import BENCH_MODELS  # noqa: E402
from repro.tensor.kernels import fast, sparse  # noqa: E402

#: 90% sparse — the kernel regime named by the gated meta.
MATMUL_DENSITY = 0.10
#: 95% sparse — the serving regime named in the acceptance criteria.
SERVE_DENSITY = 0.05


def bench_matmul(size: int, batch: int, rounds: int, seed: int) -> dict:
    """Dense-vs-packed matmul at 90% sparsity on a registered pack."""
    rng = np.random.default_rng(seed)
    nnz = int(round(size * size * MATMUL_DENSITY))
    flat = np.sort(rng.choice(size * size, size=nnz, replace=False))
    w = np.zeros((size, size), dtype=np.float32)
    w.reshape(-1)[flat] = rng.standard_normal(nnz).astype(np.float32)
    x = rng.standard_normal((batch, size)).astype(np.float32)

    keys = sparse.register_weight(w, flat)
    try:
        # Best of rounds: the min is the noise-robust statistic for a fixed
        # workload; anything slower is scheduler interference.
        dense_s = float(timeit(lambda: fast.matmul(x, w.T), rounds, warmup=2).min())
        sparse_s = float(timeit(lambda: sparse.matmul(x, w.T), rounds, warmup=2).min())
    finally:
        sparse.invalidate(keys)
    return {"dense_s": dense_s, "sparse_s": sparse_s, "nnz": nnz}


def bench_registry(model_name: str, batch: int, rounds: int, seed: int) -> dict:
    """Dense vs packed registry residency and forward latency."""
    factory = BENCH_MODELS[model_name]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = synth_sparse_checkpoint(
            model_name,
            os.path.join(tmp, "bench_sparse.npz"),
            density=SERVE_DENSITY,
            zero_untracked=True,
            seed=seed,
        )
        dense_reg = ModelRegistry()
        packed_reg = ModelRegistry()
        dense_h = dense_reg.acquire(dense_reg.register(model_name, factory, ckpt))
        packed_h = packed_reg.acquire(
            packed_reg.register(model_name, factory, ckpt, packed=True)
        )

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 784)).astype(np.float32)
    dense_s = float(timeit(lambda: dense_h.forward(x), rounds, warmup=2).min())
    packed_s = float(timeit(lambda: packed_h.forward(x), rounds, warmup=2).min())
    parity = float(np.abs(dense_h.forward(x) - packed_h.forward(x)).max())
    return {
        "dense_s": dense_s,
        "packed_s": packed_s,
        "dense_bytes": dense_reg.resident_bytes,
        "packed_bytes": packed_reg.resident_bytes,
        "parity_max_abs_diff": parity,
    }


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Sparse kernel + packed serving bench (perf_sparse.json)"
    )
    parser.add_argument("--size", type=int, default=4096,
                        help="square weight dimension for the matmul micro (default 4096)")
    parser.add_argument("--batch", type=int, default=1,
                        help="activation rows for the matmul micro (default 1)")
    parser.add_argument("--serve-batch", type=int, default=16,
                        help="batch size for the serving forward (default 16)")
    parser.add_argument("--model", choices=sorted(BENCH_MODELS), default="mnist-100-100")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=str(RESULTS_DIR / "perf_sparse.json"),
                        help="perf-report JSON path (default benchmarks/results/)")
    return parser


def run_bench(args: argparse.Namespace) -> PerfReport:
    mm = bench_matmul(args.size, args.batch, args.rounds, args.seed)
    reg = bench_registry(args.model, args.serve_batch, args.rounds, args.seed)

    report = PerfReport(name="sparse")

    def gauge(op: str, seconds: float, calls: int) -> None:
        report.ops[op] = OpStat(name=op, calls=calls, total_seconds=float(seconds))

    # Gauge ops store best-of seconds for ONE call; the dense timings are
    # the in-report anchors (--normalize kernels.matmul.fast), so the op
    # comparison is a machine-independent ratio like the serving gate.
    gauge("kernels.matmul.fast", mm["dense_s"], args.rounds)
    gauge("kernels.matmul.sparse", mm["sparse_s"], args.rounds)
    gauge("serve.dense_forward", reg["dense_s"], args.rounds)
    gauge("serve.sparse_forward", reg["packed_s"], args.rounds)
    report.meta.update(
        {
            "latency_unit": "best-of seconds per call (total_seconds of gauge ops)",
            "speedup_sparse_matmul_d90": round(mm["dense_s"] / mm["sparse_s"], 4),
            "registry_bytes_ratio": round(reg["packed_bytes"] / reg["dense_bytes"], 4),
            "serve_forward_speedup": round(reg["dense_s"] / reg["packed_s"], 4),
            "sparse_density_cutoff": sparse.density_cutoff(),
            "densities": {"matmul": MATMUL_DENSITY, "serving": SERVE_DENSITY},
            "matmul_shape": [args.size, args.size],
            "matmul_batch": args.batch,
            "matmul_nnz": mm["nnz"],
            "model": args.model,
            "serve_batch": args.serve_batch,
            "dense_registry_bytes": reg["dense_bytes"],
            "packed_registry_bytes": reg["packed_bytes"],
            "serve_parity_max_abs_diff": reg["parity_max_abs_diff"],
            "rounds": args.rounds,
            "seed": args.seed,
        }
    )
    return report


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    report = run_bench(args)
    meta = report.meta

    def ms(op: str) -> str:
        return f"{report.ops[op].total_seconds * 1e3:.3f} ms"

    print(f"matmul {meta['matmul_shape']} @ density {meta['densities']['matmul']}: "
          f"fast {ms('kernels.matmul.fast')} -> sparse {ms('kernels.matmul.sparse')} "
          f"({meta['speedup_sparse_matmul_d90']:.2f}x)")
    print(f"serving {meta['model']} @ density {meta['densities']['serving']}: "
          f"dense {ms('serve.dense_forward')} -> packed {ms('serve.sparse_forward')} "
          f"({meta['serve_forward_speedup']:.2f}x)")
    print(f"registry bytes: dense {meta['dense_registry_bytes']:,} -> "
          f"packed {meta['packed_registry_bytes']:,} "
          f"(ratio {meta['registry_bytes_ratio']:.3f})")
    if args.out:
        path = report.write(args.out)
        print(f"perf report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
