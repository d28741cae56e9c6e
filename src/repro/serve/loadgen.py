"""Load generator and latency report for the serving layer.

Drives N concurrent closed-loop clients against an
:class:`~repro.serve.server.InferenceServer` (each client submits a
single-sample request, blocks on the result, repeats) and aggregates
client-observed latency into p50/p99 percentiles plus throughput.

The bench entry point (``benchmarks/bench_serve.py`` and ``python -m
repro serve-bench``) runs the same workload twice — dynamic batching on,
then ``max_batch_size=1`` — and emits a versioned
:class:`~repro.profile.PerfReport` JSON so CI can gate latency the same
way it gates the DropBack step:

* gauge ops (``serve.latency.p50``, ``serve.latency.p99``,
  ``serve.latency.mean``) store the **per-request** seconds in
  ``total_seconds`` with ``calls`` = number of requests measured (the
  batch-size-1 comparison numbers live in meta — too noisy to gate);
* the anchor op ``serve.single_forward`` stores the mean seconds of a
  bare single-sample forward on the same model/machine, so
  ``check_perf_report.py --normalize serve.single_forward`` compares
  machine-independent latency *ratios* against the committed baseline;
* ``meta.speedup_vs_batch1`` (batched vs batch-size-1 throughput) is the
  number the CI ``--gate-meta speedup_vs_batch1:2.0`` gate enforces.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import DropBack
from repro.data import DataLoader, synth_mnist
from repro.models import lenet_300_100, mlp, mnist_100_100
from repro.nn import Module
from repro.optim import ConstantLR
from repro.profile import PerfReport, timeit
from repro.serve.registry import ModelRegistry
from repro.serve.server import InferenceServer
from repro.train import Trainer

__all__ = [
    "LoadResult",
    "run_load",
    "measure_single_forward",
    "build_report",
    "train_bench_checkpoint",
    "build_arg_parser",
    "run_bench",
    "run_main",
    "main",
]

#: Models small enough to train-and-serve inside the bench itself.  The
#: small MLP is the CI default: its forward pass is cheap, so batching
#: amortizes the fixed per-batch cost (queueing, future fan-out) across
#: many requests and the speedup-vs-batch1 gate sits far above 2x.
BENCH_MODELS: dict[str, Callable[[], Module]] = {
    "mnist-100-100": mnist_100_100,
    "lenet-300-100": lenet_300_100,
    "mlp-800-400": lambda: mlp(784, (800, 400), 10),
}


@dataclass
class LoadResult:
    """Aggregated view of one load-generation run."""

    requests: int
    clients: int
    wall_seconds: float
    latencies: np.ndarray  # per-request seconds, client-observed

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        return float(self.latencies.mean())


def run_load(
    server: InferenceServer,
    digest: str,
    samples: np.ndarray,
    clients: int = 8,
    requests_per_client: int = 25,
    seed: int = 0,
) -> LoadResult:
    """Closed-loop load: each client thread serves its requests in series.

    Every client draws its sample sequence from a seeded RNG, so runs are
    reproducible; all clients start together on a barrier so the measured
    wall time is pure serving time.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    barrier = threading.Barrier(clients + 1)
    latencies = [np.zeros(requests_per_client, dtype=np.float64) for _ in range(clients)]
    errors: list[BaseException] = []

    def client(ci: int) -> None:
        rng = np.random.default_rng(seed + ci)
        order = rng.integers(0, len(samples), size=requests_per_client)
        try:
            barrier.wait(timeout=30.0)
            for i, idx in enumerate(order):
                t0 = time.perf_counter()
                server.serve(digest, samples[idx])
                latencies[ci][i] = time.perf_counter() - t0
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(ci,), daemon=True) for ci in range(clients)]
    for t in threads:
        t.start()
    barrier.wait(timeout=30.0)
    t_start = time.perf_counter()
    for t in threads:
        t.join(timeout=120.0)
    wall = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    return LoadResult(
        requests=clients * requests_per_client,
        clients=clients,
        wall_seconds=wall,
        latencies=np.concatenate(latencies),
    )


def measure_single_forward(
    registry: ModelRegistry, digest: str, sample: np.ndarray, reps: int = 50
) -> float:
    """Mean seconds of a bare single-sample forward (the latency anchor)."""
    handle = registry.acquire(digest)
    batch = sample[None]
    # One warm-up call pays for materialization and kernel caches.
    return float(timeit(lambda: handle.forward(batch), reps, warmup=1).mean())


def build_report(
    name: str,
    batched: LoadResult,
    batch1: LoadResult,
    single_forward_s: float,
    meta: dict | None = None,
) -> PerfReport:
    """Assemble the versioned serving perf report (see module docstring)."""
    report = PerfReport(name=name, meta=dict(meta or {}))

    def gauge(op: str, seconds: float, calls: int) -> None:
        from repro.profile import OpStat

        report.ops[op] = OpStat(name=op, calls=calls, total_seconds=float(seconds))

    # Only the batched percentiles (the serving SLO) become gauge ops the
    # CI gate diffs; the batch-size-1 run exists for the throughput
    # comparison and lands in meta — its tail is dominated by queueing
    # noise and would make the per-op gate flaky.
    gauge("serve.latency.p50", batched.p50, batched.requests)
    gauge("serve.latency.p99", batched.p99, batched.requests)
    gauge("serve.latency.mean", batched.mean, batched.requests)
    gauge("serve.single_forward", single_forward_s, 1)
    speedup = (
        batched.throughput_rps / batch1.throughput_rps if batch1.throughput_rps > 0 else 0.0
    )
    report.counters["serve.requests"] = batched.requests
    report.counters["serve.batch1.requests"] = batch1.requests
    report.meta.update(
        {
            "latency_unit": "seconds per request (total_seconds of gauge ops)",
            "throughput_rps": round(batched.throughput_rps, 3),
            "batch1_throughput_rps": round(batch1.throughput_rps, 3),
            "batch1_latency_p50": round(batch1.p50, 6),
            "batch1_latency_p99": round(batch1.p99, 6),
            "speedup_vs_batch1": round(speedup, 4),
        }
    )
    return report


# ---------------------------------------------------------------------- #
# bench entry point (benchmarks/bench_serve.py, `repro serve-bench`)
# ---------------------------------------------------------------------- #


def train_bench_checkpoint(
    model_name: str,
    path: str,
    *,
    seed: int = 42,
    density: float | None = None,
    zero_untracked: bool = False,
) -> None:
    """Train a tiny DropBack model and export its sparse checkpoint.

    The shared checkpoint-synthesis helper behind ``bench_serve.py``,
    ``bench_sparse.py``, and the perf microbench tests (via
    ``benchmarks/common.py``).  ``density`` sets the tracked fraction
    (default 0.10); ``zero_untracked=True`` trains the zeroing ablation,
    producing the genuinely sparse payloads the packed serving path and
    sparse kernels consume.
    """
    factory = BENCH_MODELS[model_name]
    from repro.io import save_sparse

    train, test = synth_mnist(n_train=512, n_test=128, seed=0)
    model = factory().finalize(seed)
    n = model.num_parameters()
    k = max(1, round(n * density)) if density is not None else max(1, n // 10)
    opt = DropBack(model, k=k, lr=0.4, zero_untracked=zero_untracked)
    Trainer(model, opt, schedule=ConstantLR(0.4)).fit(
        DataLoader(train, 64, seed=1), test, epochs=1
    )
    save_sparse(model, opt, path)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Serving load bench: dynamic batching vs batch-size-1, p50/p99 + throughput"
    )
    parser.add_argument("--model", choices=sorted(BENCH_MODELS), default="mnist-100-100")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent closed-loop clients (default 16)")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client per mode (default 25)")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--wait-ms", type=float, default=5.0,
                        help="max coalescing wait per batch (default 5 ms)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--byte-budget-mb", type=float, default=None,
                        help="registry plane budget in MB (default: unbounded)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=None, help="write the perf-report JSON here")
    return parser


def run_bench(args: argparse.Namespace) -> PerfReport:
    """Train, register, drive both serving modes, and build the report."""
    budget = int(args.byte_budget_mb * (1 << 20)) if args.byte_budget_mb else None
    factory = BENCH_MODELS[args.model]
    _, test = synth_mnist(n_train=64, n_test=256, seed=0)
    samples = test.images

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "bench_model.npz")
        train_bench_checkpoint(args.model, ckpt, seed=args.seed)
        ckpt_bytes = os.path.getsize(ckpt)
        registry = ModelRegistry(byte_budget=budget)
        digest = registry.register(args.model, factory, ckpt)

    anchor_s = measure_single_forward(registry, digest, samples[0])

    with InferenceServer(registry, max_batch_size=args.max_batch,
                         max_wait_ms=args.wait_ms, workers=args.workers) as server:
        batched = run_load(server, digest, samples, clients=args.clients,
                           requests_per_client=args.requests, seed=args.seed)
        batched_stats = server.stats

    with InferenceServer(registry, max_batch_size=1, max_wait_ms=0.0,
                         workers=args.workers) as server:
        batch1 = run_load(server, digest, samples, clients=args.clients,
                          requests_per_client=args.requests, seed=args.seed)

    info = registry.describe(digest)
    report = build_report(
        "serve",
        batched,
        batch1,
        anchor_s,
        meta={
            "model": args.model,
            "clients": args.clients,
            "requests_per_client": args.requests,
            "max_batch_size": args.max_batch,
            "max_wait_ms": args.wait_ms,
            "workers": args.workers,
            "checkpoint_bytes": ckpt_bytes,
            "plane_bytes": info["plane_bytes"],
            "k": info["k"],
            "mean_batch_size": round(batched_stats.mean_batch_size, 3),
        },
    )
    return report


def _print_summary(report: PerfReport) -> None:
    from repro.utils import format_table

    meta = report.meta

    def ms(op: str) -> str:
        return f"{report.ops[op].total_seconds * 1e3:.2f}"

    rows = [
        ["throughput (req/s)", f"{meta['throughput_rps']:.1f}",
         f"{meta['batch1_throughput_rps']:.1f}"],
        ["p50 latency (ms)", ms("serve.latency.p50"), f"{meta['batch1_latency_p50'] * 1e3:.2f}"],
        ["p99 latency (ms)", ms("serve.latency.p99"), f"{meta['batch1_latency_p99'] * 1e3:.2f}"],
    ]
    print(format_table(["", f"batched (<= {meta['max_batch_size']})", "batch-size-1"], rows))
    print(f"\nsingle forward (anchor): "
          f"{report.ops['serve.single_forward'].total_seconds * 1e3:.3f} ms")
    print(f"mean batch size under load: {meta['mean_batch_size']}")
    print(f"dynamic batching speedup vs batch-size-1: {meta['speedup_vs_batch1']:.2f}x")
    print(f"checkpoint on the wire: {meta['checkpoint_bytes']:,} bytes "
          f"-> plane resident: {meta['plane_bytes']:,} bytes")


def run_main(args: argparse.Namespace) -> int:
    """Run the bench from parsed args (shared with ``repro serve-bench``)."""
    print(f"serving bench: {args.model}, {args.clients} clients x {args.requests} requests, "
          f"max batch {args.max_batch}, wait {args.wait_ms} ms")
    report = run_bench(args)
    print()
    _print_summary(report)
    if args.out:
        path = report.write(args.out)
        print(f"\nperf report written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_main(build_arg_parser().parse_args(argv))
