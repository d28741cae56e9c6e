"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures at CPU scale:
the architectures keep their shape but shrink, the datasets are the
synthetic stand-ins, and the tracked-weight budgets are chosen to match the
paper's *compression ratios* rather than its absolute k values.  Reports
print the paper's numbers next to the measured ones and are also written to
``benchmarks/results/``.

Scale knobs live in :data:`SCALE`; setting the environment variable
``REPRO_BENCH_SCALE=full`` multiplies dataset sizes and epochs toward the
paper's regime (hours of CPU time), while ``REPRO_BENCH_SCALE=tiny`` is
the CI smoke path (seconds).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro import profile
from repro.data import DataLoader, Dataset, synth_cifar, synth_mnist
from repro.nn import Module
from repro.optim import ConstantLR, Optimizer, Schedule
from repro.train import Callback, History, Trainer

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class BenchScale:
    """Workload sizing for the bench harness."""

    mnist_train: int = 1500
    mnist_test: int = 400
    cifar_train: int = 800
    cifar_test: int = 240
    cifar_size: int = 16
    mnist_epochs: int = 8
    cifar_epochs: int = 5
    batch_size: int = 64
    lr: float = 0.4
    cifar_lr: float = 0.1


def _scale() -> BenchScale:
    mode = os.environ.get("REPRO_BENCH_SCALE")
    if mode == "full":
        return BenchScale(
            mnist_train=10_000,
            mnist_test=2_000,
            cifar_train=6_000,
            cifar_test=1_000,
            cifar_size=32,
            mnist_epochs=40,
            cifar_epochs=30,
        )
    if mode == "tiny":  # CI smoke: seconds, not minutes
        return BenchScale(
            mnist_train=400,
            mnist_test=120,
            cifar_train=240,
            cifar_test=80,
            mnist_epochs=2,
            cifar_epochs=2,
        )
    return BenchScale()


SCALE = _scale()

_mnist_cache: dict[tuple, tuple[Dataset, Dataset]] = {}
_cifar_cache: dict[tuple, tuple[Dataset, Dataset]] = {}


def mnist_data(seed: int = 0) -> tuple[Dataset, Dataset]:
    """Cached bench-scale synthetic MNIST."""
    key = (SCALE.mnist_train, SCALE.mnist_test, seed)
    if key not in _mnist_cache:
        _mnist_cache[key] = synth_mnist(
            n_train=SCALE.mnist_train, n_test=SCALE.mnist_test, seed=seed
        )
    return _mnist_cache[key]


def cifar_data(seed: int = 0) -> tuple[Dataset, Dataset]:
    """Cached bench-scale synthetic CIFAR."""
    key = (SCALE.cifar_train, SCALE.cifar_test, SCALE.cifar_size, seed)
    if key not in _cifar_cache:
        _cifar_cache[key] = synth_cifar(
            n_train=SCALE.cifar_train,
            n_test=SCALE.cifar_test,
            seed=seed,
            size=SCALE.cifar_size,
        )
    return _cifar_cache[key]


def train_run(
    model: Module,
    optimizer: Optimizer,
    data: tuple[Dataset, Dataset],
    epochs: int,
    lr: float | None = None,
    schedule: Schedule | None = None,
    callbacks: list[Callback] | None = None,
    loss_fn=None,
    batch_size: int | None = None,
    patience: int | None = None,
) -> History:
    """Run one training configuration and return its history."""
    train, test = data
    lr = lr if lr is not None else optimizer.lr
    trainer = Trainer(
        model,
        optimizer,
        loss_fn=loss_fn,
        schedule=schedule or ConstantLR(lr),
        callbacks=callbacks,
        patience=patience,
    )
    loader = DataLoader(train, batch_size or SCALE.batch_size, seed=0)
    return trainer.fit(loader, test, epochs=epochs)


def budget_for_ratio(model: Module, compression: float) -> int:
    """Tracked-weight budget k giving the requested compression ratio."""
    return max(1, int(round(model.num_parameters() / compression)))


#: The tracked-density grid shared by the sparse-kernel parity tests,
#: ``bench_sparse.py``, and the serving microbenches: the paper's extreme
#: budgets (1%, 5%), the dispatch cutoff boundary (25%), and a clearly
#: dense point (90%) that must fall back to the fast kernels.
DENSITY_GRID = (0.01, 0.05, 0.25, 0.9)


def synth_sparse_checkpoint(
    model_name: str,
    path,
    *,
    density: float = 0.05,
    zero_untracked: bool = True,
    seed: int = 42,
) -> str:
    """Train-and-export one bench checkpoint at a given tracked density.

    The single checkpoint-synthesis helper shared by ``bench_sparse.py``,
    ``bench_serve.py`` (through the same underlying trainer), and
    ``test_perf_microbench.py`` — delegates to
    :func:`repro.serve.loadgen.train_bench_checkpoint` so every consumer
    trains the identical tiny model.  Returns the path.
    """
    from repro.serve.loadgen import train_bench_checkpoint

    train_bench_checkpoint(
        model_name, str(path), seed=seed, density=density, zero_untracked=zero_untracked
    )
    return str(path)


def density_sweep_checkpoints(
    model_name: str,
    out_dir,
    densities=DENSITY_GRID,
    *,
    zero_untracked: bool = True,
    seed: int = 42,
) -> dict[float, str]:
    """One checkpoint per density in ``densities``; returns density -> path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        d: synth_sparse_checkpoint(
            model_name,
            out_dir / f"{model_name}-d{d:g}.npz",
            density=d,
            zero_untracked=zero_untracked,
            seed=seed,
        )
        for d in densities
    }


def emit_report(name: str, text: str) -> None:
    """Print a bench report and persist it under benchmarks/results/."""
    print(f"\n===== {name} =====")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_perf_report(name: str, report: profile.PerfReport) -> Path:
    """Persist a perf report as ``benchmarks/results/perf_<name>.json``.

    The machine-readable counterpart of :func:`emit_report`: CI archives
    these files and ``scripts/check_perf_report.py`` diffs two of them.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    return report.write(RESULTS_DIR / f"perf_{name}.json")


def profiled_run(name: str, fn, meta: dict | None = None) -> profile.PerfReport:
    """Run ``fn()`` with op-level profiling and emit ``perf_<name>.json``.

    Convenience wrapper for benches that are plain callables rather than
    :class:`Trainer` loops (which should attach a ``ProfilerCallback``).
    """
    was_enabled = profile.is_enabled()
    baseline = profile.snapshot()
    profile.enable()
    try:
        fn()
    finally:
        if not was_enabled:
            profile.disable()
    snap = profile.snapshot()
    ops = {}
    for op_name, raw in snap["ops"].items():
        base = baseline["ops"].get(op_name, {})
        calls = raw["calls"] - base.get("calls", 0)
        if calls <= 0:
            continue
        ops[op_name] = profile.OpStat(
            name=op_name,
            calls=calls,
            total_seconds=raw["total_seconds"] - base.get("total_seconds", 0.0),
            bytes_allocated=raw["bytes_allocated"] - base.get("bytes_allocated", 0),
        )
    counters = {
        k: v - baseline["counters"].get(k, 0)
        for k, v in snap["counters"].items()
        if v - baseline["counters"].get(k, 0)
    }
    report = profile.PerfReport(name=name, ops=ops, counters=counters, meta=dict(meta or {}))
    emit_perf_report(name, report)
    return report
