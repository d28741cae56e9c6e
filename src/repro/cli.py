"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List the model zoo with parameter counts and the paper's budgets.
``train``
    Train a model on a synthetic dataset with a chosen technique
    (``--sanitize`` runs it under the runtime invariant sanitizers).
``energy``
    Print the analytic energy table for a model and budget.
``profile``
    Run one experiment config under the op-level profiler and print the
    sorted hot-spot table (optionally writing the perf JSON).
``analyze``
    AST lint pass enforcing the plane/pool/determinism invariants
    (per-file rules RPA002-008 plus the interprocedural concurrency
    rules RPA010-013); exits 1 on any finding.
``kernels``
    Inspect the kernel-dispatch registry (backends per op, active
    selection) and micro-bench every backend into a perf report — the
    artifact the CI kernel gate diffs against its committed baseline.
``serve``
    Register sparse checkpoints in a model registry and drive concurrent
    clients through the dynamic-batching inference server, printing
    per-model latency and registry/batching statistics.
``serve-bench``
    The serving load bench behind the CI latency gate (same entry point
    as ``benchmarks/bench_serve.py``).

The CLI drives the same public API as the examples; it exists so that the
headline experiment is one shell command away::

    python -m repro train --model mnist-100-100 --optimizer dropback \\
        --compression 4.5 --epochs 8
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro import profile
from repro.core import DropBack
from repro.data import DataLoader, synth_cifar, synth_mnist
from repro.energy import EnergyModel
from repro.experiments import get_experiment, list_experiments, run_config
from repro.models import (
    densenet_2_7m,
    densenet_tiny,
    lenet_300_100,
    mnist_100_100,
    vgg_s,
    wrn_10_2,
    wrn_28_10,
)
from repro.optim import SGD, BoundedStepDecay, StepDecay
from repro.optim.base import AccessCounter
from repro.prune import DSD, GradualMagnitudePruning, MagnitudePruning
from repro.quant import QuantizedDropBack
from repro.tensor import kernels
from repro.train import FreezeCallback, ProfilerCallback, Trainer
from repro.utils import format_percent, format_ratio, format_table

MODELS: dict[str, tuple[Callable, str]] = {
    "lenet-300-100": (lenet_300_100, "mnist"),
    "mnist-100-100": (mnist_100_100, "mnist"),
    "vgg-s": (vgg_s, "cifar"),
    "densenet": (densenet_2_7m, "cifar"),
    "densenet-tiny": (densenet_tiny, "cifar"),
    "wrn-28-10": (wrn_28_10, "cifar"),
    "wrn-10-2": (wrn_10_2, "cifar"),
}

OPTIMIZERS = ("sgd", "dropback", "dropback-q8", "magnitude", "gradual", "dsd")


def cmd_info(args: argparse.Namespace) -> int:
    rows = []
    for name, (factory, dataset) in MODELS.items():
        model = factory()
        rows.append([name, f"{model.num_parameters():,}", dataset])
    print(format_table(["model", "parameters", "dataset"], rows))
    return 0


def _build_optimizer(name: str, model, lr: float, compression: float):
    if name == "sgd":
        return SGD(model, lr=lr)
    k = max(1, int(round(model.num_parameters() / compression)))
    if name == "dropback":
        return DropBack(model, k=k, lr=lr)
    if name == "dropback-q8":
        return QuantizedDropBack(model, k=k, lr=lr, bits=8)
    if name == "magnitude":
        return MagnitudePruning(model, lr=lr, prune_fraction=1.0 - 1.0 / compression)
    if name == "gradual":
        return GradualMagnitudePruning(model, lr=lr, final_sparsity=1.0 - 1.0 / compression)
    if name == "dsd":
        return DSD(model, lr=lr, sparsity=1.0 - 1.0 / compression)
    raise ValueError(f"unknown optimizer: {name}")


def cmd_train(args: argparse.Namespace) -> int:
    factory, dataset_kind = MODELS[args.model]
    model = factory().finalize(args.seed)
    print(f"{args.model}: {model.num_parameters():,} parameters")

    if dataset_kind == "mnist":
        train, test = synth_mnist(n_train=args.train_size, n_test=args.train_size // 4,
                                  seed=0)
        schedule = BoundedStepDecay(args.lr, period=max(2, args.epochs // 4))
    else:
        train, test = synth_cifar(n_train=args.train_size, n_test=args.train_size // 4,
                                  seed=0, size=args.image_size)
        schedule = StepDecay(args.lr, period=max(2, args.epochs // 3))

    opt = _build_optimizer(args.optimizer, model, args.lr, args.compression)
    callbacks = []
    if args.freeze_epoch and hasattr(opt, "freeze"):
        callbacks.append(FreezeCallback(args.freeze_epoch))
    profiler = None
    if args.perf_out:
        profiler = ProfilerCallback(report_name=f"train_{args.model}",
                                    emit_path=args.perf_out,
                                    meta={"model": args.model, "optimizer": args.optimizer})
        callbacks.append(profiler)

    sanitize = True if args.sanitize else None  # None defers to REPRO_SANITIZE
    if args.workers > 1:
        from repro.parallel import ParallelTrainer

        trainer = ParallelTrainer(model, opt, schedule=schedule, callbacks=callbacks,
                                  patience=args.patience, sanitize=sanitize,
                                  workers=args.workers, microbatch=args.microbatch)
        print(f"data-parallel: {args.workers} workers")
    else:
        trainer = Trainer(model, opt, schedule=schedule, callbacks=callbacks,
                          patience=args.patience, sanitize=sanitize)
    if trainer.sanitize:
        print("runtime sanitizers: ON (plane integrity, grad tripwire, pool poisoning)")
    hist = trainer.fit(
        DataLoader(train, args.batch_size, seed=1, drop_last=args.workers > 1),
        test, epochs=args.epochs, verbose=True
    )
    if profiler is not None and profiler.report is not None:
        print(f"perf report written to {args.perf_out}")

    print(f"\nbest validation error: {format_percent(hist.best_val_error)} "
          f"(epoch {hist.best_epoch})")
    if hasattr(opt, "compression_ratio"):
        print(f"weight compression: {format_ratio(opt.compression_ratio)}")
    if hasattr(opt, "storage_floats"):
        print(f"training-time weight storage: {opt.storage_floats():,} floats")
    em = EnergyModel()
    rep = em.report(opt.counter)
    print(f"weight-memory energy: {rep.total_uj:.1f} uJ "
          f"({rep.regen_pj / max(rep.total_pj, 1e-12):.2%} regeneration)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    configs = get_experiment(args.experiment)
    if args.run:
        matches = [c for c in configs if c.name == args.run]
        if not matches:
            names = ", ".join(c.name for c in configs)
            print(f"unknown run {args.run!r} in {args.experiment}; available: {names}",
                  file=sys.stderr)
            return 2
        cfg = matches[0]
    else:
        cfg = configs[0]

    print(f"profiling {cfg.name} ({cfg.technique}, scale={args.scale}) ...")
    profile.reset()
    profile.enable()
    try:
        result = run_config(cfg, scale=args.scale, seed=args.seed)
    finally:
        profile.disable()

    report = profile.PerfReport.from_registry(
        f"profile_{cfg.name.replace('/', '-')}",
        meta={
            "experiment": args.experiment,
            "config": cfg.to_dict(),
            "scale": args.scale,
            "seed": args.seed,
            "val_error": result.val_error,
            "backend": kernels.get_backend(),
        },
    )
    print()
    print(report.hotspot_table(limit=args.top))
    print(f"\ntotal instrumented wall time: {report.total_seconds:.2f} s  "
          f"(val error {format_percent(result.val_error)})")
    if args.out:
        path = report.write(args.out)
        print(f"perf report written to {path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro import analyze

    if args.list_rules:
        for code, cls in sorted(analyze.RULE_REGISTRY.items()):
            print(f"{code}  {cls.summary}")
        return 0

    select = [c.strip().upper() for c in args.select.split(",")] if args.select else None
    try:
        engine = analyze.LintEngine(select=select, root=Path.cwd())
    except ValueError as exc:  # an unknown rule code
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    if next(engine.iter_python_files(paths), None) is None:
        print(f"error: no .py file in {', '.join(paths)}", file=sys.stderr)
        return 2
    violations = engine.lint_paths(paths)

    if args.graph:
        index = engine.index
        if index is None:  # only per-file rules selected: build pass 1 now
            sources = {}
            for path in engine.iter_python_files(paths):
                src = engine._parse(path)
                if src is not None:
                    sources[src.relpath] = src
            index = engine.build_index(sources)
        Path(args.graph).write_text(
            json.dumps(index.to_graph_dict(), indent=2) + "\n"
        )
        print(f"call/lock graph written to {args.graph}")

    if args.json:
        findings = analyze.findings_to_dict(
            violations, [str(p) for p in paths], errors=engine.errors
        )
        Path(args.json).write_text(json.dumps(findings, indent=2) + "\n")
        print(f"findings JSON written to {args.json}")

    for v in violations:
        print(analyze.format_github(v) if args.format == "github" else v.format())
    for err in engine.errors:
        print(f"error: {err}", file=sys.stderr)
    if violations or engine.errors:
        print(f"\n{len(violations)} violation(s), {len(engine.errors)} unparseable file(s)")
        return 1
    print("OK: no violations")
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    from repro.tensor.kernels import bench

    if not args.bench:
        from repro.tensor.kernels import sparse

        active = kernels.get_backend()
        overrides = kernels.op_overrides()
        rows = []
        for op in kernels.list_ops():
            backends = kernels.list_backends(op)
            resolved, _ = kernels.resolve(op)
            rows.append([op, ", ".join(backends), overrides.get(op, "-"), resolved])
        print(format_table(["op", "backends", "override", "resolved"], rows))
        print(f"\nactive backend: {active} (REPRO_BACKEND)")
        print(f"sparse density cutoff: {sparse.density_cutoff():g} "
              f"(REPRO_SPARSE_DENSITY_CUTOFF; above it the sparse backend "
              f"delegates to fast)")
        return 0

    print(f"micro-benching kernels ({args.rounds} round(s) per backend) ...")
    report = bench.bench_kernels(rounds=args.rounds, seed=args.seed)
    print(bench.format_bench_table(report))
    speedups = {k: v for k, v in report.meta.items() if k.startswith("speedup_")}
    if speedups:
        print("\n" + "  ".join(f"{k}={v:.2f}x" for k, v in sorted(speedups.items())))
    if args.out:
        path = report.write(args.out)
        print(f"perf report written to {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.serve import InferenceServer, ModelRegistry, run_load

    factory, dataset_kind = MODELS[args.model]
    if dataset_kind == "mnist":
        _, test = synth_mnist(n_train=64, n_test=256, seed=0)
    else:
        _, test = synth_cifar(n_train=64, n_test=256, seed=0, size=args.image_size)
    samples = test.images

    budget = int(args.byte_budget_mb * (1 << 20)) if args.byte_budget_mb else None
    registry = ModelRegistry(byte_budget=budget)
    digests = [registry.register(Path(p).stem, factory, p) for p in args.checkpoints]

    rows = []
    with InferenceServer(registry, max_batch_size=args.max_batch,
                         max_wait_ms=args.wait_ms, workers=args.workers) as server:
        for digest in digests:
            result = run_load(server, digest, samples, clients=args.clients,
                              requests_per_client=args.requests, seed=args.seed)
            info = registry.describe(digest)
            rows.append([
                info["name"], digest[:12], f"{info['k']:,}",
                f"{info['plane_bytes']:,}", str(result.requests),
                f"{result.p50 * 1e3:.2f}", f"{result.p99 * 1e3:.2f}",
                f"{result.throughput_rps:.0f}",
            ])
        stats = server.stats
    print(format_table(
        ["model", "digest", "k", "plane B", "reqs", "p50 ms", "p99 ms", "req/s"], rows
    ))
    reg = registry.stats
    print(f"\nbatches: {stats.batches} (mean size {stats.mean_batch_size:.2f}, "
          f"max {stats.batch_size_max})")
    print(f"registry: {reg.hits} hit(s), {reg.materializations} materialization(s), "
          f"{reg.evictions} eviction(s); resident {registry.resident_bytes:,} bytes")
    if args.out:
        doc = {"models": [registry.describe(d) for d in digests],
               "server": stats.to_dict(), "registry": reg.to_dict()}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"serve stats written to {args.out}")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_main as bench_main

    return bench_main(args)


def cmd_energy(args: argparse.Namespace) -> int:
    factory, _ = MODELS[args.model]
    model = factory()
    n = model.num_parameters()
    em = EnergyModel()
    k = max(1, int(round(n / args.compression)))
    dense = em.report(AccessCounter(weight_reads=n * args.steps, weight_writes=n * args.steps,
                                    steps=args.steps))
    db = em.report(
        AccessCounter(
            weight_reads=k * args.steps,
            weight_writes=k * args.steps,
            regenerations=(n - k) * args.steps,
            steps=args.steps,
        )
    )
    print(format_table(
        ["", "dense SGD", f"DropBack {format_ratio(n / k)}"],
        [
            ["stored weights", f"{n:,}", f"{k:,}"],
            ["weight energy", f"{dense.total_uj:.0f} uJ", f"{db.total_uj:.0f} uJ"],
            ["saving", "-", format_ratio(dense.total_pj / db.total_pj)],
        ],
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list available models").set_defaults(func=cmd_info)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--model", choices=MODELS, default="mnist-100-100")
    p_train.add_argument("--optimizer", choices=OPTIMIZERS, default="dropback")
    p_train.add_argument("--compression", type=float, default=4.5)
    p_train.add_argument("--epochs", type=int, default=8)
    p_train.add_argument("--lr", type=float, default=0.4)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--train-size", type=int, default=2000)
    p_train.add_argument("--image-size", type=int, default=16)
    p_train.add_argument("--freeze-epoch", type=int, default=0)
    p_train.add_argument("--patience", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=42)
    p_train.add_argument("--workers", type=int, default=1,
                         help="data-parallel worker processes (power of two; "
                              ">1 trains with repro.parallel.ParallelTrainer)")
    p_train.add_argument("--microbatch", type=int, default=None,
                         help="microbatch size for the deterministic gradient "
                              "reduction (default: batch-size / workers)")
    p_train.add_argument("--sanitize", action="store_true",
                         help="run under the runtime invariant sanitizers "
                              "(also enabled by REPRO_SANITIZE=1)")
    p_train.add_argument("--perf-out", default=None,
                         help="write a perf-report JSON for this run "
                              "(stamped meta.sanitize=true under --sanitize)")
    p_train.set_defaults(func=cmd_train)

    p_profile = sub.add_parser("profile", help="op-level hot-spot profile of one config")
    p_profile.add_argument("--experiment", choices=list_experiments(), default="table1")
    p_profile.add_argument("--run", default=None,
                           help="config name within the experiment (default: first)")
    p_profile.add_argument("--scale", type=float, default=0.1)
    p_profile.add_argument("--seed", type=int, default=42)
    p_profile.add_argument("--top", type=int, default=20)
    p_profile.add_argument("--out", default=None, help="write perf JSON to this path")
    p_profile.set_defaults(func=cmd_profile)

    p_analyze = sub.add_parser("analyze",
                               help="AST lint pass for plane/pool/determinism invariants")
    p_analyze.add_argument("paths", nargs="*", default=None,
                           help="files/directories to lint (default: src)")
    p_analyze.add_argument("--json", default=None, metavar="PATH",
                           help="write machine-readable findings JSON (the CI artifact)")
    p_analyze.add_argument("--select", default=None, metavar="CODES",
                           help="comma-separated rule codes to run (default: all)")
    p_analyze.add_argument("--format", choices=("text", "github"), default="text",
                           help="'github' emits ::error workflow annotations "
                                "(inline PR surfacing)")
    p_analyze.add_argument("--graph", default=None, metavar="PATH",
                           help="dump the pass-1 call/lock graph as JSON")
    p_analyze.add_argument("--list-rules", action="store_true",
                           help="print the rule catalog and exit")
    p_analyze.set_defaults(func=cmd_analyze)

    p_kernels = sub.add_parser("kernels",
                               help="kernel-dispatch registry: list backends or micro-bench")
    p_kernels.add_argument("--bench", action="store_true",
                           help="time every backend of the benched ops (default: just "
                                "list the dispatch table)")
    p_kernels.add_argument("--rounds", type=int, default=30,
                           help="timing rounds per (op, backend); the report keeps the min")
    p_kernels.add_argument("--seed", type=int, default=0)
    p_kernels.add_argument("--out", default=None,
                           help="write the bench perf JSON here (the CI gate artifact)")
    p_kernels.set_defaults(func=cmd_kernels)

    p_serve = sub.add_parser("serve",
                             help="serve sparse checkpoints through the batching server")
    p_serve.add_argument("checkpoints", nargs="+",
                         help="sparse/quantized checkpoint file(s) to register")
    p_serve.add_argument("--model", choices=MODELS, default="mnist-100-100",
                         help="architecture the checkpoints were trained with")
    p_serve.add_argument("--clients", type=int, default=8)
    p_serve.add_argument("--requests", type=int, default=25,
                         help="requests per client per model (default 25)")
    p_serve.add_argument("--max-batch", type=int, default=8)
    p_serve.add_argument("--wait-ms", type=float, default=2.0)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--byte-budget-mb", type=float, default=None,
                         help="registry plane budget in MB (default: unbounded)")
    p_serve.add_argument("--image-size", type=int, default=16,
                         help="synthetic CIFAR image size (cifar models only)")
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument("--out", default=None, help="write serve stats JSON here")
    p_serve.set_defaults(func=cmd_serve)

    from repro.serve.loadgen import build_arg_parser as serve_bench_parser

    p_serve_bench = sub.add_parser(
        "serve-bench",
        parents=[serve_bench_parser()],
        add_help=False,
        help="serving load bench: batching vs batch-size-1 latency report "
             "(same flags as benchmarks/bench_serve.py)",
    )
    p_serve_bench.set_defaults(func=cmd_serve_bench)

    p_energy = sub.add_parser("energy", help="analytic energy comparison")
    p_energy.add_argument("--model", choices=MODELS, default="wrn-28-10")
    p_energy.add_argument("--compression", type=float, default=4.5)
    p_energy.add_argument("--steps", type=int, default=1000)
    p_energy.set_defaults(func=cmd_energy)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
