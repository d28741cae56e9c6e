"""End-to-end benchmark of the DropBack reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload train-conv --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half traced, prints the
per-layer metrics and the tracing overhead (traced minus untraced), and
writes the spans as Chrome trace-event JSON under ``.e2ebench/out/``.
``--workload all`` runs every workload in a fresh process, one after the
other; ``train-mlp`` runs but is not in ``BENCHMARK.json``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names
and units come from ``BENCHMARK.json``.  On every way out, the run stops
each process it started and waits for it, the program's resource tracker
included.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".e2ebench"  # cache/ (inputs, recorded losses) and out/ (records, traces)
WORKLOADS = ("train-mlp", "train-conv", "train-mlp-2w", "serve-zipf")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {src}")
    return repro


# ---------------------------------------------------------------------- #
# training workloads
# ---------------------------------------------------------------------- #


def _recorded(state: Path, cfg, seed: int, trials) -> dict | None:
    """Per-replica outcomes first recorded for this seed and config, then
    extended with any replica not yet recorded."""
    import inputs
    import train_bench as tb

    key = hashlib.sha1(repr(cfg).encode()).hexdigest()[:10]
    path = state / f"expect-{cfg.name}-{key}-s{seed}-v{inputs.INPUT_VERSION}.json"
    before = None
    if path.exists():
        with open(path) as f:
            before = json.load(f)
    merged = {str(r): list(v) for r, v in tb.replica_outcomes(trials).items()}
    merged.update(before or {})
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as f:
        json.dump(merged, f)
    os.replace(tmp, path)
    return before


def run_train(name: str, seed: int, seconds: float, trace: bool, cache):
    import hostenv
    import train_bench as tb
    from tracing import GcPauses, Tracer

    cfg = tb.CONFIGS[name]
    data = tb.load_data(cfg, cache, seed)
    peak_reset = hostenv.reset_peak_rss()
    budget_s = seconds / 2 if trace else seconds
    trials = tb.run_trials(cfg, data, seed, budget_s)
    e2e = tb.end_to_end(cfg, trials)
    checks = tb.check(trials, _recorded(cache.root, cfg, seed, trials))
    result = {"e2e": e2e, "checks": checks, "attempted": len(trials), "failed": 0,
              "details": {"trials": len(trials), "peak_rss_reset": peak_reset,
                          "trial_wall_throughput": [t.samples / t.wall_s for t in trials],
                          "trial_cpu_s": [t.cpu_s for t in trials],
                          "trial_setup_s": [t.setup_s for t in trials],
                          "replica_val_error": [v for _, v in
                                                tb.replica_outcomes(trials).values()]}}
    if not trace:
        return result

    tracer = Tracer()
    with GcPauses() as gcp:
        w0 = time.perf_counter()
        traced = tb.run_trials(cfg, data, seed, seconds / 2, tracer=tracer)
        wall = time.perf_counter() - w0
    traced_e2e = tb.end_to_end(cfg, traced)
    checks += [(f"traced: {n}", ok, d) for n, ok, d in tb.check(traced + trials, None)]
    result["attempted"] += len(traced)
    layers = tb.per_layer(cfg, tracer, traced)
    if cfg.workers:
        one = tb.train_once(cfg, data, seed, workers=1, keep_plane=True)
        many = tb.train_once(cfg, data, seed, keep_plane=True)
        result["attempted"] += 2
        checks.append((f"{cfg.workers}-rank plane byte-identical to workers=1",
                       one.plane.tobytes() == many.plane.tobytes(), ""))
        layers["parallel.scaling"] = one.wall_s / min(t.wall_s for t in trials)
        layers["parallel.reduce_ms"] = tb.reduce_ms(many.plane.size, cfg.workers)
    # Only collections inside a fit count: the harness collects between trials.
    fits = [(tracer.start[i], tracer.end[i]) for i in tracer.spans("train.fit")]
    layers["gc.gen2_pause_ms"] = (1e3 * gcp.seconds_within(fits)
                                  / sum(e - s for s, e in fits))
    result.update(traced_e2e=traced_e2e, layers=layers, tracer=tracer, trace_wall=wall,
                  async_events=[])
    return result


# ---------------------------------------------------------------------- #
# serving workload
# ---------------------------------------------------------------------- #


def run_serve(seed: int, seconds: float, trace: bool, cache):
    import hostenv
    import inputs
    import serve_bench as sb
    from tracing import GcPauses, Tracer

    cfg = sb.CONFIG
    sset = inputs.serving_set(cache, seed, sb.FACTORY)
    budget = sb.byte_budget(sset, cfg)
    peak_reset = hostenv.reset_peak_rss()
    budget_s = seconds / 2 if trace else seconds
    run = sb.serve_run(sset, seed, budget_s, budget, cfg)
    e2e, details = sb.summarize(run, sset, cfg)
    details["peak_rss_reset"] = peak_reset
    checks = sb.check(details, cfg)
    result = {"e2e": e2e, "checks": checks, "attempted": details["sent"],
              "failed": details["failed"], "details": details}
    if not trace:
        return result

    tracer = Tracer()
    factory = sb.traced_factory(tracer)
    with GcPauses() as gcp:
        w0 = time.perf_counter()
        traced = sb.serve_run(sset, seed, seconds / 2, budget, cfg, tracer=tracer,
                              factory=factory)
        wall = time.perf_counter() - w0
    traced_e2e, traced_details = sb.summarize(traced, sset, cfg)
    checks += [(f"traced: {n}", ok, d) for n, ok, d in sb.check(traced_details, cfg)]
    result["attempted"] += traced_details["sent"]
    result["failed"] += traced_details["failed"]
    layers = sb.per_layer(traced, tracer, cfg)
    layers["gc.gen2_pause_ms"] = 1e3 * gcp.seconds_within([(w0, w0 + wall)]) / wall
    on = traced.online
    result.update(traced_e2e=traced_e2e, layers=layers, tracer=tracer, trace_wall=wall,
                  async_events=[("request", i, on.t0 + on.sched.due[i], on.done[i])
                                for i in range(len(on.sched)) if on.status[i]])
    return result


# ---------------------------------------------------------------------- #
# reporting
# ---------------------------------------------------------------------- #


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g}  {unit}")


def print_self_times(tracer, wall: float) -> None:
    table = tracer.self_time_by_name()
    print(f"per-layer self time over {wall:.2f} s traced ({len(tracer)} spans)")
    print(f"  {'span':<28} {'calls':>8} {'incl ms':>11} {'self ms':>11} {'self %':>7}")
    for name, (calls, incl, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<28} {calls:>8} {1e3 * incl:>11.2f} {1e3 * own:>11.2f} "
              f"{100 * own / wall:>6.1f}%")


def run_one(args, spec) -> int:
    import hostenv

    hostenv.pin_blas_threads()
    try:
        repro = import_program()
    except ImportError as exc:
        print(f"e2ebench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import inputs

    steal = hostenv.CpuSteal()
    cache = inputs.Cache(STATE_DIR / "cache")
    out_dir = STATE_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    profiling_off = not repro.profile.is_enabled()
    if args.workload == "serve-zipf":
        result = run_serve(args.seed, args.seconds, bool(args.trace), cache)
    else:
        result = run_train(args.workload, args.seed, args.seconds, bool(args.trace), cache)
    result["e2e"]["peak_rss_mb"] = hostenv.peak_rss_mb()
    checks = result["checks"]
    checks.append(("repro.profile stayed disabled",
                   profiling_off and not repro.profile.is_enabled(), ""))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **hostenv.environment(), "cpu_steal": steal.share(),
              **result["details"]}
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"

    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # error_rate is 0 on correct code, and a gated metric must never be 0,
    # so it is carried by the result's attempted/failed counts and only
    # printed here.
    error_rate = result["failed"] / max(1, result["attempted"])
    print_table(f"{args.workload} seed {args.seed}: end-to-end (tracing off)",
                [(n, result["e2e"][n], u) for n, u in e2e_units.items()]
                + [("error_rate", error_rate, "ratio")])
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))

    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = {n: 0.0 for n in layer_units}
        layers.update(result["layers"])
        for m in ("throughput", "latency_p50_ms", "cpu_us_per_sample", "setup_s"):
            layers[f"trace.overhead.{m}"] = result["traced_e2e"][m] - result["e2e"][m]
        unknown = sorted(set(layers) - set(layer_units))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        print_table(f"{args.workload}: per-layer (traced run)",
                    [(n, layers[n], u) for n, u in layer_units.items()])
        from tracing import write_chrome_trace

        print_self_times(result["tracer"], result["trace_wall"])
        trace_path = out_dir / f"{stem}.trace.json"
        n_events = write_chrome_trace(trace_path, result["tracer"], result["async_events"])
        print(f"chrome trace: {trace_path} ({n_events} events)")
        metrics = {n: {"value": float(layers[n]), "unit": u} for n, u in layer_units.items()}
        record["per_layer"] = layers
    else:
        metrics = {n: {"value": float(result["e2e"][n]), "unit": u}
                   for n, u in e2e_units.items()}
    record["end_to_end"] = result["e2e"]
    record["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    env = {k: record[k] for k in ("nproc", "blas", "blas_threads", "kernel_backend",
                                  "sanitize", "python", "numpy", "cpu_steal")}
    env["generator_lag_p99_ms"] = record.get("generator_lag_p99_ms")
    print("record: " + json.dumps(env, default=str))
    correct = all(ok for _, ok, _ in checks) and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in a fresh process; prints each one's table."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    import hostenv

    args = parse_args(argv)
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args, spec)
        return run_one(args, spec)
    finally:
        hostenv.stop_child_processes()


if __name__ == "__main__":
    # SIGTERM unwinds through main's clean-up; forked ranks keep the default.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    sys.exit(main())
