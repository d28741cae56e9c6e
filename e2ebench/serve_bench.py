"""serve-zipf: 32 sparse checkpoints behind one InferenceServer.

Set-up registers every checkpoint (a quarter of them ``zero_untracked``
at 5% density and registered ``packed=True``), warms the hot set and
starts the server.  Two phases follow:

* *online* -- an open-loop Poisson schedule at ``online_rate``, sent by
  one generator thread.  Each request is timed from its due time, so a
  stall also charges the requests queued behind it.
* *bulk* -- one burst submitted at once and drained as fast as the server
  can, repeated until the run's time is used up.

The harness keeps no per-request Python objects: each Future is dropped
after ``add_done_callback`` and the callback writes its row, time and
status into arrays preallocated per phase.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

import hostenv
import inputs
from repro.models import mnist_100_100
from repro.serve import InferenceServer, ModelRegistry, PackedModel
from tracing import Tracer, instrument_model, mean_ms, percentile, supported_percentile

__all__ = [
    "ServeConfig",
    "CONFIG",
    "check_rows",
    "byte_budget",
    "setup_server",
    "serve_run",
    "summarize",
    "check",
    "traced_factory",
    "per_layer",
]

FACTORY = mnist_100_100


@dataclass(frozen=True)
class ServeConfig:
    max_batch_size: int = 16
    # One worker thread (the server's default is 2): on 2 vCPUs, two workers
    # drained 10-20% fewer requests/s at 25-35% more CPU per request, and
    # swung more with the host's load (see README.md).
    workers: int = 1
    online_rate: float = 1000.0  # requests/s, about a tenth of drain capacity
    online_share: float = 0.5  # of --seconds spent in the online phase
    bulk_requests: int = 4096  # per burst
    min_bursts: int = 3
    cold_dense: int = 3  # coldest dense checkpoints left out of the byte budget
    setups: int = 5  # set-ups per run; setup_s is their median
    deadline_s: float = 10.0  # a request unanswered this long after its due time fails
    rtol: float = 1e-4  # served row vs float64 reference
    atol: float = 1e-4


CONFIG = ServeConfig()

OK, FAILED, WRONG = 1, 2, 3


def check_rows(rows: np.ndarray, reference: np.ndarray, rtol: float, atol: float):
    """Per row: whether every logit is within ``atol + rtol * |ref|`` of the reference."""
    return np.all(np.abs(rows - reference) <= atol + rtol * np.abs(reference), axis=1)


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #


def cold_start(packed: list[bool], cold_dense: int) -> int:
    """First rank of the cold tail: it holds the ``cold_dense`` coldest dense ranks."""
    dense = [r for r, p in enumerate(packed) if not p]
    return dense[-cold_dense] if cold_dense else len(packed)


def byte_budget(sset: inputs.ServingSet, cfg: ServeConfig, factory=FACTORY) -> int:
    """Registry budget: pinned payloads plus all but the coldest dense servables.

    Sized once per run, outside ``setup_s``, from the bytes a throwaway
    registry reports for every materialized checkpoint; half a dense plane
    of slack absorbs nothing but rounding.
    """
    registry = ModelRegistry()
    digests = [registry.register(f"rank{r:02d}", factory, str(p), packed=sset.packed[r])
               for r, p in enumerate(sset.paths)]
    plane = {}
    for d in digests:
        registry.acquire(d)
        plane[d] = registry.describe(d)["plane_bytes"]
    cold = [digests[r] for r in range(cold_start(sset.packed, cfg.cold_dense), len(digests))
            if not sset.packed[r]]
    dense = max(plane.values())
    return (registry.pinned_bytes + sum(plane.values())
            - sum(plane[d] for d in cold) + dense // 2)


def setup_server(sset: inputs.ServingSet, cfg: ServeConfig, budget: int,
                 factory=FACTORY, tracer: Tracer | None = None):
    """Register every checkpoint, warm the hot set, start the server.

    Returns ``(server, digests, seconds)``.  Warming goes from the coldest
    hot rank to the hottest, so LRU order matches popularity.
    """
    t0 = time.perf_counter()
    registry = ModelRegistry(byte_budget=budget)
    register = registry.register
    if tracer is not None:
        register = tracer.wrap("io.register", register)
    digests = [register(f"rank{r:02d}", factory, str(p), packed=sset.packed[r])
               for r, p in enumerate(sset.paths)]
    for r in reversed(range(cold_start(sset.packed, cfg.cold_dense))):
        registry.acquire(digests[r])
    server = InferenceServer(registry, max_batch_size=cfg.max_batch_size,
                             workers=cfg.workers).start()
    return server, digests, time.perf_counter() - t0


# ---------------------------------------------------------------------- #
# one phase
# ---------------------------------------------------------------------- #


class Phase:
    """Preallocated per-request state for one phase."""

    def __init__(self, sched: inputs.Schedule, width: int):
        n = len(sched)
        self.sched = sched
        self.t0 = 0.0
        self.submit = np.zeros(n)
        self.done = np.zeros(n)
        self.status = np.zeros(n, dtype=np.int8)
        self.rows = np.zeros((n, width), dtype=np.float32)
        self.batch_t0 = np.full(n, np.nan)  # traced: acquire start of its batch
        self.fwd_end = np.full(n, np.nan)  # traced: forward end of its batch

    @property
    def latency(self) -> np.ndarray:
        """Seconds from due time to response (answered requests only)."""
        ok = self.status != 0
        return (self.done - (self.t0 + self.sched.due))[ok]


class _Recorder:
    """The one shared done-callback; request ids ride on the Future."""

    def __init__(self, phase: Phase, local: threading.local | None):
        self.phase = phase
        self.local = local
        self.pending = len(phase.sched)
        self.count = itertools.count(1)
        self.all_done = threading.Event()

    def __call__(self, fut) -> None:
        ph = self.phase
        i = fut.rid
        ph.done[i] = time.perf_counter()
        exc = fut.exception()
        if exc is None:
            ph.rows[i] = fut.result()
            ph.status[i] = OK
        else:
            ph.status[i] = FAILED
        if self.local is not None:
            b = getattr(self.local, "batch", None)
            if b is not None:
                ph.batch_t0[i], ph.fwd_end[i] = b
        if next(self.count) == self.pending:
            self.all_done.set()


def run_phase(server, digests, sset, phase: Phase, open_loop: bool, cfg: ServeConfig,
              local=None) -> float:
    """Send a phase's requests and wait for all of them; returns its wall time."""
    rec = _Recorder(phase, local)
    sched, images = phase.sched, sset.images
    submit = server.submit
    clock = time.perf_counter
    sleep = time.sleep
    phase.t0 = t0 = clock()
    for i in range(len(sched)):
        if open_loop:
            wait = t0 + sched.due[i] - clock()
            if wait > 0:
                sleep(wait)
        phase.submit[i] = clock()
        fut = submit(digests[sched.rank[i]], images[sched.image[i]])
        fut.rid = i
        fut.add_done_callback(rec)
    last_due = t0 + float(sched.due[-1])
    rec.all_done.wait(timeout=max(0.0, last_due - clock()) + cfg.deadline_s)
    return float(np.max(phase.done)) - t0 if rec.all_done.is_set() else clock() - t0


def grade(phase: Phase, sset, cfg: ServeConfig) -> None:
    """Mark wrong rows and late answers; status 0 stays 'unanswered'."""
    s = phase.sched
    ok = phase.status == OK
    right = check_rows(phase.rows[ok], sset.reference[s.rank[ok], s.image[ok]],
                       cfg.rtol, cfg.atol)
    idx = np.flatnonzero(ok)
    phase.status[idx[~right]] = WRONG
    late = (phase.status == OK) & (phase.done - (phase.t0 + s.due) > cfg.deadline_s)
    phase.status[late] = FAILED


# ---------------------------------------------------------------------- #
# tracing hooks
# ---------------------------------------------------------------------- #


def trace_registry(tracer: Tracer, registry: ModelRegistry) -> threading.local:
    """Wrap ``registry.acquire`` and each handle's ``forward`` it returns.

    An acquire is a materialization when it hands out a different model
    object than the last acquire of that digest.  The returned
    thread-local holds the last batch's ``(acquire start, forward end)``
    on each worker thread, read by the request done-callbacks that run on
    that thread right after the forward.
    """
    local = threading.local()
    clock = time.perf_counter
    acquire = registry.acquire
    last_model: dict[str, int] = {}

    def traced_acquire(digest):
        t0 = clock()
        handle = acquire(digest)
        t1 = clock()
        miss = last_model.get(digest) != id(handle.model)
        last_model[digest] = id(handle.model)
        tracer.add("registry.materialize" if miss else "registry.acquire_hit", t0, t1)
        forward = handle.forward
        name = ("serve.forward_packed" if isinstance(handle.model, PackedModel)
                else "serve.forward_dense")

        def traced_forward(x):
            f0 = clock()
            try:
                return forward(x)
            finally:
                f1 = clock()
                tracer.add(name, f0, f1)
                local.batch = (t0, f1)

        handle.forward = traced_forward
        return handle

    registry.acquire = traced_acquire
    return local


# ---------------------------------------------------------------------- #
# a whole run
# ---------------------------------------------------------------------- #


@dataclass
class ServeRun:
    setup_s: list[float]
    online: Phase
    bursts: list[Phase]
    bulk_wall: list[float]
    cpu_s: float
    stats: dict


def serve_run(sset, seed: int, seconds: float, budget: int, cfg: ServeConfig,
              tracer: Tracer | None = None, factory=FACTORY) -> ServeRun:
    """Set up ``cfg.setups`` times, then run the online and bulk phases."""
    setups = []
    server = None
    for _ in range(cfg.setups):
        if server is not None:
            server.stop()
        server, digests, s = setup_server(sset, cfg, budget, factory, tracer)
        setups.append(s)
    registry = server.registry
    local = trace_registry(tracer, registry) if tracer is not None else None
    width = sset.reference.shape[-1]
    try:
        reg0 = registry.stats.to_dict()
        srv0 = server.stats
        cpu0 = hostenv.rusage_cpu()
        n_online = max(1, int(cfg.online_rate * seconds * cfg.online_share))
        online = Phase(inputs.online_schedule(seed, cfg.online_rate, n_online,
                                              len(sset.images), len(digests)), width)
        run_phase(server, digests, sset, online, True, cfg, local)
        srv1 = server.stats
        bursts, walls = [], []
        t_end = time.perf_counter() + seconds * (1.0 - cfg.online_share)
        while len(bursts) < cfg.min_bursts or time.perf_counter() < t_end:
            ph = Phase(inputs.bulk_schedule(seed, cfg.bulk_requests, len(sset.images),
                                            len(digests), burst=len(bursts)), width)
            walls.append(run_phase(server, digests, sset, ph, False, cfg, local))
            bursts.append(ph)
        cpu = hostenv.rusage_cpu() - cpu0
        srv2 = server.stats
        reg2 = registry.stats.to_dict()
    finally:
        server.stop()
    for ph in [online, *bursts]:
        grade(ph, sset, cfg)
    stats = {
        "registry": {k: reg2[k] - reg0[k] for k in reg2},
        "online_batches": srv1.batches - srv0.batches,
        "online_samples": srv1.samples - srv0.samples,
        "bulk_batches": srv2.batches - srv1.batches,
        "bulk_samples": srv2.samples - srv1.samples,
    }
    return ServeRun(setups, online, bursts, walls, cpu, stats)


def summarize(run: ServeRun, sset, cfg: ServeConfig) -> tuple[dict, dict]:
    """``(end_to_end, details)`` for one run."""
    phases = [run.online, *run.bursts]
    sent = sum(len(p.sched) for p in phases)
    failed = sum(int((p.status != OK).sum()) for p in phases)
    # Top-1 error of each checkpoint on the requests it answered, averaged
    # over checkpoints: every served model counts once, however popular.
    # Only the online phase and the first min_bursts bursts count, the
    # requests every run of a seed sends, so it repeats for the seed.
    n_ckpt = len(sset.paths)
    wrong = np.zeros(n_ckpt)
    answered = np.zeros(n_ckpt)
    for p in phases[:1 + cfg.min_bursts]:
        ok = p.status == OK
        ranks = p.sched.rank[ok]
        miss = p.rows[ok].argmax(axis=1) != sset.labels[p.sched.image[ok]]
        answered += np.bincount(ranks, minlength=n_ckpt)
        wrong += np.bincount(ranks, weights=miss, minlength=n_ckpt)
    seen = answered > 0
    lat_ms = 1e3 * run.online.latency
    lag_ms = 1e3 * (run.online.submit - (run.online.t0 + run.online.sched.due))
    throughput = statistics.median(len(p.sched) / w for p, w in zip(run.bursts, run.bulk_wall))
    e2e = {
        "throughput": throughput,
        "latency_p50_ms": float(np.median(lat_ms)) if lat_ms.size else float("nan"),
        "val_error": float(np.mean(wrong[seen] / answered[seen])) if seen.any() else 1.0,
        "cpu_us_per_sample": 1e6 * run.cpu_s / sent,
        "setup_s": statistics.median(run.setup_s),
    }
    tail = supported_percentile(lat_ms.size)
    details = {
        "sent": sent,
        "failed": failed,
        "error_rate": failed / sent,
        "online_requests": len(run.online.sched),
        "bulk_requests": sent - len(run.online.sched),
        "bursts": len(run.bursts),
        "burst_throughput": [len(p.sched) / w for p, w in zip(run.bursts, run.bulk_wall)],
        "latency_tail": {"percentile": tail,
                         "ms": percentile(lat_ms, tail) if tail else None,
                         "samples": int(lat_ms.size)},
        "generator_lag_p99_ms": percentile(lag_ms, 99) if lag_ms.size else None,
        **run.stats,
    }
    return e2e, details


def check(details: dict, cfg: ServeConfig) -> list[tuple]:
    """Output checks: ``(name, ok, detail)`` per check."""
    return [
        ("every response matches its checkpoint's float64 reference in time",
         details["failed"] == 0,
         f"{details['failed']} of {details['sent']} failed, wrong or unanswered "
         f"(|row - ref| <= {cfg.atol} + {cfg.rtol}*|ref|, deadline {cfg.deadline_s} s)"),
    ]


def traced_factory(tracer: Tracer, factory=FACTORY):
    """A model factory whose models record their (eval-mode) forwards."""

    def build():
        model = factory()
        instrument_model(tracer, model)
        return model

    return build


def per_layer(run: ServeRun, tracer: Tracer, cfg: ServeConfig) -> dict[str, float]:
    """Per-layer metrics of a traced run (ms per call unless named otherwise)."""
    table = tracer.self_time_by_name()

    reg = run.stats["registry"]
    on = run.online
    answered = on.status != 0
    waited = 1e3 * (on.batch_t0 - on.submit)[answered]
    fanout = 1e3 * (on.done - on.fwd_end)[answered]
    lat_ms = 1e3 * on.latency
    lag_ms = 1e3 * (on.submit - (on.t0 + on.sched.due))
    forwards = table.get("nn.forward.eval", (0,))[0]
    bulk_size = run.stats["bulk_samples"] / max(1, run.stats["bulk_batches"])
    out = {
        "io.register_ms": mean_ms(table, "io.register"),
        "registry.materialize_ms": mean_ms(table, "registry.materialize"),
        "registry.acquire_hit_ms": mean_ms(table, "registry.acquire_hit"),
        "registry.materializations": float(reg["materializations"]),
        "registry.evictions": float(reg["evictions"]),
        "registry.hit_ratio": reg["hits"] / max(1, reg["hits"] + reg["materializations"]),
        "batcher.queue_wait_ms": float(np.nanmean(waited)) if waited.size else 0.0,
        "batcher.batch_size_online":
            run.stats["online_samples"] / max(1, run.stats["online_batches"]),
        "batcher.batch_size_bulk": bulk_size,
        "batcher.fill_ratio_bulk": bulk_size / cfg.max_batch_size,
        "serve.forward_dense_ms": mean_ms(table, "serve.forward_dense"),
        "serve.forward_packed_ms": mean_ms(table, "serve.forward_packed"),
        "serve.fanout_ms": float(np.nanmean(fanout)) if fanout.size else 0.0,
        "serve.latency_p99_ms": percentile(lat_ms, 99) if lat_ms.size else 0.0,
        "loadgen.lag_ms": percentile(lag_ms, 99),
        "nn.forward_ms": mean_ms(table, "nn.forward.eval"),
    }
    for kind in ("Linear", "ReLU"):
        own = table.get(f"nn.eval.{kind}", (0, 0.0, 0.0))[2]
        out[f"nn.layer_forward_ms.{kind}"] = 1e3 * own / forwards if forwards else 0.0
    return out
