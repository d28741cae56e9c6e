"""Training workloads: train-mlp, train-conv and train-mlp-2w.

A run repeats one fixed *trial* until ``--seconds`` is used up: build
and finalize the model, the DropBack optimizer and the trainer (timed as
set-up), then ``fit`` a fixed number of epochs, the first half with the
tracked set re-selected every step and the second half frozen.  Trials
cycle through :data:`REPLICAS` model seeds (initial weights and batch
order) derived from the workload seed, all on the seed's training split.
``val_error`` is the median over the replicas: one initialization's luck,
and the odd run that trains badly, barely move it.  Trials of the same
replica must end at bit-identical losses.  End-to-end timings are medians
over trials.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import hostenv
import inputs
from repro.core import DropBack
from repro.data import DataLoader
from repro.models import lenet_300_100, vgg_s
from repro.parallel import ParallelTrainer
from repro.parallel.reduce import tree_sum
from repro.train import Callback, FreezeCallback, Trainer
from tracing import Tracer, instrument_model, mean_ms

__all__ = ["TrainConfig", "CONFIGS", "Trial", "train_once", "run_trials", "end_to_end",
           "check", "per_layer", "reduce_ms", "load_data", "replica_outcomes"]


REPLICAS = 8  # model seeds per run; val_error is the median over them


@dataclass(frozen=True)
class TrainConfig:
    name: str
    model: str  # key of MODELS
    data: str  # "mnist" or "cifar"
    batch: int
    epochs: int  # first half unfrozen, second half frozen
    lr: float
    k: int | None = None  # tracked-weight budget ...
    compression: float | None = None  # ... or total/k
    workers: int = 0  # 0: serial Trainer; N: ParallelTrainer(workers=N)
    microbatch: int | None = None
    eval_batch: int = 256  # validation batch (the trainer's default is 256)


MODELS = {
    "lenet-300-100": lenet_300_100,
    "vgg-s-0.125": lambda: vgg_s(width_mult=0.125),
}

CONFIGS = {
    "train-mlp": TrainConfig("train-mlp", "lenet-300-100", "mnist", batch=64,
                             epochs=4, lr=0.4, k=20_000),
    # Validation in batches of 64 keeps the im2col workspaces of a 32x32
    # VGG evaluation from dominating peak memory.
    "train-conv": TrainConfig("train-conv", "vgg-s-0.125", "cifar", batch=32,
                              epochs=2, lr=0.1, compression=10.0, eval_batch=64),
    "train-mlp-2w": TrainConfig("train-mlp-2w", "lenet-300-100", "mnist", batch=1024,
                                epochs=16, lr=0.4, k=20_000, workers=2, microbatch=512),
}


@dataclass
class Trial:
    """Measurements and outcomes of one trial."""

    replica: int
    setup_s: float
    wall_s: float
    cpu_s: float
    samples: int
    steps: int
    unfrozen_steps: int
    step_loop_s: float  # epoch start -> last step end, summed over epochs
    final_loss: float
    val_error: float
    total_swaps: int
    untracked_ok: bool
    plane: np.ndarray | None = None
    rank_compute_s: list[float] = field(default_factory=list)
    rank_wait_s: list[float] = field(default_factory=list)


class _StepClock(Callback):
    """Trainer callback timing the step loop of each epoch (cheap, always on).

    With a tracer it also synthesizes the spans the trainer's public
    callbacks bound: ``train.epoch``, ``nn.backward`` (forward end to
    ``on_backward_end``; includes the loss) and ``train.evaluate`` (last
    step end to ``on_epoch_end``).
    """

    def __init__(self, tracer: Tracer | None = None, forward_end=None):
        self.tracer = tracer
        self.forward_end = forward_end  # callable -> end time of last forward
        self.loop_s = 0.0
        self.steps = 0
        self.unfrozen_steps = 0
        self._epoch_t0 = 0.0
        self._last_step = 0.0

    def on_epoch_begin(self, trainer, epoch):
        self._epoch_t0 = self._last_step = time.perf_counter()

    def on_backward_end(self, trainer, step):
        if self.tracer is not None and self.forward_end is not None:
            t = self.forward_end()
            if t is not None:
                self.tracer.add("nn.backward", t, time.perf_counter())

    def on_step_end(self, trainer, step, loss):
        self._last_step = time.perf_counter()
        self.steps += 1
        if not getattr(trainer.optimizer, "frozen", False):
            self.unfrozen_steps += 1

    def on_epoch_end(self, trainer, epoch, logs):
        now = time.perf_counter()
        self.loop_s += self._last_step - self._epoch_t0
        if self.tracer is not None:
            self.tracer.add("train.evaluate", self._last_step, now)
            self.tracer.add("train.epoch", self._epoch_t0, now)


# ---------------------------------------------------------------------- #
# tracing hooks (instance level, benchmark side only)
# ---------------------------------------------------------------------- #


class _TracedLoader:
    """Iterable over a DataLoader recording each batch fetch as ``data.fetch``."""

    def __init__(self, loader, tracer: Tracer):
        self.loader = loader
        self.tracer = tracer

    def __len__(self):
        return len(self.loader)

    def __iter__(self):
        clock = time.perf_counter
        it = iter(self.loader)
        while True:
            t0 = clock()
            try:
                batch = next(it)
            except StopIteration:
                return
            self.tracer.add("data.fetch", t0, clock())
            yield batch


def _wrap_step(tracer: Tracer, opt) -> None:
    step = opt.step
    clock = time.perf_counter

    def traced():
        name = "core.step.frozen" if opt.frozen else "core.step.unfrozen"
        t0 = clock()
        try:
            step()
        finally:
            tracer.add(name, t0, clock())

    opt.step = traced


# ---------------------------------------------------------------------- #
# one trial
# ---------------------------------------------------------------------- #


def budget(cfg: TrainConfig, n_params: int) -> int:
    if cfg.k is not None:
        return cfg.k
    return max(1, round(n_params / cfg.compression))


def train_once(cfg: TrainConfig, data, seed: int, replica: int = 0,
               tracer: Tracer | None = None, workers: int | None = None,
               keep_plane: bool = False) -> Trial:
    """Set up and fit once; ``workers`` overrides the config's rank count."""
    train, val = data
    workers = cfg.workers if workers is None else workers
    clock = time.perf_counter

    t0 = clock()
    model = MODELS[cfg.model]()
    t_fin = clock()
    model.finalize(inputs.derive_seed(seed, "model", replica))
    if tracer is not None:
        tracer.add("init.finalize", t_fin, clock())
    opt = DropBack(model, k=budget(cfg, model.num_parameters()), lr=cfg.lr)
    forward_end = None
    if tracer is not None:
        last = instrument_model(tracer, model)
        forward_end = (lambda: last["end"]) if not workers else None
        _wrap_step(tracer, opt)
    clock_cb = _StepClock(tracer, forward_end)
    callbacks = [FreezeCallback(cfg.epochs // 2), clock_cb]
    loader = DataLoader(train, cfg.batch, seed=inputs.derive_seed(seed, "loader", replica),
                        drop_last=bool(workers))
    if workers:
        trainer = ParallelTrainer(model, opt, callbacks=callbacks, workers=workers,
                                  microbatch=cfg.microbatch)
    else:
        trainer = Trainer(model, opt, callbacks=callbacks)
    setup_s = clock() - t0

    fit_loader = loader
    if tracer is not None and not workers:
        fit_loader = _TracedLoader(loader, tracer)
    val_loader = DataLoader(val, cfg.eval_batch, shuffle=False)
    cpu0 = hostenv.rusage_cpu()
    w0 = clock()
    history = trainer.fit(fit_loader, val_loader, epochs=cfg.epochs)
    wall = clock() - w0
    cpu = hostenv.rusage_cpu() - cpu0
    if tracer is not None:
        tracer.add("train.fit", w0, w0 + wall)

    per_epoch = (len(train) // cfg.batch) * cfg.batch if workers else len(train)
    return Trial(
        replica=replica,
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        samples=per_epoch * history.epochs_run,
        steps=clock_cb.steps,
        unfrozen_steps=clock_cb.unfrozen_steps,
        step_loop_s=clock_cb.loop_s,
        final_loss=history.train_loss[-1],
        val_error=1.0 - history.val_accuracy[-1],
        total_swaps=int(opt.total_swaps),
        untracked_ok=bool(opt.untracked_values_match_init()),
        plane=np.array(model.weight_plane, copy=True) if keep_plane else None,
        rank_compute_s=list(getattr(trainer, "rank_compute_seconds", [])),
        rank_wait_s=list(getattr(trainer, "rank_wait_seconds", [])),
    )


def load_data(cfg: TrainConfig, cache: inputs.Cache, seed: int):
    if cfg.data == "mnist":
        return inputs.mnist(cache, seed)
    return inputs.cifar(cache, seed)


def run_trials(cfg, data, seed, seconds, tracer=None) -> list[Trial]:
    """Trials until ``seconds`` have passed, and at least one per replica.

    Each trial starts from a collected heap: the autograd graph of a
    finished fit holds reference cycles, and without the collection peak
    memory grew with the number of trials (VGG-S: 0.77 GB after one trial,
    1.5 GB after eight).
    """
    trials: list[Trial] = []
    t_end = time.perf_counter() + seconds
    while len(trials) < REPLICAS or time.perf_counter() < t_end:
        gc.collect()
        trials.append(train_once(cfg, data, seed, replica=len(trials) % REPLICAS,
                                 tracer=tracer))
    return trials


def replica_outcomes(trials: list[Trial]) -> dict[int, tuple[float, float]]:
    """``replica -> (final loss, val_error)`` of its first trial."""
    out: dict[int, tuple[float, float]] = {}
    for t in trials:
        out.setdefault(t.replica, (t.final_loss, t.val_error))
    return out


def end_to_end(cfg: TrainConfig, trials: list[Trial]) -> dict[str, float]:
    """Medians over trials (``peak_rss_mb`` is filled in by the caller).

    With forked ranks, ``throughput`` and ``latency_p50_ms`` count CPU
    time of all ranks instead of wall time: two lockstep ranks on two
    shared vCPUs move with every steal of either one, and their wall-clock
    figures did not repeat between runs (see README.md).
    """
    med = statistics.median
    if cfg.workers:
        throughput = med(t.samples / t.cpu_s for t in trials)
        step_ms = med(1e3 * t.cpu_s / t.steps for t in trials)
    else:
        throughput = med(t.samples / t.wall_s for t in trials)
        step_ms = med(1e3 * t.step_loop_s / t.steps for t in trials)
    return {
        "throughput": throughput,
        "latency_p50_ms": step_ms,
        "val_error": med(v for _, v in replica_outcomes(trials).values()),
        "cpu_us_per_sample": med(1e6 * t.cpu_s / t.samples for t in trials),
        "setup_s": med(t.setup_s for t in trials),
    }


def check(trials: list[Trial], recorded: dict | None) -> list[tuple]:
    """Output checks: ``(name, ok, detail)`` per check.

    ``recorded`` maps replica (as a string) to the ``[loss, val_error]``
    first recorded for this seed in this checkout, if any.
    """
    outcomes = replica_outcomes(trials)
    same = all((t.final_loss, t.val_error) == outcomes[t.replica] for t in trials)
    out = [
        ("untracked weights equal their regenerated init",
         all(t.untracked_ok for t in trials), ""),
        ("trials of one replica end at the same loss and val_error", same,
         f"{len(trials)} trials, {len(outcomes)} replicas"),
        ("final training losses are finite",
         all(np.isfinite(loss) for loss, _ in outcomes.values()), ""),
    ]
    if recorded is not None:
        mismatched = [r for r, v in outcomes.items()
                      if str(r) in recorded and tuple(recorded[str(r)]) != v]
        out.append(("final loss equals the value recorded for this seed", not mismatched,
                    f"replicas {mismatched} differ" if mismatched else ""))
    return out


# ---------------------------------------------------------------------- #
# per-layer metrics of a traced run
# ---------------------------------------------------------------------- #

LAYER_TYPES = ("Conv2d", "BatchNorm2d", "MaxPool2d", "ReLU", "Linear")


def per_layer(cfg: TrainConfig, tracer: Tracer, trials: list[Trial]) -> dict[str, float]:
    """Per-layer metrics from the traced trials' spans and public stats.

    Times are ms per call of the named span, except the layer-type self
    times and the loop's self time, which are ms per training step so that
    forward, backward, step, fetch and loop add up to the step.
    """
    table = tracer.self_time_by_name()

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    steps = sum(t.steps for t in trials)
    forwards = table.get("nn.forward", (0,))[0]
    out = {
        "data.fetch_ms": mean_ms(table, "data.fetch"),
        "nn.forward_ms": mean_ms(table, "nn.forward"),
        "nn.backward_ms": mean_ms(table, "nn.backward"),
        "core.step_unfrozen_ms": mean_ms(table, "core.step.unfrozen"),
        "core.step_frozen_ms": mean_ms(table, "core.step.frozen"),
        "core.swaps_per_step": (sum(t.total_swaps for t in trials)
                                / max(1, sum(t.unfrozen_steps for t in trials))),
        "init.finalize_ms": mean_ms(table, "init.finalize"),
        "train.evaluate_ms": mean_ms(table, "train.evaluate"),
        "train.loop_self_ms": 1e3 * (self_s("train.fit") + self_s("train.epoch")) / steps,
    }
    for kind in LAYER_TYPES:
        out[f"nn.layer_forward_ms.{kind}"] = (
            1e3 * self_s(f"nn.layer.{kind}") / forwards if forwards else 0.0)
    if cfg.workers:
        for r in range(cfg.workers):
            compute = sum(t.rank_compute_s[r] for t in trials) / len(trials)
            wait = sum(t.rank_wait_s[r] for t in trials) / len(trials)
            out[f"parallel.rank{r}.compute_s"] = compute
            out[f"parallel.rank{r}.wait_share"] = wait / (compute + wait)
        calls = sum(table.get(n, (0,))[0] for n in ("core.step.unfrozen", "core.step.frozen"))
        incl = sum(table.get(n, (0, 0.0))[1] for n in ("core.step.unfrozen", "core.step.frozen"))
        out["parallel.rank0_step_ms"] = 1e3 * incl / calls if calls else 0.0
        plane_bytes = 4 * sum(p.size for p in MODELS[cfg.model]().parameters())
        out["parallel.bytes_per_step"] = float(cfg.workers * plane_bytes)
    return out


def reduce_ms(plane_size: int, workers: int) -> float:
    """Median ms of the rank-0 reduce on this plane: ``tree_sum`` then the scale.

    Timed on the public :func:`repro.parallel.reduce.tree_sum` with the
    workload's shapes, since the reduce runs between two barriers inside
    the trainer where no public call bounds it.
    """
    rng = np.random.default_rng(0)
    grads = [rng.standard_normal(plane_size).astype(np.float32) for _ in range(workers)]
    out = np.empty(plane_size, dtype=np.float32)
    times = []
    for _ in range(25):
        t0 = time.perf_counter()
        tree_sum(grads, out=out)
        np.divide(out, np.float32(workers), out=out)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)
