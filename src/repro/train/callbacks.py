"""Training callbacks.

Callbacks observe the training loop at epoch and step boundaries.  The
reproduction uses them for the paper's instrumentation: freezing DropBack's
tracked set at a chosen epoch, recording weight-diffusion distance (Fig. 5),
snapshotting weights for the PCA trajectories (Fig. 6), and logging
tracked-set churn (Fig. 2).
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.profile import OpStat, PerfReport, disable, enable, is_enabled, snapshot
from repro.tensor import kernels

if TYPE_CHECKING:  # pragma: no cover
    from repro.train.trainer import Trainer

__all__ = [
    "Callback",
    "FreezeCallback",
    "WeightSnapshotCallback",
    "LambdaCallback",
    "ProfilerCallback",
]


class Callback:
    """Base class; override any subset of the hooks."""

    def on_train_begin(self, trainer: "Trainer") -> None: ...

    def on_epoch_begin(self, trainer: "Trainer", epoch: int) -> None: ...

    def on_backward_end(self, trainer: "Trainer", step: int) -> None:
        """After ``loss.backward()``, before the optimizer consumes grads.

        The hook the sanitizer's NaN/inf tripwire uses: gradients are
        fully accumulated but not yet folded into the tracked-set
        selection, so a poisoned value can be attributed to its source.
        """
        ...

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None: ...

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: dict) -> None: ...

    def on_train_end(self, trainer: "Trainer") -> None: ...


class FreezeCallback(Callback):
    """Freeze a DropBack optimizer's tracked set after ``freeze_epoch`` epochs.

    Matches the paper's "Freeze Epoch" column in Table 1: the tracked set is
    re-selected every step up to and including epoch ``freeze_epoch - 1``
    (0-based), then frozen.
    """

    def __init__(self, freeze_epoch: int):
        if freeze_epoch < 1:
            raise ValueError(f"freeze_epoch must be >= 1, got {freeze_epoch}")
        self.freeze_epoch = int(freeze_epoch)

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: dict) -> None:
        opt = trainer.optimizer
        if epoch + 1 == self.freeze_epoch and hasattr(opt, "freeze") and not opt.frozen:
            opt.freeze()
            logs["froze_tracked_set"] = True


class WeightSnapshotCallback(Callback):
    """Record a flat copy of all weights at a step cadence.

    Feeds the diffusion (Fig. 5) and PCA-trajectory (Fig. 6) analyses.
    ``log_spaced=True`` snapshots on a log-spaced step grid, matching the
    paper's log-scale x-axis while bounding memory.
    """

    def __init__(self, every: int = 1, log_spaced: bool = False, max_snapshots: int = 200):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.log_spaced = bool(log_spaced)
        self.max_snapshots = int(max_snapshots)
        self.steps: list[int] = []
        self.snapshots: list[np.ndarray] = []
        self._next_log_step = 1

    def _flat_weights(self, trainer: "Trainer") -> np.ndarray:
        return np.concatenate([p.data.reshape(-1) for p in trainer.model.parameters()])

    def on_train_begin(self, trainer: "Trainer") -> None:
        self.steps.append(0)
        self.snapshots.append(self._flat_weights(trainer))

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if len(self.snapshots) >= self.max_snapshots:
            return
        if self.log_spaced:
            if step + 1 >= self._next_log_step:
                self.steps.append(step + 1)
                self.snapshots.append(self._flat_weights(trainer))
                self._next_log_step = max(self._next_log_step + 1, int(self._next_log_step * 1.3))
        elif (step + 1) % self.every == 0:
            self.steps.append(step + 1)
            self.snapshots.append(self._flat_weights(trainer))

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(steps, snapshot_matrix)`` with one row per snapshot."""
        return np.asarray(self.steps), np.stack(self.snapshots)


class ProfilerCallback(Callback):
    """Trace a training run through the :mod:`repro.profile` registry.

    On ``on_train_begin`` the callback (optionally) enables profiling and
    snapshots the registry; on ``on_train_end`` it folds the *delta* — only
    what this run recorded — into a :class:`~repro.profile.PerfReport`
    available as :attr:`report`, restoring the previous enable state.  Epoch
    wall time and step counts are traced on the way (``epoch_trace`` in the
    report metadata), so a report carries op-level, step-level, and
    epoch-level cost in one JSON document.

    Parameters
    ----------
    report_name:
        Name stamped into the report (and the default file stem).
    enable:
        Turn profiling on for the duration of the run (default True).  Pass
        False to only *observe* — the callback then reports whatever ops
        record under the caller's own enable window.
    emit_path:
        Optional path; when given, the report is written there as JSON on
        ``on_train_end``.
    meta:
        Extra key/values merged into the report metadata (config name, ...).
    """

    def __init__(
        self,
        report_name: str = "train",
        enable: bool = True,
        emit_path: str | Path | None = None,
        meta: dict | None = None,
    ):
        self.report_name = report_name
        self.enable = bool(enable)
        self.emit_path = Path(emit_path) if emit_path is not None else None
        self.meta = dict(meta or {})
        self.report: PerfReport | None = None
        self.epoch_trace: list[dict] = []
        self._was_enabled = False
        self._baseline: dict = {"ops": {}, "counters": {}}
        self._train_t0 = 0.0
        self._epoch_t0 = 0.0
        self._steps = 0
        self._epoch_steps = 0

    def on_train_begin(self, trainer: "Trainer") -> None:
        self._was_enabled = is_enabled()
        if self.enable:
            enable()
        self._baseline = snapshot()
        self.epoch_trace = []
        self._steps = 0
        self._train_t0 = perf_counter()

    def on_epoch_begin(self, trainer: "Trainer", epoch: int) -> None:
        self._epoch_t0 = perf_counter()
        self._epoch_steps = 0

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        self._steps += 1
        self._epoch_steps += 1

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: dict) -> None:
        self.epoch_trace.append(
            {
                "epoch": epoch,
                "seconds": perf_counter() - self._epoch_t0,
                "steps": self._epoch_steps,
            }
        )

    def on_train_end(self, trainer: "Trainer") -> None:
        wall = perf_counter() - self._train_t0
        snap = snapshot()
        ops: dict[str, OpStat] = {}
        for name, raw in snap["ops"].items():
            base = self._baseline["ops"].get(name, {})
            calls = raw["calls"] - base.get("calls", 0)
            if calls <= 0:
                continue
            ops[name] = OpStat(
                name=name,
                calls=calls,
                total_seconds=raw["total_seconds"] - base.get("total_seconds", 0.0),
                bytes_allocated=raw["bytes_allocated"] - base.get("bytes_allocated", 0),
            )
        counters = {
            name: value - self._baseline["counters"].get(name, 0)
            for name, value in snap["counters"].items()
            if value - self._baseline["counters"].get(name, 0)
        }
        meta = {
            "wall_seconds": wall,
            "steps": self._steps,
            "epochs": len(self.epoch_trace),
            "epoch_trace": self.epoch_trace,
            "backend": kernels.get_backend(),
            # Data-parallel rank count (ParallelTrainer); 1 for Trainer.
            "workers": int(getattr(trainer, "workers", 1)),
            **self.meta,
        }
        # Sanitized runs carry checker overhead in every op; stamp them so
        # the perf gate (scripts/check_perf_report.py) excludes the report.
        if getattr(trainer, "sanitize", False):
            meta["sanitize"] = True
        self.report = PerfReport(
            name=self.report_name, ops=ops, counters=counters, meta=meta
        )
        if self.enable and not self._was_enabled:
            disable()
        if self.emit_path is not None:
            self.report.write(self.emit_path)


class LambdaCallback(Callback):
    """Wrap ad-hoc functions as a callback."""

    def __init__(self, on_epoch_end=None, on_step_end=None, on_train_begin=None):
        self._epoch_end = on_epoch_end
        self._step_end = on_step_end
        self._train_begin = on_train_begin

    def on_train_begin(self, trainer: "Trainer") -> None:
        if self._train_begin:
            self._train_begin(trainer)

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        if self._step_end:
            self._step_end(trainer, step, loss)

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: dict) -> None:
        if self._epoch_end:
            self._epoch_end(trainer, epoch, logs)
