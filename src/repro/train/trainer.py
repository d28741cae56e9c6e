"""Training loop.

Reproduces the paper's protocol: epoch-based SGD training with a learning
rate schedule, per-epoch validation, and best-epoch selection ("the best
epoch was chosen by highest validation accuracy after 5 epochs of no
improvement").  Instrumentation hooks in via :mod:`repro.train.callbacks`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data import DataLoader, Dataset
from repro.nn import Module
from repro.optim import Optimizer, Schedule
from repro.profile import profiled
from repro.tensor import Tensor, cross_entropy
from repro.train.callbacks import Callback
from repro.train.metrics import evaluate

__all__ = ["Trainer", "History"]


@dataclass
class History:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = 0.0
    stopped_early: bool = False
    diverged: bool = False

    @property
    def best_val_error(self) -> float:
        """Validation error at the best epoch (the paper's headline metric)."""
        return 1.0 - self.best_val_accuracy

    @property
    def epochs_run(self) -> int:
        return len(self.val_accuracy)


class Trainer:
    """Run supervised training with validation-based best-epoch selection.

    Parameters
    ----------
    model:
        Finalized model.
    optimizer:
        Any :class:`~repro.optim.Optimizer` (SGD, DropBack, ...).
    loss_fn:
        Callable ``(logits, labels) -> Tensor``; defaults to cross-entropy.
        Variational-dropout training passes a closure adding the KL term.
    schedule:
        Optional LR schedule applied at each epoch start.
    callbacks:
        Observers (freeze, snapshots, ...).
    patience:
        Stop after this many epochs without validation improvement
        (paper: 5 for MNIST).  ``None`` disables early stopping.
    stop_on_divergence:
        Abort the run (setting ``history.diverged``) when the training
        loss becomes NaN/inf — the failure mode variational dropout shows
        on the dense networks (Table 3).
    sanitize:
        Run under the runtime sanitizers (plane-integrity checks, NaN/inf
        gradient tripwire, workspace-pool poisoning — see
        :mod:`repro.analyze.sanitize`).  ``None`` (the default) defers to
        the ``REPRO_SANITIZE`` environment variable.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn=None,
        schedule: Schedule | None = None,
        callbacks: list[Callback] | None = None,
        patience: int | None = None,
        stop_on_divergence: bool = True,
        sanitize: bool | None = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn or cross_entropy
        self.schedule = schedule
        self.callbacks = list(callbacks or [])
        self.patience = patience
        self.stop_on_divergence = bool(stop_on_divergence)
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
                "1", "true", "on", "yes",
            )
        self.sanitize = bool(sanitize)
        if self.sanitize:
            # Imported lazily: the sanitizers are opt-in tooling, and the
            # analyze package depends on train.callbacks (not vice versa).
            from repro.analyze import sanitize as _sanitize

            self.callbacks.extend(_sanitize.sanitizer_callbacks())
        self.history = History()
        self.global_step = 0

    def fit(
        self,
        train_loader: DataLoader,
        val_data: Dataset | DataLoader,
        epochs: int,
        verbose: bool = False,
    ) -> History:
        """Train for up to ``epochs`` epochs; returns the history."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        for cb in self.callbacks:
            cb.on_train_begin(self)

        epochs_since_best = 0
        for epoch in range(epochs):
            epoch_start = time.perf_counter()
            if self.schedule is not None:
                self.optimizer.lr = self.schedule(epoch)
            for cb in self.callbacks:
                cb.on_epoch_begin(self, epoch)

            self.model.train()
            losses = []
            for xb, yb in train_loader:
                self.optimizer.zero_grad()
                with profiled("trainer.forward"):
                    logits = self.model(Tensor(xb))
                    loss = self.loss_fn(logits, yb)
                with profiled("trainer.backward"):
                    loss.backward()
                for cb in self.callbacks:
                    cb.on_backward_end(self, self.global_step)
                with profiled("trainer.optimizer_step"):
                    self.optimizer.step()
                loss_val = loss.item()
                losses.append(loss_val)
                if self.stop_on_divergence and not np.isfinite(loss_val):
                    self.history.diverged = True
                    break
                for cb in self.callbacks:
                    cb.on_step_end(self, self.global_step, loss_val)
                self.global_step += 1
            if self.history.diverged:
                for cb in self.callbacks:
                    cb.on_train_end(self)
                return self.history

            with profiled("trainer.evaluate"):
                val_acc = evaluate(self.model, val_data)
            logs: dict = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)) if losses else float("nan"),
                "val_accuracy": val_acc,
                "lr": self.optimizer.lr,
            }
            # DropBack exposes a running churn total that survives any
            # swap_history bound; surface it for epoch-level callbacks.
            total_swaps = getattr(self.optimizer, "total_swaps", None)
            if total_swaps is not None:
                logs["total_swaps"] = int(total_swaps)
            self.history.train_loss.append(logs["train_loss"])
            self.history.val_accuracy.append(val_acc)
            self.history.lr.append(self.optimizer.lr)
            self.history.epoch_seconds.append(time.perf_counter() - epoch_start)

            if val_acc > self.history.best_val_accuracy:
                self.history.best_val_accuracy = val_acc
                self.history.best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1

            for cb in self.callbacks:
                cb.on_epoch_end(self, epoch, logs)
            if verbose:
                print(
                    f"epoch {epoch:3d}  loss {logs['train_loss']:.4f}  "
                    f"val_acc {val_acc:.4f}  lr {self.optimizer.lr:.4f}"
                )

            if self.patience is not None and epochs_since_best >= self.patience:
                self.history.stopped_early = True
                break

        for cb in self.callbacks:
            cb.on_train_end(self)
        return self.history
