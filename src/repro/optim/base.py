"""Optimizer base class with off-chip memory-access accounting.

Every optimizer counts the number of off-chip weight-memory accesses its
update rule implies under the paper's accelerator model (Section 1: a DRAM
access costs ~700x a floating-point op at 45 nm).  The counters feed
:mod:`repro.energy`, which turns them into energy estimates, reproducing the
paper's training-energy argument.

Accounting model (per training step):

* reading a stored weight for the forward/backward pass — 1 access each;
* writing an updated weight back — 1 access;
* *regenerating* an untracked weight (DropBack) — 0 accesses, but
  ``REGEN_INT_OPS + REGEN_FLOAT_OPS`` on-chip ops, tracked separately.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.nn import Module, Parameter

__all__ = ["Optimizer", "AccessCounter"]


@dataclass
class AccessCounter:
    """Tally of memory traffic and regeneration work across training."""

    weight_reads: int = 0
    weight_writes: int = 0
    regenerations: int = 0
    steps: int = 0

    @property
    def total_accesses(self) -> int:
        """Off-chip accesses: reads plus writes (regens are on-chip)."""
        return self.weight_reads + self.weight_writes

    def merge(self, other: "AccessCounter") -> "AccessCounter":
        return AccessCounter(
            self.weight_reads + other.weight_reads,
            self.weight_writes + other.weight_writes,
            self.regenerations + other.regenerations,
            self.steps + other.steps,
        )


class Optimizer(abc.ABC):
    """Base optimizer over a finalized :class:`~repro.nn.Module`.

    Parameters
    ----------
    model:
        Finalized model whose parameters will be updated.
    lr:
        Initial learning rate (mutable via :attr:`lr`, used by schedules).
    """

    def __init__(self, model: Module, lr: float):
        if not model.is_finalized:
            raise RuntimeError("model must be finalized before constructing an optimizer")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.model = model
        self.lr = float(lr)
        self.params: list[Parameter] = model.parameters()
        self.counter = AccessCounter()

    @property
    def weight_plane(self):
        """The model's flat weight plane (all parameters, contiguous).

        Built by ``Module.finalize``; optimizers that can express their
        update as whole-plane vectorized ops (DropBack's flat-plane step,
        in-place SGD) read and write it through the parameter views.
        Read it on every step: ``repro.parallel.adopt_plane`` may move it.
        """
        return self.model.weight_plane

    def zero_grad(self) -> None:
        self.model.zero_grad()

    @abc.abstractmethod
    def step(self) -> None:
        """Apply one update using the gradients currently on the parameters."""

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.params)

    def storage_floats(self) -> int:
        """Weight-memory footprint in floats this optimizer must persist.

        Baseline SGD stores every weight; DropBack overrides this to return
        its tracked-weight budget (plus indices), which is what the paper's
        "weight compression" column measures.
        """
        return self.num_parameters
