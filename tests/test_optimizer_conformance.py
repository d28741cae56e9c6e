"""Optimizer conformance: one template of checks run over every optimizer.

Each case builds an optimizer on a fresh ``mlp(6, (8,), 3)`` and says when
DropBack's tracked set is frozen and unfrozen.  Each check is written once,
as one test parametrized over every case it applies to (the idiom of
timm's ``_test_basic_cases_template``):

* the loss decreases on a fixed problem (every case);
* ``step`` and ``reference_step`` give the same plane, mask and
  ``swap_history`` bit for bit after every step, and so does a run that
  alternates them (DropBack cases);
* every untracked weight equals its value regenerated from (seed, index),
  or 0 under ``zero_untracked``, after every step (DropBack cases);
* ``save_sparse`` → ``load_sparse`` reproduces the plane bits, and an
  unfrozen run resumed from the loaded checkpoint follows the
  uninterrupted run's planes bit for bit (DropBack cases);
* a step after ``adopt_plane`` writes the new buffer (every case).

The DropBack grid is every selection criterion × ``zero_untracked`` ×
frozen/unfrozen.  A frozen case freezes before step ``FREEZE_AT`` and
unfreezes before step ``UNFREEZE_AT``, so it covers both transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core import DropBack, UniformBudgetDropBack
from repro.io import load_sparse, save_sparse
from repro.models import mlp
from repro.nn import Module
from repro.optim import SGD
from repro.optim.base import Optimizer
from repro.parallel import adopt_plane
from repro.tensor import Tensor, cross_entropy

SEED = 11
K = 9  # of the model's 83 weights
LR = 0.3
N_STEPS = 7
FREEZE_AT = 2
UNFREEZE_AT = 5
ADOPT_AT = 3  # a frozen step in the frozen cases
RESUME_AT = 3


def _model() -> Module:
    return mlp(6, (8,), 3).finalize(SEED)


@dataclass(frozen=True)
class Case:
    id: str
    make: Callable[[Module], Optimizer]
    frozen: bool = False

    def schedule(self, opt: Optimizer, step: int) -> None:
        """Freeze or unfreeze the tracked set before ``step``."""
        if self.frozen and step == FREEZE_AT:
            opt.freeze()
        if self.frozen and step == UNFREEZE_AT:
            opt.unfreeze()


def _dropback(**kwargs) -> Callable[[Module], Optimizer]:
    kwargs.setdefault("k", K)
    return lambda model: DropBack(model, lr=LR, **kwargs)


def _uniform(model: Module) -> Optimizer:
    return UniformBudgetDropBack(model, k=K, lr=LR)


# DropBack cases are named criterion-{regen|zero}-{unfrozen|frozen}.
DROPBACK_CASES = [
    Case(
        f"{criterion}-{'zero' if zero else 'regen'}-{'frozen' if frozen else 'unfrozen'}",
        _dropback(criterion=criterion, zero_untracked=zero),
        frozen,
    )
    for criterion in ("accumulated", "magnitude", "current")
    for zero in (False, True)
    for frozen in (False, True)
] + [
    # A budget at least the model's size tracks every weight.
    Case("k-all", _dropback(k=2 * _model().num_parameters())),
    Case("uniform-unfrozen", _uniform),
    Case("uniform-frozen", _uniform, frozen=True),
]
CASES = [Case("sgd", lambda model: SGD(model, lr=LR))] + DROPBACK_CASES

each_case = pytest.mark.parametrize("case", CASES, ids=lambda c: c.id)
each_dropback = pytest.mark.parametrize("case", DROPBACK_CASES, ids=lambda c: c.id)


def _batch(step: int) -> tuple[Tensor, np.ndarray]:
    rng = np.random.default_rng(step)
    return Tensor(rng.normal(size=(16, 6)).astype(np.float32)), rng.integers(0, 3, size=16)


def _loss(model: Module, batch) -> float:
    """Forward and backward on ``batch``; returns the loss."""
    x, y = batch
    model.zero_grad()
    loss = cross_entropy(model(x), y)
    loss.backward()
    return loss.item()


def _run(case: Case, update=lambda opt, step: opt.step(), steps=range(N_STEPS),
         model=None, after=None):
    """Run ``case`` over ``steps`` (random batches); ``after(model, opt, step)``
    runs after every update.  Returns the model and its optimizer."""
    model = model or _model()
    opt = case.make(model)
    for step in steps:
        _loss(model, _batch(step))
        case.schedule(opt, step)
        update(opt, step)
        if after is not None:
            after(model, opt, step)
    return model, opt


def _trace(case: Case, **kwargs) -> list[bytes]:
    """The plane after every step of a run."""
    planes = []
    _run(case, after=lambda m, o, s: planes.append(m.weight_plane.tobytes()), **kwargs)
    return planes


@each_case
def test_loss_decreases(case):
    """The loss on one fixed batch falls over training."""
    model = _model()
    opt = case.make(model)
    batch = _batch(0)
    losses = []
    for step in range(3 * N_STEPS):
        losses.append(_loss(model, batch))
        case.schedule(opt, step)
        opt.step()
    losses.append(_loss(model, batch))
    assert losses[-1] < losses[0], losses


@each_dropback
def test_step_matches_reference_step(case):
    """Plane, tracked mask and churn agree bit for bit after every step,
    also when one run alternates the two paths (they share all state)."""
    updates = {
        "step": lambda opt, step: opt.step(),
        "reference": lambda opt, step: opt.reference_step(),
        "alternating": lambda opt, step: (opt.step if step % 2 else opt.reference_step)(),
    }
    records = {}
    for name, update in updates.items():
        record = []

        def keep(model, opt, step, record=record):
            record.append((model.weight_plane.tobytes(), opt.tracked_mask.tobytes(),
                           list(opt.swap_history), opt.total_swaps))

        _run(case, update=update, after=keep)
        records[name] = record
    assert records["reference"] == records["step"]
    assert records["alternating"] == records["step"]


@each_dropback
def test_untracked_weights_match_init(case):
    """Regeneration is exact: after every step, no untracked weight differs
    from W(0) (or from 0 under ``zero_untracked``)."""
    def check(model, opt, step):
        assert opt.untracked_values_match_init(), f"after step {step}"

    _run(case, after=check)


@each_dropback
def test_sparse_round_trip_and_resume(case, tmp_path):
    path = str(tmp_path / "ckpt.npz")
    model, opt = _run(case)
    save_sparse(model, opt, path)
    assert load_sparse(mlp(6, (8,), 3), path).weight_plane.tobytes() == (
        model.weight_plane.tobytes()
    )
    if case.frozen:
        return  # a resumed run re-selects its tracked set on the first step

    uninterrupted = _trace(case)
    model, opt = _run(case, steps=range(RESUME_AT))
    save_sparse(model, opt, path)
    resumed = _trace(
        case, steps=range(RESUME_AT, N_STEPS), model=load_sparse(mlp(6, (8,), 3), path)
    )
    assert resumed == uninterrupted[RESUME_AT:]


@each_case
def test_step_after_adopt_plane(case):
    """Every step after the plane moves writes the new buffer, with the
    uninterrupted run's bits."""
    expect = _trace(case)
    moved = []

    def adopt(opt, step):
        if step == ADOPT_AT:
            moved.append(opt.model.weight_plane.copy())
            adopt_plane(opt.model, moved[0])
        opt.step()

    def check(model, opt, step):
        if step >= ADOPT_AT:
            assert model.weight_plane is moved[0]
            assert moved[0].tobytes() == expect[step], f"after step {step}"

    _run(case, update=adopt, after=check)
