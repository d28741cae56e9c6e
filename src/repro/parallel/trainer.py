"""Data-parallel training over the shared weight plane.

``ParallelTrainer`` runs ``N`` fork-based worker processes in lockstep over
one global batch per step.  The flat weight plane lives in a
:class:`~repro.parallel.shm.SharedArena`, so the "broadcast" of updated
weights is free (every rank's parameters are views of the same buffer) and
gradient exchange is one write per rank into a preallocated slot.

Determinism contract
--------------------
A global batch of size ``B`` is defined as ``M = B / m`` microbatches of a
fixed size ``m``.  Each microbatch's gradient is the bit-deterministic
forward/backward the sanitizers already pin; microbatches are combined with
the canonical pairwise tree of :mod:`repro.parallel.reduce`.  Rank ``r``
owns the ``r``-th contiguous block of ``M / N`` microbatches and tree-sums
it locally; rank 0 tree-combines the ``N`` partials **in rank order** and
scales once.  Because ``N`` is a power of two dividing ``M``, the combined
tree is exactly the ``N = 1`` tree (see ``reduce.py``), so for a fixed
``(seed, m)``:

* repeated runs at the same worker count are bit-identical, and
* runs at different worker counts (including ``workers=1``) produce
  byte-identical weight planes.

DropBack's accumulated-gradient scoring and top-k selection run **once per
step, on rank 0 only**, after the reduce — the selection sees the global
accumulated gradient, and its commit writes the shared plane that every
rank reads on the next step.

Known limitation (mirrors distributed data parallel elsewhere): BatchNorm
*running* statistics are per-process buffers outside the plane, so they are
rank-local.  Training math is unaffected (train mode normalizes with batch
statistics), but eval-mode inference on a >1-worker run reflects rank 0's
share of the data.  The bit-identity tests therefore use plane-only models.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
import threading
import time
import traceback
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.data import DataLoader, Dataset
from repro.data.transforms import AugmentedLoader
from repro.nn import Module
from repro.optim import Optimizer, Schedule
from repro.parallel.reduce import tree_sum, tree_sum_range, tree_sum_scalars
from repro.parallel.shm import SharedArena, adopt_plane, parallel_supported
from repro.profile import is_enabled, profiled, registry
from repro.tensor import Tensor
from repro.train.callbacks import Callback
from repro.train.trainer import History, Trainer

__all__ = ["ParallelTrainer"]


class _Plan(NamedTuple):
    """One fit's data source and step geometry."""

    loader: DataLoader  # its ``epoch_order`` gives every rank the batch sequence
    transform: Callable | None  # the AugmentedLoader's transform
    aug_seed: int
    m: int  # microbatch size
    n_micro: int  # M = batch_size / m
    q: int  # microbatches per rank, M / N
    steps: int  # per epoch


class ParallelTrainer(Trainer):
    """Train with ``N`` lockstep worker processes sharing the weight plane.

    Drop-in alongside :class:`~repro.train.Trainer`: same constructor
    arguments plus the parallel knobs, same :class:`History`, same callback
    stream (callbacks, validation, scheduling, and the optimizer run on
    rank 0 only, in :class:`~repro.train.Trainer`'s own epoch loop).
    ``fit`` accepts the same ``DataLoader`` (or ``AugmentedLoader``); the
    loader's ``(seed, epoch)``-pure ``epoch_order`` is what lets every rank
    derive the global batch sequence independently.  ``drop_last``
    semantics are forced: a trailing partial batch would change the
    reduction tree shape.

    Parameters
    ----------
    workers:
        Rank count; a power of two (required by the reduction-tree
        alignment argument).  ``1`` is the single-process equivalent the
        cross-worker-count identity tests compare against.
    microbatch:
        Microbatch size ``m``.  Default: ``batch_size // workers``.  Bit
        identity across worker counts requires the *same* ``m``.
    barrier_timeout:
        Seconds a rank waits at a step barrier before declaring the fleet
        wedged.  A rank that raises breaks the barrier at once, but a rank
        that dies without raising (killed, for instance) stalls the others
        for the full timeout.
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
        workers: int = 2,
        microbatch: int | None = None,
        barrier_timeout: float = 120.0,
    ):
        super().__init__(
            model,
            optimizer,
            loss_fn=loss_fn,
            schedule=schedule,
            callbacks=callbacks,
            patience=patience,
            stop_on_divergence=stop_on_divergence,
            sanitize=sanitize,
        )
        workers = int(workers)
        if workers < 1 or workers & (workers - 1):
            raise ValueError(
                f"workers must be a power of two >= 1 (tree alignment), got {workers}"
            )
        if microbatch is not None and microbatch < 1:
            raise ValueError(f"microbatch must be positive, got {microbatch}")
        self.workers = workers
        self.microbatch = None if microbatch is None else int(microbatch)
        self.barrier_timeout = float(barrier_timeout)
        # Per-rank (compute, barrier-wait) seconds, filled after fit().
        self.rank_compute_seconds: list[float] = []
        self.rank_wait_seconds: list[float] = []
        self._plan: _Plan | None = None
        self._arena: SharedArena | None = None
        self._barrier = None
        self._fence = None

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    def _make_plan(self, train_loader) -> _Plan:
        """Unpack the loader and validate the step geometry."""
        transform = None
        aug_seed = 0
        loader = train_loader
        if isinstance(loader, AugmentedLoader):
            transform = loader.transform
            aug_seed = loader.seed
            loader = loader.loader
        if not isinstance(loader, DataLoader):
            raise TypeError(
                "ParallelTrainer.fit needs a DataLoader (or AugmentedLoader "
                f"over one), got {type(train_loader).__name__}"
            )
        ds = loader.dataset
        if ds.images.dtype != np.float32:
            raise TypeError(
                f"dataset {ds.name!r} images are {ds.images.dtype}; "
                "the model boundary is float32"
            )
        batch_size = loader.batch_size
        m = self.microbatch if self.microbatch is not None else batch_size // self.workers
        if m < 1:
            raise ValueError(
                f"batch_size {batch_size} too small for {self.workers} workers; "
                "pass an explicit microbatch"
            )
        if batch_size % m:
            raise ValueError(f"batch_size {batch_size} not divisible by microbatch {m}")
        n_micro = batch_size // m
        if n_micro % self.workers:
            raise ValueError(
                f"microbatch count {n_micro} not divisible by {self.workers} workers"
            )
        steps = len(ds) // batch_size
        if steps < 1:
            raise ValueError(
                f"dataset ({len(ds)} examples) smaller than one global batch "
                f"({batch_size})"
            )
        return _Plan(loader, transform, aug_seed, m, n_micro, n_micro // self.workers, steps)

    # ------------------------------------------------------------------ #
    # per-rank work
    # ------------------------------------------------------------------ #

    def _microbatch(self, order, epoch: int, step: int, g: int):
        """Global microbatch ``g`` of ``step`` as ``(x, y)``.

        Augmentation draws come from a generator seeded purely by
        ``(aug_seed, epoch, step, g)``, so they are independent of worker
        count.
        """
        plan = self._plan
        ds = plan.loader.dataset
        start = (step * plan.n_micro + g) * plan.m
        idx = order[start : start + plan.m]
        x = ds.images[idx]
        if plan.transform is not None:
            x = plan.transform(x, np.random.default_rng((plan.aug_seed, epoch, step, g)))
        return x, ds.labels[idx]

    def _write_partial(self, rank: int, order, epoch: int, step: int) -> None:
        """Tree-sum this rank's ``q`` microbatch gradients into its slot.

        Each leaf reads its microbatch when the tree needs it, so data
        fetch is part of the step.  A leaf is a copy of the gradient plane
        after its backward (zeros where a parameter got no gradient).
        """
        plan = self._plan
        arena = self._arena
        losses: list[float] = []

        def leaf(j: int) -> np.ndarray:
            x, y = self._microbatch(order, epoch, step, rank * plan.q + j)
            self.model.zero_grad()
            logits = self.model(Tensor(x))
            loss = self.loss_fn(logits, y)
            loss.backward()
            losses.append(loss.item())
            return self.model.grad_plane.copy()

        tree_sum_range(plan.q, leaf, out=arena.grads[rank])
        arena.losses[rank] = tree_sum_scalars(losses)

    def _make_fence(self, rank: int):
        """The per-rank arena write-fence, or ``None`` outside sanitize mode.

        The fence CRC-stamps this rank's SharedArena data regions at the
        two barrier transitions of every step (runtime mirror of static
        rule RPA011); see :class:`repro.analyze.sanitize.ArenaWriteFence`.
        """
        if not self.sanitize:
            return None
        from repro.analyze.sanitize import ArenaWriteFence

        return ArenaWriteFence(self._arena, rank)

    def _sync(self, rank: int) -> None:
        """Barrier with wait-time accounting and crash propagation."""
        t0 = time.perf_counter()
        try:
            self._barrier.wait(self.barrier_timeout)
        except threading.BrokenBarrierError:
            detail = (
                "a worker reported an error"
                if self._arena.flag(SharedArena.CTRL_ABORT)
                else "a worker crashed or timed out"
            )
            raise RuntimeError(f"data-parallel barrier broke: {detail}") from None
        self._arena.timers[rank, 1] += time.perf_counter() - t0

    def _abort(self) -> None:
        """Flag the failure and break the barrier so no rank waits it out."""
        self._arena.set_flag(SharedArena.CTRL_ABORT)
        try:
            self._barrier.abort()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # child process
    # ------------------------------------------------------------------ #

    def _child_main(self, rank: int, epochs: int) -> None:  # pragma: no cover - forked child
        arena = self._arena
        fence = self._make_fence(rank)
        rc = 0
        try:
            self.model.train()
            for epoch in range(epochs):
                order = self._plan.loader.epoch_order(epoch)
                for step in range(self._plan.steps):
                    t0 = time.perf_counter()
                    self._write_partial(rank, order, epoch, step)
                    arena.timers[rank, 0] += time.perf_counter() - t0
                    if fence is not None:
                        fence.seal_compute()
                    self._sync(rank)  # grads ready
                    self._sync(rank)  # weights + control updated
                    if fence is not None:
                        fence.open_compute()
                    if arena.flag(SharedArena.CTRL_STOP):
                        break
                self._sync(rank)  # epoch boundary (rank 0 validates)
                if arena.flag(SharedArena.CTRL_STOP):
                    break
        except BaseException:
            self._abort()
            traceback.print_exc()
            rc = 1
        finally:
            sys.stderr.flush()
        # Exit without Python-level cleanup: the child's parameters still
        # view the shared plane, so closing the mapping here (or letting
        # SharedMemory.__del__ try) would just raise BufferError noise —
        # the kernel unmaps at process exit, and rank 0 owns the unlink.
        # os._exit also skips inherited atexit machinery (profiler
        # emitters, resource trackers) the child does not own.
        os._exit(rc)

    # ------------------------------------------------------------------ #
    # rank 0: the parts of Trainer's loop that differ
    # ------------------------------------------------------------------ #

    def fit(
        self,
        train_loader: DataLoader,
        val_data: Dataset | DataLoader,
        epochs: int,
        verbose: bool = False,
    ) -> History:
        """Train for up to ``epochs`` epochs across ``self.workers`` ranks.

        The platform, loader and step geometry are checked before any
        callback runs.
        """
        if not parallel_supported():
            raise RuntimeError(
                "ParallelTrainer requires the 'fork' start method "
                "(POSIX); use Trainer on this platform"
            )
        self._plan = self._make_plan(train_loader)
        if self.model.weight_plane is None:
            raise RuntimeError("model must be finalized before training")
        return super().fit(train_loader, val_data, epochs, verbose)

    @contextlib.contextmanager
    def _session(self, epochs: int):
        """Put the plane in a SharedArena and fork ranks ``1..N-1`` around the loop."""
        ctx = multiprocessing.get_context("fork")
        arena = SharedArena(self.model.weight_plane.size, self.workers)
        self._arena = arena
        self._barrier = ctx.Barrier(self.workers)
        procs: list = []
        failed = False
        try:
            # Move the plane into the arena *before* forking so children
            # inherit parameters that already view shared memory.
            adopt_plane(self.model, arena.plane)
            for rank in range(1, self.workers):
                proc = ctx.Process(target=self._child_main, args=(rank, epochs), daemon=True)
                proc.start()
                procs.append(proc)
            self._fence = self._make_fence(0)
            yield
        except BaseException:
            failed = True
            self._abort()
            raise
        finally:
            self._teardown(procs, raising=failed)

    def _train_epoch(self, train_loader, epoch: int) -> list[float]:
        """Rank 0's lockstep steps for one epoch; returns their losses."""
        plan = self._plan
        arena = self._arena
        fence = self._fence
        order = plan.loader.epoch_order(epoch)
        losses: list[float] = []
        for step in range(plan.steps):
            t0 = time.perf_counter()
            with profiled("parallel.compute"):
                self._write_partial(0, order, epoch, step)
            arena.timers[0, 0] += time.perf_counter() - t0
            if fence is not None:
                fence.seal_compute()
            self._sync(0)  # all partials written
            if arena.flag(SharedArena.CTRL_ABORT):
                raise RuntimeError("a data-parallel worker failed")

            # Rank-ordered deterministic reduce into the gradient plane,
            # then one optimizer step — DropBack's selection runs exactly
            # here, once, against the global gradient; its plane commit is
            # the broadcast.  A parameter no microbatch reaches keeps
            # p.grad None, and its span sums to zeros on every rank.
            with profiled("parallel.reduce"):
                grads = self.model.grad_plane
                tree_sum(list(arena.grads), out=grads)
                np.divide(grads, np.float32(plan.n_micro), out=grads)
            losses.append(tree_sum_scalars(arena.losses) / plan.n_micro)
            if not self._finish_step(losses[-1]):
                arena.set_flag(SharedArena.CTRL_DIVERGED)
                arena.set_flag(SharedArena.CTRL_STOP)
            self._sync(0)  # release workers into the next step
            if fence is not None:
                fence.open_compute()
            if arena.flag(SharedArena.CTRL_STOP):
                break
        return losses

    def _end_epoch(self, stop: bool) -> None:
        if stop:
            self._arena.set_flag(SharedArena.CTRL_STOP)
        self._sync(0)  # epoch boundary: workers read the verdict

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    def _teardown(self, procs, raising: bool) -> None:
        arena = self._arena
        child_error = False
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                child_error = True
            elif proc.exitcode:
                child_error = True

        self.rank_compute_seconds = [float(s) for s in arena.timers[:, 0]]
        self.rank_wait_seconds = [float(s) for s in arena.timers[:, 1]]
        if is_enabled():
            for rank in range(self.workers):
                registry.record(
                    f"parallel.rank{rank}.compute", self.rank_compute_seconds[rank]
                )
                registry.record(
                    f"parallel.rank{rank}.wait", self.rank_wait_seconds[rank]
                )

        # Re-home the plane onto private memory before the arena unmaps, so
        # the model (and any further single-process use of it) stays valid.
        restored = np.empty(arena.plane_size, dtype=np.float32)
        adopt_plane(self.model, restored)
        arena.destroy()
        self._arena = None
        self._barrier = None
        self._fence = None

        if child_error and not raising:
            raise RuntimeError(
                "a data-parallel worker exited abnormally (see stderr above)"
            )
