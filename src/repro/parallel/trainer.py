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

import multiprocessing
import os
import sys
import threading
import time
import traceback

import numpy as np

from repro.data import DataLoader, Dataset
from repro.data.transforms import AugmentedLoader
from repro.nn import Module
from repro.optim import Optimizer, Schedule
from repro.parallel.pipeline import PrefetchLoader
from repro.parallel.reduce import tree_sum, tree_sum_range, tree_sum_scalars
from repro.parallel.shm import SharedArena, adopt_plane, parallel_supported
from repro.profile import is_enabled, profiled, registry
from repro.tensor import Tensor
from repro.train.callbacks import Callback
from repro.train.metrics import evaluate
from repro.train.trainer import History, Trainer

__all__ = ["ParallelTrainer"]


class ParallelTrainer(Trainer):
    """Train with ``N`` lockstep worker processes sharing the weight plane.

    Drop-in alongside :class:`~repro.train.Trainer`: same constructor
    arguments plus the parallel knobs, same :class:`History`, same callback
    stream (callbacks, validation, scheduling, and the optimizer run on
    rank 0 only).  ``fit`` accepts the same ``DataLoader`` (or
    ``AugmentedLoader``); the loader's ``(seed, epoch)``-pure
    ``epoch_order`` is what lets every rank derive the global batch
    sequence independently.  ``drop_last`` semantics are forced: a trailing
    partial batch would change the reduction tree shape.

    Parameters
    ----------
    workers:
        Rank count; a power of two (required by the reduction-tree
        alignment argument).  ``1`` is the single-process equivalent the
        cross-worker-count identity tests compare against.
    microbatch:
        Microbatch size ``m``.  Default: ``batch_size // workers``.  Bit
        identity across worker counts requires the *same* ``m``.
    prefetch:
        Per-rank input-pipeline depth (microbatches prepared ahead on a
        background thread; 2 = double buffering).  ``0`` disables
        prefetching; contents are identical either way.
    barrier_timeout:
        Seconds a rank waits at a step barrier before declaring the fleet
        wedged (a crashed peer breaks the barrier immediately).
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
        prefetch: int = 2,
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
        if prefetch < 0:
            raise ValueError(f"prefetch must be >= 0, got {prefetch}")
        self.workers = workers
        self.microbatch = None if microbatch is None else int(microbatch)
        self.prefetch = int(prefetch)
        self.barrier_timeout = float(barrier_timeout)
        # Per-rank (compute, barrier-wait) seconds, filled after fit().
        self.rank_compute_seconds: list[float] = []
        self.rank_wait_seconds: list[float] = []
        self._arena: SharedArena | None = None
        self._barrier = None
        self._reduced: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    def _resolve_spec(self, train_loader):
        """Unpack the loader into (dataset, B, shuffle, seed, transform, aug_seed)."""
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
        return loader, ds, loader.batch_size, transform, aug_seed

    def _geometry(self, batch_size: int, n_examples: int) -> tuple[int, int, int, int]:
        """Validate and return ``(m, M, q, steps_per_epoch)``."""
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
        steps = n_examples // batch_size
        if steps < 1:
            raise ValueError(
                f"dataset ({n_examples} examples) smaller than one global batch "
                f"({batch_size})"
            )
        return m, n_micro, n_micro // self.workers, steps

    # ------------------------------------------------------------------ #
    # per-rank work
    # ------------------------------------------------------------------ #

    def _microbatch_stream(
        self, rank, epoch, order, steps, batch_size, m, q, ds, transform, aug_seed
    ):
        """Yield this rank's ``(x, y)`` microbatches for one epoch, in order.

        Augmentation draws come from a generator seeded purely by
        ``(aug_seed, epoch, step, global microbatch index)``, so they are
        independent of worker count and of prefetch timing.
        """
        for step in range(steps):
            base = step * batch_size
            for j in range(q):
                g = rank * q + j  # global microbatch index within the batch
                idx = order[base + g * m : base + (g + 1) * m]
                x = ds.images[idx]
                y = ds.labels[idx]
                if transform is not None:
                    rng = np.random.default_rng((aug_seed, epoch, step, g))
                    x = transform(x, rng)
                yield x, y

    def _open_stream(self, *args):
        """The (optionally prefetching) microbatch iterator for one epoch."""
        stream = self._microbatch_stream(*args)
        if self.prefetch > 0:
            return iter(PrefetchLoader(stream, depth=self.prefetch))
        return stream

    def _write_partial(self, rank: int, stream, q: int, arena: SharedArena) -> None:
        """Tree-sum this rank's ``q`` microbatch gradients into its slot."""
        plane_size = arena.plane_size
        losses: list[float] = []

        def leaf(_i: int) -> np.ndarray:
            x, y = next(stream)
            self.model.zero_grad()
            logits = self.model(Tensor(x))
            loss = self.loss_fn(logits, y)
            loss.backward()
            losses.append(loss.item())
            flat = np.zeros(plane_size, dtype=np.float32)
            for p in self.model.parameters():
                if p.grad is not None:
                    seg = flat[p.base_index : p.base_index + p.size]
                    np.copyto(seg.reshape(p.shape), p.grad)
            return flat

        tree_sum_range(q, leaf, out=arena.grads[rank])
        arena.losses[rank] = tree_sum_scalars(losses)

    def _make_fence(self, arena: SharedArena, rank: int):
        """The per-rank arena write-fence, or ``None`` outside sanitize mode.

        The fence CRC-stamps this rank's SharedArena data regions at the
        two barrier transitions of every step (runtime mirror of static
        rule RPA011); see :class:`repro.analyze.sanitize.ArenaWriteFence`.
        """
        if not self.sanitize:
            return None
        from repro.analyze.sanitize import ArenaWriteFence

        return ArenaWriteFence(arena, rank)

    def _sync(self, rank: int, arena: SharedArena) -> None:
        """Barrier with wait-time accounting and crash propagation."""
        t0 = time.perf_counter()
        try:
            self._barrier.wait(self.barrier_timeout)
        except threading.BrokenBarrierError:
            detail = (
                "a worker reported an error"
                if arena.flag(SharedArena.CTRL_ABORT)
                else "a worker crashed or timed out"
            )
            raise RuntimeError(f"data-parallel barrier broke: {detail}") from None
        arena.timers[rank, 1] += time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    # child process
    # ------------------------------------------------------------------ #

    def _child_main(
        self, rank, loader, epochs, steps, batch_size, m, q, ds, transform, aug_seed
    ):  # pragma: no cover - runs in a forked child
        arena = self._arena
        fence = self._make_fence(arena, rank)
        rc = 0
        try:
            self.model.train()
            for epoch in range(epochs):
                order = loader.epoch_order(epoch)
                stream = self._open_stream(
                    rank, epoch, order, steps, batch_size, m, q, ds, transform, aug_seed
                )
                try:
                    for _step in range(steps):
                        t0 = time.perf_counter()
                        self._write_partial(rank, stream, q, arena)
                        arena.timers[rank, 0] += time.perf_counter() - t0
                        if fence is not None:
                            fence.seal_compute()
                        self._sync(rank, arena)  # grads ready
                        self._sync(rank, arena)  # weights + control updated
                        if fence is not None:
                            fence.open_compute()
                        if arena.flag(SharedArena.CTRL_STOP):
                            break
                finally:
                    if hasattr(stream, "close"):
                        stream.close()
                self._sync(rank, arena)  # epoch boundary (rank 0 validates)
                if arena.flag(SharedArena.CTRL_STOP):
                    break
        except BaseException:
            arena.set_flag(SharedArena.CTRL_ABORT)
            try:
                self._barrier.abort()
            except Exception:
                pass
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
    # rank 0
    # ------------------------------------------------------------------ #

    def fit(
        self,
        train_loader: DataLoader,
        val_data: Dataset | DataLoader,
        epochs: int,
        verbose: bool = False,
    ) -> History:
        """Train for up to ``epochs`` epochs across ``self.workers`` ranks."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if not parallel_supported():
            raise RuntimeError(
                "ParallelTrainer requires the 'fork' start method "
                "(POSIX); use Trainer on this platform"
            )
        loader, ds, batch_size, transform, aug_seed = self._resolve_spec(train_loader)
        m, n_micro, q, steps = self._geometry(batch_size, len(ds))
        plane = self.model.weight_plane
        if plane is None:
            raise RuntimeError("model must be finalized before training")

        for cb in self.callbacks:
            cb.on_train_begin(self)

        ctx = multiprocessing.get_context("fork")
        arena = SharedArena(plane.size, self.workers)
        self._arena = arena
        self._barrier = ctx.Barrier(self.workers)
        self._reduced = np.empty(arena.plane_size, dtype=np.float32)
        procs: list = []
        failed: Exception | None = None
        try:
            # Move the plane into the arena *before* forking so children
            # inherit parameters that already view shared memory, then
            # let the optimizer rebuild what keys on the old views.
            adopt_plane(self.model, arena.plane)
            self.optimizer.rebind_plane()

            for rank in range(1, self.workers):
                proc = ctx.Process(
                    target=self._child_main,
                    args=(rank, loader, epochs, steps, batch_size, m, q, ds,
                          transform, aug_seed),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)

            self._rank0_loop(
                loader, val_data, epochs, steps, batch_size, m, n_micro, q, ds,
                transform, aug_seed, arena, verbose,
            )
        except BaseException as exc:
            failed = exc
            arena.set_flag(SharedArena.CTRL_ABORT)
            try:
                self._barrier.abort()
            except Exception:
                pass
            raise
        finally:
            self._teardown(arena, procs, raising=failed is not None)

        for cb in self.callbacks:
            cb.on_train_end(self)
        return self.history

    def _rank0_loop(
        self, loader, val_data, epochs, steps, batch_size, m, n_micro, q, ds,
        transform, aug_seed, arena, verbose,
    ) -> None:
        epochs_since_best = 0
        scale = np.float32(n_micro)
        fence = self._make_fence(arena, 0)
        for epoch in range(epochs):
            epoch_start = time.perf_counter()
            if self.schedule is not None:
                self.optimizer.lr = self.schedule(epoch)
            for cb in self.callbacks:
                cb.on_epoch_begin(self, epoch)

            self.model.train()
            order = loader.epoch_order(epoch)
            stream = self._open_stream(
                0, epoch, order, steps, batch_size, m, q, ds, transform, aug_seed
            )
            losses: list[float] = []
            try:
                for _step in range(steps):
                    t0 = time.perf_counter()
                    with profiled("parallel.compute"):
                        self._write_partial(0, stream, q, arena)
                    arena.timers[0, 0] += time.perf_counter() - t0
                    if fence is not None:
                        fence.seal_compute()
                    self._sync(0, arena)  # all partials written
                    if arena.flag(SharedArena.CTRL_ABORT):
                        raise RuntimeError("a data-parallel worker failed")

                    # Rank-ordered deterministic reduce, then one optimizer
                    # step — DropBack's selection runs exactly here, once,
                    # against the global gradient; its plane commit is the
                    # broadcast.
                    with profiled("parallel.reduce"):
                        tree_sum(list(arena.grads), out=self._reduced)
                        np.divide(self._reduced, scale, out=self._reduced)
                    self.optimizer.load_flat_grad(self._reduced)
                    for cb in self.callbacks:
                        cb.on_backward_end(self, self.global_step)
                    with profiled("trainer.optimizer_step"):
                        self.optimizer.step()

                    loss_val = tree_sum_scalars(arena.losses) / n_micro
                    losses.append(loss_val)
                    if self.stop_on_divergence and not np.isfinite(loss_val):
                        self.history.diverged = True
                        arena.set_flag(SharedArena.CTRL_DIVERGED)
                        arena.set_flag(SharedArena.CTRL_STOP)
                    else:
                        for cb in self.callbacks:
                            cb.on_step_end(self, self.global_step, loss_val)
                        self.global_step += 1
                    self._sync(0, arena)  # release workers into the next step
                    if fence is not None:
                        fence.open_compute()
                    if arena.flag(SharedArena.CTRL_STOP):
                        break
            finally:
                if hasattr(stream, "close"):
                    stream.close()

            if not self.history.diverged:
                with profiled("trainer.evaluate"):
                    val_acc = evaluate(self.model, val_data)
                logs: dict = {
                    "epoch": epoch,
                    "train_loss": float(np.mean(losses)) if losses else float("nan"),
                    "val_accuracy": val_acc,
                    "lr": self.optimizer.lr,
                }
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
                        f"val_acc {val_acc:.4f}  lr {self.optimizer.lr:.4f}  "
                        f"workers {self.workers}"
                    )

                if self.patience is not None and epochs_since_best >= self.patience:
                    self.history.stopped_early = True
                    arena.set_flag(SharedArena.CTRL_STOP)
                if epoch == epochs - 1:
                    arena.set_flag(SharedArena.CTRL_STOP)

            self._sync(0, arena)  # epoch boundary: workers read the verdict
            if arena.flag(SharedArena.CTRL_STOP):
                break

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    def _teardown(self, arena: SharedArena, procs, raising: bool) -> None:
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
        self.optimizer.rebind_plane()
        arena.destroy()
        self._arena = None
        self._barrier = None
        self._reduced = None

        if child_error and not raising:
            raise RuntimeError(
                "a data-parallel worker exited abnormally (see stderr above)"
            )
