"""Shared-memory arena for data-parallel training.

The flat weight plane (``Module.finalize``) makes a worker's entire model a
single contiguous float32 buffer, so data parallelism needs exactly one
shared mapping: this module allocates a single
:class:`multiprocessing.shared_memory.SharedMemory` segment and partitions
it into the training-time buffers every rank needs —

========  =======================  ==========================================
region    dtype/shape              role
========  =======================  ==========================================
plane     float32 ``[P]``          the weight plane itself (rank 0 writes,
                                   all ranks read — the "broadcast")
grads     float32 ``[N, P]``       per-rank partial gradient sums
losses    float64 ``[N]``          per-rank partial loss sums
timers    float64 ``[N, 2]``       per-rank (compute, barrier-wait) seconds
control   int64 ``[4]``            stop / diverged / abort flags
========  =======================  ==========================================

Process model: the arena is created by rank 0 *before* forking, so children
inherit the mapping (and the open file descriptor) directly — no attach-by-
name, which keeps :mod:`multiprocessing.resource_tracker` from double-
registering the segment.  Rank 0 owns the lifecycle: :func:`adopt_plane`
moves the model's weight plane into the arena before the fork and back onto
a private heap buffer before :meth:`destroy` unmaps it.

Write discipline: ``plane``, ``grads`` and ``losses`` are *data* regions
with a barrier-phased ownership protocol — within a step, each rank writes
only its own ``grads``/``losses`` slots during the compute phase, and only
rank 0 writes ``plane`` during the update phase.  ``timers``/``control``
are monitoring regions outside the protocol.  Static rule RPA011 checks
that every data-region write is fenced by a barrier, and
:class:`repro.analyze.sanitize.ArenaWriteFence` enforces the same phases
at runtime under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import multiprocessing
import sys
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArena", "adopt_plane", "parallel_supported"]


def parallel_supported() -> bool:
    """Whether the platform supports the fork-based parallel trainer.

    Children must inherit the arena mapping, the barrier, and the (closured)
    trainer state without pickling, so the ``fork`` start method is
    required — available on POSIX, not on Windows.
    """
    if sys.platform == "win32":
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


class SharedArena:
    """One shared segment holding every cross-rank buffer (see module docs).

    Parameters
    ----------
    plane_size:
        Number of float32 elements in the model's weight plane.
    workers:
        Rank count ``N``; sizes the gradient/loss/timer regions.
    """

    # control-word indices
    CTRL_STOP = 0       # training is over (epochs done / early stop / divergence)
    CTRL_DIVERGED = 1   # loss went NaN/inf on rank 0
    CTRL_ABORT = 2      # some rank hit an exception; everyone bail out
    _CTRL_SLOTS = 4

    def __init__(self, plane_size: int, workers: int):
        if plane_size <= 0:
            raise ValueError(f"plane_size must be positive, got {plane_size}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.plane_size = int(plane_size)
        self.workers = int(workers)

        off = 0
        self._plane_off = off
        off = _align8(off + 4 * self.plane_size)
        self._grads_off = off
        off = _align8(off + 4 * self.workers * self.plane_size)
        self._losses_off = off
        off += 8 * self.workers
        self._timers_off = off
        off += 8 * self.workers * 2
        self._control_off = off
        off += 8 * self._CTRL_SLOTS

        self.shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=off
        )
        self._map_views()
        self.control[:] = 0

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def _region(self, offset: int, dtype, count: int) -> np.ndarray:
        return np.frombuffer(self.shm.buf, dtype=dtype, count=count, offset=offset)

    def _map_views(self) -> None:
        n, p = self.workers, self.plane_size
        self.plane = self._region(self._plane_off, np.float32, p)
        self.grads = self._region(self._grads_off, np.float32, n * p).reshape(n, p)
        self.losses = self._region(self._losses_off, np.float64, n)
        self.timers = self._region(self._timers_off, np.float64, n * 2).reshape(n, 2)
        self.control = self._region(self._control_off, np.int64, self._CTRL_SLOTS)

    def _drop_views(self) -> None:
        self.plane = self.grads = self.losses = self.timers = self.control = None

    # ------------------------------------------------------------------ #
    # flags
    # ------------------------------------------------------------------ #

    def set_flag(self, idx: int, value: bool = True) -> None:
        self.control[idx] = 1 if value else 0

    def flag(self, idx: int) -> bool:
        return bool(self.control[idx])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _close(self) -> None:
        """Unmap, tolerating exported views that outlive the arena.

        ``SharedMemory.close`` refuses to unmap while ndarray views exist;
        after :func:`adopt_plane` has moved the model off the arena only our
        own region views remain, but a caller-held reference (a debugger, a
        stray callback) must degrade to "freed at process exit", not crash
        training teardown.
        """
        self._drop_views()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - depends on caller refs
            pass

    def destroy(self) -> None:
        """Owner-side teardown: unmap and remove the segment (rank 0 only)."""
        if self.shm is None:
            return
        self._close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass
        self.shm = None

    def child_close(self) -> None:
        """Child-side teardown: unmap only; the segment belongs to rank 0."""
        if self.shm is None:
            return
        self._close()
        self.shm = None


def adopt_plane(model, plane: np.ndarray) -> None:
    """Re-home a finalized model's weight plane onto ``plane`` (values kept).

    Every parameter is re-attached as a zero-copy view at its existing
    ``base_index`` offset, exactly mirroring ``Module.finalize``'s layout —
    so ``repro.analyze.sanitize.check_plane_integrity`` holds on the new
    buffer.  Optimizers read ``model.weight_plane`` and the parameter
    views on every step, so they follow the move with no further call.

    Used in both directions: onto the shared arena before forking workers,
    and back onto a private heap buffer before the arena is unmapped.
    """
    if not model.is_finalized:
        raise RuntimeError("model must be finalized before adopting a plane")
    params = model.parameters()
    total = sum(p.size for p in params)
    if plane.dtype != np.float32 or plane.ndim != 1 or plane.size != total:
        raise ValueError(
            f"plane must be float32[{total}], got {plane.dtype}{list(plane.shape)}"
        )
    for p in params:
        view = plane[p.base_index : p.base_index + p.size].reshape(p.shape)
        # _attach_plane copies the parameter's current values into the view.
        p._attach_plane(view)
    model._plane = plane
