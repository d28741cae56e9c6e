"""Refcount-guarded workspace pool shared by the tensor kernels.

The col2im scatter-add — and the pooling forward/backward staging buffers,
im2col patch buffers, and GEMM outputs in the ``fast`` backend — need a
large temporary every call; for a conv net that is one allocation per layer
per step.  The buffers are reused via a per-(shape, dtype) pool, which
grows to the most buffers of one key held at once (a key's buffers are
allocated in the first step, and later steps find them free again).

Reuse is only safe once no other array still aliases the buffer (the
returned gradient or forward output is the buffer itself, or an interior
view when pad > 0), so a buffer is handed out again only when its CPython
refcount shows no outstanding holders.  Buffers held by a backward closure
for a whole step are therefore skipped during that step and *reacquired on
the next one* — this is what makes im2col workspaces persistent across
training iterations.  Hits/misses are observable via the profiler counters
``conv.workspace_hits`` / ``conv.workspace_misses``.

Sanitizer mode (``REPRO_SANITIZE=1``) NaN-poisons free buffers between
steps via :func:`poison_free_workspaces`; a stale holder writing into one
is caught at the next acquire (:class:`WorkspaceUseAfterReleaseError`), and
a stale reader sees NaN instead of another op's data.  Kernels that fully
overwrite their buffer may pass ``zero=False`` to skip the clearing pass —
the poison pattern is then erased by the kernel's own writes, and any
region the kernel *fails* to write stays NaN and trips the gradient
tripwire downstream.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.profile import add_counter

__all__ = [
    "acquire_workspace",
    "clear_workspace_cache",
    "poison_free_workspaces",
    "WorkspaceUseAfterReleaseError",
]

_WORKSPACE_LOCK = threading.Lock()
_WORKSPACE: dict[tuple, list[np.ndarray]] = {}
# ids of free buffers that the sanitizer has NaN-filled; consulted (and
# verified) the next time the pool hands the buffer out.
_POISONED: set[int] = set()


class WorkspaceUseAfterReleaseError(RuntimeError):
    """A released (poisoned) pool buffer was written before reacquisition.

    Raised only in sanitizer mode: :func:`poison_free_workspaces` NaN-fills
    every free buffer, so a stale holder *writing* into one is caught here
    at the next acquire, and a stale *reader* sees NaN instead of silently
    reading whatever gradient reused the memory.
    """


def clear_workspace_cache() -> None:
    """Drop all cached workspaces (tests / memory pressure)."""
    with _WORKSPACE_LOCK:
        _WORKSPACE.clear()
        _POISONED.clear()


def poison_free_workspaces() -> int:
    """NaN-fill every currently-free pooled buffer (sanitizer mode).

    Returns the number of buffers poisoned.  Safe to call at any step
    boundary: only buffers whose refcount shows no outstanding holder are
    touched, and the pool re-zeroes (or fully overwrites, for
    ``zero=False`` acquisitions) buffers on reuse anyway, so numerics are
    unchanged.  Observable via ``conv.workspace_poisoned``.
    """
    n = 0
    with _WORKSPACE_LOCK:
        for pool in _WORKSPACE.values():
            for buf in pool:
                # Same accounting as acquire_workspace: pool entry + loop
                # variable + getrefcount argument == 3 refs when free.
                if sys.getrefcount(buf) == 3 and np.issubdtype(buf.dtype, np.floating):
                    buf.fill(np.nan)
                    _POISONED.add(id(buf))
                    n += 1
    if n:
        add_counter("conv.workspace_poisoned", n)
    return n


def _check_poison(buf: np.ndarray) -> None:
    """Verify a poisoned buffer is still all-NaN before handing it out."""
    _POISONED.discard(id(buf))
    if not np.isnan(buf).all():
        raise WorkspaceUseAfterReleaseError(
            f"pool buffer {buf.shape}/{buf.dtype} was written after release "
            "(poison pattern overwritten); some op holds a stale workspace "
            "reference past its backward pass"
        )


def acquire_workspace(shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
    """An array of ``shape``/``dtype``, reused across calls once free.

    Parameters
    ----------
    shape, dtype:
        Requested buffer geometry (the pool key).
    zero:
        When True (default) the buffer is zero-filled before being handed
        out — required for scatter-add targets.  Kernels that overwrite
        every element (im2col, pooling candidate staging, GEMM ``out=``)
        pass False to skip the clearing pass; they then own full coverage
        of the buffer.
    """
    key = (shape, np.dtype(dtype).str)
    with _WORKSPACE_LOCK:
        pool = _WORKSPACE.setdefault(key, [])
        for buf in pool:
            # pool entry + loop variable + getrefcount argument == 3 refs
            # exactly when no caller (gradient array, view) holds it.
            if sys.getrefcount(buf) == 3:
                if id(buf) in _POISONED:
                    _check_poison(buf)
                if zero:
                    buf.fill(0)
                add_counter("conv.workspace_hits")
                return buf
        buf = np.zeros(shape, dtype=dtype)
        pool.append(buf)
        add_counter("conv.workspace_misses")
        return buf
