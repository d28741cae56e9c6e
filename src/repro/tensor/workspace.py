"""Refcount-guarded workspace pool shared by the tensor kernels.

The col2im scatter-add — and the pooling forward/backward staging buffers,
im2col patch buffers, and GEMM outputs in the ``fast`` backend — need a
large temporary every call; for a conv net that is one allocation per layer
per step.  The pool keeps raw byte buffers sorted by capacity.  A request
for ``shape``/``dtype`` takes the smallest free buffer that holds its bytes
(else a new one of exactly that size) and gets a C-contiguous view of the
buffer's first bytes, so one buffer serves any shape and dtype in turn: a
training step at batch 32 and an evaluation at batch 64 share buffers
instead of each keeping its own, and the pool holds about the most bytes
that are busy at once.  A step's requests find, after the first step, the
same buffers free again, so later steps allocate nothing.

Reuse is only safe once no other array still aliases the buffer (the
returned gradient or forward output is a view of it, or an interior view
when pad > 0), so a buffer is handed out again only when its CPython
refcount shows no outstanding holders; every numpy view of a view refers
to the buffer itself, so one live view keeps it busy.  Buffers held by a
backward closure for a whole step are therefore skipped during that step
and *reacquired on the next one* — which is why the trainer drops each
step's graph before the next forward.  Hits/misses are observable via the
profiler counters ``conv.workspace_hits`` / ``conv.workspace_misses``, and
:func:`workspace_bytes` reports the bytes held and busy.

Sanitizer mode (``REPRO_SANITIZE=1``) poisons free buffers between steps
via :func:`poison_free_workspaces`: every byte is set to ``0xFF``, which
every float dtype reads as NaN, whatever dtype the buffer last served.  A
stale holder writing into one is caught at the next acquire
(:class:`WorkspaceUseAfterReleaseError`), and a stale reader sees NaN
instead of another op's data.  Kernels that fully overwrite their buffer
may pass ``zero=False`` to skip the clearing pass — the poison pattern is
then erased by the kernel's own writes, and any region the kernel *fails*
to write stays NaN and trips the gradient tripwire downstream.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left, bisect_right

import numpy as np

from repro.profile import add_counter

__all__ = [
    "acquire_workspace",
    "clear_workspace_cache",
    "poison_free_workspaces",
    "workspace_bytes",
    "WorkspaceUseAfterReleaseError",
]

_WORKSPACE_LOCK = threading.Lock()
# uint8 buffers in ascending capacity, and their capacities (kept in step,
# so a bisect finds the first buffer that fits and the first free one from
# there is the best fit).
_WORKSPACE: list[np.ndarray] = []
_CAPACITY: list[int] = []
# ids of free buffers that the sanitizer has poisoned; consulted (and
# verified) the next time the pool hands the buffer out.
_POISONED: set[int] = set()
#: The sanitizer's fill byte: all-ones bit patterns are NaN in every float dtype.
POISON_BYTE = 0xFF


class WorkspaceUseAfterReleaseError(RuntimeError):
    """A released (poisoned) pool buffer was written before reacquisition.

    Raised only in sanitizer mode: :func:`poison_free_workspaces` fills
    every free buffer with NaN bytes, so a stale holder *writing* into one
    is caught here at the next acquire, and a stale *reader* sees NaN
    instead of silently reading whatever gradient reused the memory.
    """


def clear_workspace_cache() -> None:
    """Drop all cached workspaces (tests / memory pressure)."""
    with _WORKSPACE_LOCK:
        _WORKSPACE.clear()
        _CAPACITY.clear()
        _POISONED.clear()


def workspace_bytes() -> tuple[int, int]:
    """``(held, busy)``: bytes the pool holds, and those a caller still uses."""
    held = busy = 0
    with _WORKSPACE_LOCK:
        for buf in _WORKSPACE:
            held += buf.nbytes
            # pool entry + loop variable + getrefcount argument == 3 refs
            # exactly when no view of the buffer is alive.
            if sys.getrefcount(buf) > 3:
                busy += buf.nbytes
    return held, busy


def poison_free_workspaces() -> int:
    """Poison every currently-free pooled buffer (sanitizer mode).

    Returns the number of buffers poisoned.  Safe to call at any step
    boundary: only buffers whose refcount shows no outstanding holder are
    touched, and the pool re-zeroes (or fully overwrites, for
    ``zero=False`` acquisitions) buffers on reuse anyway, so numerics are
    unchanged.  Observable via ``conv.workspace_poisoned``.
    """
    n = 0
    with _WORKSPACE_LOCK:
        for buf in _WORKSPACE:
            # Same accounting as workspace_bytes: 3 refs when free.
            if sys.getrefcount(buf) == 3:
                buf.fill(POISON_BYTE)
                _POISONED.add(id(buf))
                n += 1
    if n:
        add_counter("conv.workspace_poisoned", n)
    return n


def _check_poison(buf: np.ndarray) -> None:
    """Verify a poisoned buffer still holds only poison before handing it out."""
    _POISONED.discard(id(buf))
    if buf.size and buf.min() != POISON_BYTE:
        raise WorkspaceUseAfterReleaseError(
            f"pool buffer of {buf.nbytes} bytes was written after release "
            "(poison pattern overwritten); some op holds a stale workspace "
            "reference past its backward pass"
        )


def acquire_workspace(shape: tuple[int, ...], dtype, zero: bool = True) -> np.ndarray:
    """A C-contiguous ``shape``/``dtype`` view of a pooled buffer, reused once free.

    Parameters
    ----------
    shape, dtype:
        Requested geometry; the pool matches on its byte size only.
    zero:
        When True (default) the view is zero-filled before being handed
        out — required for scatter-add targets.  Kernels that overwrite
        every element (im2col, pooling candidate staging, GEMM ``out=``)
        pass False to skip the clearing pass; they then own full coverage
        of the view.  A new buffer reads zero either way.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    with _WORKSPACE_LOCK:
        for i in range(bisect_left(_CAPACITY, nbytes), len(_WORKSPACE)):
            buf = _WORKSPACE[i]
            # pool entry + loop variable + getrefcount argument == 3 refs
            # exactly when no caller (gradient array, view) holds it.
            if sys.getrefcount(buf) == 3:
                if id(buf) in _POISONED:
                    _check_poison(buf)
                add_counter("conv.workspace_hits")
                break
        else:
            buf = np.zeros(nbytes, dtype=np.uint8)
            i = bisect_right(_CAPACITY, nbytes)
            _WORKSPACE.insert(i, buf)
            _CAPACITY.insert(i, nbytes)
            add_counter("conv.workspace_misses")
            zero = False
        out = np.ndarray(shape, dtype=dtype, buffer=buf)
    if zero:
        out.fill(0)
    return out
