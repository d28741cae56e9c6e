"""Top-k selection for the tracked-weight set.

Algorithm 1 in the paper sorts all accumulated gradients and keeps the top
``k`` ("for clarity of exposition"); the practical implementation it
describes instead maintains "a priority queue of size k, with incoming
gradients higher than the stored minimum evicting the minimum elements".

Both are provided, each returning a boolean mask over the flat score
vector:

* :func:`top_k_mask` — exact top-k via ``numpy.argpartition`` (O(n)).
  This is what training uses; it can write into a caller-owned buffer,
  so the DropBack step allocates no fresh mask per call.  Which of several
  scores tied at the cut it keeps is numpy's choice.
* :func:`select_scan` — the paper's streaming size-k priority queue as a
  pure-Python O(n log k) scan, for the top-k implementation ablation and
  as the reference :func:`top_k_mask` is tested against on distinct
  scores, where both select the same set.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.profile import profiled

__all__ = ["select_scan", "top_k_mask"]


@profiled("selector.top_k_mask")
def top_k_mask(scores: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of the ``k`` largest entries of a 1-D score vector.

    Pass ``out`` (a bool array of the same size) to reuse a scratch buffer
    instead of allocating; it is cleared and returned.
    """
    n = scores.size
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if out is None:
        mask = np.zeros(n, dtype=bool)  # repro: noqa[RPA002] fallback when no out= buffer given
    else:
        mask = out
        mask.fill(False)
    if k == 0:
        return mask
    if k >= n:
        mask[:] = True
        return mask
    idx = np.argpartition(scores, n - k)[n - k :]
    mask[idx] = True
    return mask


@profiled("selector.select_scan")
def select_scan(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the ``k`` scores a size-k min-heap scan keeps.

    Scans scores in index order keeping the k best seen so far; an incoming
    score strictly greater than the heap minimum evicts it (smallest score
    first, lowest index first among equal scores) — the single pass, in
    index order, that the paper's streaming accelerator would make.
    """
    n = scores.size
    mask = np.zeros(n, dtype=bool)  # repro: noqa[RPA002] the reference's output mask
    if k <= 0:
        return mask
    if k >= n:
        mask[:] = True
        return mask
    heap: list[tuple[float, int]] = []
    for i, s in enumerate(scores):
        if len(heap) < k:
            heapq.heappush(heap, (float(s), i))
        elif s > heap[0][0]:
            heapq.heapreplace(heap, (float(s), i))
    for _, i in heap:
        mask[i] = True
    return mask
