"""Top-k selection strategies for the tracked-weight set.

Algorithm 1 in the paper sorts all accumulated gradients and keeps the top
``k`` ("for clarity of exposition"); the practical implementation it
describes instead maintains "a priority queue of size k, with incoming
gradients higher than the stored minimum evicting the minimum elements".

Both are provided, each returning a boolean mask over the flat score
vector:

* :func:`top_k_mask` — exact top-k via ``numpy.argpartition`` (O(n)).
  This is what training uses; it can write into a caller-owned buffer,
  so the DropBack step allocates no fresh mask per call.
* :class:`HeapSelector` — the paper's streaming size-k priority queue,
  for the top-k implementation ablation.  The faithful pure-Python scan
  is kept as :meth:`HeapSelector.select_scan`; :meth:`HeapSelector.select`
  computes the *identical* mask (including the scan's index-order
  tie-breaking) with a chunked ``argpartition`` prefilter plus a
  threshold scan, which is orders of magnitude faster on real score
  vectors.  Unit tests assert the two are equal, ties included.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.profile import profiled

__all__ = ["HeapSelector", "top_k_mask"]


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


class HeapSelector:
    """Size-k min-heap scan modelling the paper's hardware priority queue.

    Scans scores in index order keeping the k best seen so far; an incoming
    score strictly greater than the heap minimum evicts it (smallest score
    first, lowest index first among equal scores).  That streaming rule has
    a closed form over the final threshold ``T`` (the kth-largest score):

    * every score strictly above ``T`` survives — none can ever become the
      heap minimum while a ``T`` remains;
    * ties at ``T`` only ever *enter* the heap while it still holds a
      sub-``T`` entry, which happens exactly for the ``T``-valued members
      of the first k scores ``>= T`` in index order;
    * each later ``> T`` arrival evicts the lowest-index resident tie, so
      of those entered ties only the **last** ``k - #(> T)`` (by index)
      survive.

    :meth:`select` evaluates that closed form directly: a chunked
    ``argpartition`` prefilter finds ``T`` without materializing a full
    sort, then one vectorized threshold scan reconstructs the exact
    surviving set.  :meth:`select_scan` is the original O(n log k)
    pure-Python heap, retained as the semantic reference — the test suite
    asserts both produce identical masks, ties included.
    """

    def __init__(self, chunk_size: int = 1 << 16):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = int(chunk_size)

    def select(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Boolean mask of the ``k`` scores the streaming scan keeps."""
        n = scores.size
        if k <= 0:
            return np.zeros(n, dtype=bool)
        if k >= n:
            return np.ones(n, dtype=bool)
        threshold = self._threshold(scores, k)
        mask = scores > threshold
        need = k - int(np.count_nonzero(mask))
        if need > 0:
            # Ties: T-valued members of the first k scores >= T enter the
            # heap; later > T arrivals evict them lowest-index-first.
            entered = np.flatnonzero(scores >= threshold)[:k]
            ties = entered[scores[entered] == threshold]
            mask[ties[ties.size - need :]] = True
        return mask

    def _threshold(self, scores: np.ndarray, k: int) -> float:
        """Exact kth-largest score via a chunked argpartition prefilter.

        Each chunk keeps only its own top-k candidates (the global top-k is
        a subset of the union), then one partition of the much smaller pool
        yields the exact threshold.
        """
        n = scores.size
        step = self.chunk_size
        if n <= step:
            return scores[np.argpartition(scores, n - k)[n - k]]
        keep = []
        for lo in range(0, n, step):
            seg = scores[lo : lo + step]
            if seg.size <= k:
                keep.append(seg)
            else:
                keep.append(np.partition(seg, seg.size - k)[seg.size - k :])
        pool = np.concatenate(keep)
        return pool[np.argpartition(pool, pool.size - k)[pool.size - k]]

    def select_scan(self, scores: np.ndarray, k: int) -> np.ndarray:
        """The faithful streaming scan (reference for :meth:`select`).

        O(n log k), single pass in index order — the access pattern the
        paper's streaming accelerator would use.
        """
        n = scores.size
        mask = np.zeros(n, dtype=bool)
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
