"""Request queue with dynamic batching.

Single-sample inference requests are cheap to issue but expensive to serve
one at a time: a batched forward over the flat weight plane amortizes the
weight reads across the whole batch.  The batcher coalesces concurrent
requests for the same model into batched forward passes under a
``(max_batch_size, max_wait_ms)`` policy:

* a batch launches as soon as ``max_batch_size`` requests for one model
  are queued, or
* when the *oldest* queued request has waited ``max_wait_ms`` — whichever
  comes first.

``max_wait_ms`` is the latency/throughput dial: larger values fill batches
under light load (throughput) at the cost of adding up to that wait to p99
latency; under saturating load batches fill before the deadline and the
wait never materializes (see ``docs/serving.md``).

Requests are queued per model digest and answered through
:class:`concurrent.futures.Future`, so N clients blocked on
``future.result()`` map onto ≤ ``ceil(N / max_batch_size)`` forward
passes when their inputs share one shape.  A batch whose requests differ
in shape runs one forward per shape, so a malformed request fails only
the requests shaped like it.  Worker threads do the forwards; all queue
state is guarded by one condition variable (always via ``with`` — see
lint rule RPA006).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analyze.sanitize import tracked_lock

__all__ = ["DynamicBatcher", "BatchPolicy"]


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy: flush at ``max_batch_size`` or after ``max_wait_ms``."""

    max_batch_size: int = 8
    max_wait_ms: float = 2.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")


@dataclass
class _Request:
    digest: str
    x: np.ndarray  # one sample, no batch dimension
    future: Future
    enqueued: float


class DynamicBatcher:
    """Coalesce single-sample requests into batched forward calls.

    Parameters
    ----------
    forward_fn:
        ``forward_fn(digest, batch) -> outputs``; ``batch`` is the stacked
        input array (batch dimension first) and the result must have the
        same leading dimension.
    policy:
        The :class:`BatchPolicy` (or pass ``max_batch_size``/``max_wait_ms``).
    workers:
        Number of worker threads executing forwards.  With one worker,
        batches for different models serialize; more workers let distinct
        models proceed concurrently (per-model forwards stay serialized by
        the registry handle lock).
    """

    def __init__(
        self,
        forward_fn: Callable[[str, np.ndarray], np.ndarray],
        policy: BatchPolicy | None = None,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        workers: int = 2,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.policy = policy or BatchPolicy(max_batch_size, max_wait_ms)
        self._n_workers = workers
        self._forward = forward_fn
        # The condition's underlying RLock goes through the lock-order
        # watchdog under REPRO_SANITIZE=1 (tracked_lock is the identity
        # function otherwise).
        self._cond = threading.Condition(
            tracked_lock(threading.RLock(), "DynamicBatcher._cond")
        )
        self._queues: dict[str, deque[_Request]] = {}
        self._threads: list[threading.Thread] = []
        self._running = False
        self.requests_submitted = 0

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #

    def submit(self, digest: str, x: np.ndarray) -> Future:
        """Enqueue one single-sample request; resolves to its output row.

        Allowed before :meth:`start` — requests queue up and are served
        once workers run (tests use this to prove coalescing bounds).
        """
        future: Future = Future()
        request = _Request(
            digest=digest,
            x=np.asarray(x, dtype=np.float32),
            future=future,
            enqueued=time.monotonic(),
        )
        with self._cond:
            self._queues.setdefault(digest, deque()).append(request)
            self.requests_submitted += 1
            self._cond.notify_all()
        return future

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "DynamicBatcher":
        with self._cond:
            if self._running:
                return self
            self._running = True
        self._threads = [
            threading.Thread(target=self._worker, name=f"serve-worker-{i}", daemon=True)
            for i in range(self._n_workers)
        ]
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Stop workers; pending (unserved) requests fail with RuntimeError."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=10.0)
        self._threads = []
        with self._cond:
            pending = [r for q in self._queues.values() for r in q]
            self._queues.clear()
        for r in pending:
            r.future.set_exception(RuntimeError("batcher stopped before request was served"))

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #

    def _worker(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _next_batch(self) -> list[_Request] | None:
        """Block until a batch is ready (or the batcher stops)."""
        max_batch = self.policy.max_batch_size
        max_wait = self.policy.max_wait_ms / 1000.0
        with self._cond:
            while True:
                if not self._running:
                    return None
                digest = self._oldest_digest()
                if digest is None:
                    self._cond.wait()
                    continue
                queue = self._queues[digest]
                now = time.monotonic()
                deadline = queue[0].enqueued + max_wait
                if len(queue) >= max_batch or now >= deadline:
                    batch = [queue.popleft() for _ in range(min(max_batch, len(queue)))]
                    if not queue:
                        del self._queues[digest]
                    return batch
                # Partial batch: wait for more requests or the deadline.
                self._cond.wait(timeout=deadline - now)

    def _oldest_digest(self) -> str | None:
        # caller holds self._cond
        oldest: str | None = None
        oldest_t = float("inf")
        for digest, queue in self._queues.items():
            if queue and queue[0].enqueued < oldest_t:
                oldest = digest
                oldest_t = queue[0].enqueued
        return oldest

    def _execute(self, batch: list[_Request]) -> None:
        # One forward per input shape: a request of the wrong shape then
        # fails only the requests shaped like it, not every client it was
        # coalesced with.
        groups: dict[tuple[int, ...], list[_Request]] = {}
        for r in batch:
            groups.setdefault(r.x.shape, []).append(r)
        for group in groups.values():
            self._forward_group(group)

    def _forward_group(self, group: list[_Request]) -> None:
        try:
            xs = np.stack([r.x for r in group])
            out = np.asarray(self._forward(group[0].digest, xs))
            if out.shape[0] != len(group):
                raise RuntimeError(
                    f"forward returned {out.shape[0]} rows for a batch of {len(group)}"
                )
        except BaseException as exc:  # route the failure to every waiting client
            for r in group:
                if not r.future.cancelled():
                    r.future.set_exception(exc)
            return
        for i, r in enumerate(group):
            if not r.future.cancelled():
                r.future.set_result(out[i].copy())
