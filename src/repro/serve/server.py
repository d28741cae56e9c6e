"""Inference server: registry-backed models behind a dynamic batcher.

:class:`InferenceServer` is the serving front door.  Clients submit
single-sample requests against a model digest; the dynamic batcher
coalesces them, the registry materializes the model's weight plane (or
finds it still resident), and one batched forward answers the whole
batch.  Per-model forwards are serialized by the registry handle lock, so
throughput scales with batch size rather than thread count — exactly the
trade the flat weight plane was built for.

Typical use::

    registry = ModelRegistry(byte_budget=64 << 20)
    digest = registry.register("lenet", lenet_300_100, "model.npz")
    with InferenceServer(registry, max_batch_size=8, max_wait_ms=2.0) as server:
        logits = server.serve(digest, sample)          # blocking
        future = server.submit(digest, sample)          # async
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.registry import ModelRegistry

__all__ = ["InferenceServer", "ServeStats"]


@dataclass
class ServeStats:
    """Aggregate request/batch accounting for one server."""

    requests: int = 0
    samples: int = 0
    batches: int = 0
    batch_size_sum: int = 0
    batch_size_max: int = 0
    by_digest: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.batch_size_sum / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "samples": self.samples,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_size_max": self.batch_size_max,
            "by_digest": dict(self.by_digest),
        }


class InferenceServer:
    """Dynamic-batching server over a :class:`ModelRegistry`.

    Parameters
    ----------
    registry:
        The model registry (owns checkpoints, materialization, and the
        plane budget with its eviction order).
    max_batch_size, max_wait_ms, workers:
        Batching policy — see :class:`~repro.serve.batcher.DynamicBatcher`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        workers: int = 2,
    ):
        self.registry = registry
        self.policy = BatchPolicy(max_batch_size, max_wait_ms)
        self.batcher = DynamicBatcher(self._forward_batch, policy=self.policy, workers=workers)
        self._stats = ServeStats()
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #

    def submit(self, digest: str, x: np.ndarray) -> Future:
        """Async single-sample request; the future resolves to the output row."""
        with self._stats_lock:
            self._stats.requests += 1
        return self.batcher.submit(digest, x)

    def serve(self, digest: str, x: np.ndarray, timeout: float | None = 30.0) -> np.ndarray:
        """Blocking single-sample request."""
        return self.submit(digest, x).result(timeout=timeout)

    def _forward_batch(self, digest: str, xs: np.ndarray) -> np.ndarray:
        handle = self.registry.acquire(digest)
        out = handle.forward(xs)
        with self._stats_lock:
            self._stats.samples += int(xs.shape[0])
            self._stats.batches += 1
            self._stats.batch_size_sum += int(xs.shape[0])
            self._stats.batch_size_max = max(self._stats.batch_size_max, int(xs.shape[0]))
            self._stats.by_digest[digest] = self._stats.by_digest.get(digest, 0) + 1
        return out

    # ------------------------------------------------------------------ #
    # lifecycle + stats
    # ------------------------------------------------------------------ #

    def start(self) -> "InferenceServer":
        self.batcher.start()
        return self

    def stop(self) -> None:
        self.batcher.stop()

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def stats(self) -> ServeStats:
        """Snapshot of the request/batch counters."""
        with self._stats_lock:
            snap = ServeStats(
                requests=self._stats.requests,
                samples=self._stats.samples,
                batches=self._stats.batches,
                batch_size_sum=self._stats.batch_size_sum,
                batch_size_max=self._stats.batch_size_max,
                by_digest=dict(self._stats.by_digest),
            )
        return snap
