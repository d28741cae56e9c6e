"""Serving layer: sparse checkpoints in, batched low-latency inference out.

The deployment half of the DropBack story.  A trained model is just
``(xorshift seed, k tracked indices, k tracked values)``; this package
turns that into a service:

* :class:`~repro.serve.registry.ModelRegistry` — digest-keyed sparse
  checkpoints, weight planes materialized on demand and evicted under a
  byte budget (planes not acquired again since they were materialized
  first, then least recently used); ``packed=True`` entries serve
  zero-untracked checkpoints straight from CSR weight packs
  (:class:`~repro.serve.packed.PackedModel`) without ever inflating a
  dense plane;
* :class:`~repro.serve.batcher.DynamicBatcher` — coalesces concurrent
  single-sample requests into batched forward passes
  (``max_batch_size`` / ``max_wait_ms`` policy) served by worker threads;
* :class:`~repro.serve.server.InferenceServer` — the two composed, with
  request/batch statistics;
* :mod:`~repro.serve.loadgen` — the concurrent load generator behind
  ``benchmarks/bench_serve.py`` and the CI p50/p99 latency gate.

See ``docs/serving.md`` for architecture and tuning notes.
"""

from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.loadgen import LoadResult, build_report, measure_single_forward, run_load
from repro.serve.packed import PackedModel
from repro.serve.registry import ModelHandle, ModelRegistry, RegistryStats, checkpoint_digest
from repro.serve.server import InferenceServer, ServeStats

__all__ = [
    "ModelRegistry",
    "ModelHandle",
    "PackedModel",
    "RegistryStats",
    "checkpoint_digest",
    "DynamicBatcher",
    "BatchPolicy",
    "InferenceServer",
    "ServeStats",
    "LoadResult",
    "run_load",
    "measure_single_forward",
    "build_report",
]
