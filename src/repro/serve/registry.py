"""Model registry: sparse checkpoints in, materialized weight planes out.

A DropBack deployment stores almost nothing per model — a checkpoint is
``(xorshift seed, k tracked indices, k tracked values)`` plus BatchNorm
statistics.  The registry keeps that *sparse payload* pinned in memory for
every registered model (a few KB each) and materializes the full flat
weight plane only when a request actually needs it:

* checkpoints are keyed by **content digest** (SHA-256 of the wire bytes),
  so the same checkpoint registered twice shares one entry and a client
  can pin an exact model version;
* materialization is :func:`repro.io.apply_sparse_payload`, the same
  function ``load_sparse`` uses: finalize the architecture with the stored
  seed (regenerating every untracked weight) and scatter the k tracked
  values through the flat weight plane in one vectorized write;
* materialized planes are **evicted under a byte budget**, planes not
  acquired again since they were materialized first (see
  :class:`ModelRegistry`).  Evicting a model drops only its plane (one
  contiguous buffer); the sparse payload stays, so the next request
  rematerializes it bit-exactly;
* ``packed=True`` entries with a ``zero_untracked`` payload skip the
  dense plane entirely and serve through CSR weight packs
  (:mod:`repro.serve.packed`), so their resident cost is the packed bytes
  — the budget counts pinned payloads plus whatever form (plane or pack)
  each materialized entry holds.

Bit-exactness of evict → rematerialize is a theorem of the design (the
plane is a pure function of ``(architecture, seed, tracked set)``) and is
enforced in tests under the plane-integrity sanitizer; when
``REPRO_SANITIZE=1`` the registry additionally verifies plane integrity
after every materialization.

All public methods are thread-safe; per-model forward passes are
serialized by the handle lock (numpy forward kernels share workspace
state, and batching — not intra-model parallelism — is where serving
throughput comes from).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analyze.sanitize import check_plane_integrity, sanitize_enabled, tracked_lock
from repro.io import SparsePayload, apply_sparse_payload, read_sparse_payload
from repro.nn import Module
from repro.tensor import Tensor, no_grad

__all__ = ["ModelRegistry", "ModelHandle", "RegistryStats", "checkpoint_digest"]


def checkpoint_digest(path: str) -> str:
    """SHA-256 content digest of a checkpoint file (the registry key)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _payload_digest(payload: SparsePayload) -> str:
    """Digest for payloads registered from memory (no wire bytes)."""
    h = hashlib.sha256()
    h.update(str(payload.seed).encode())
    h.update(np.ascontiguousarray(payload.indices).tobytes())
    h.update(np.ascontiguousarray(payload.values).tobytes())
    for name in sorted(payload.buffers):
        h.update(name.encode())
        h.update(np.ascontiguousarray(payload.buffers[name]).tobytes())
    return h.hexdigest()


@dataclass
class RegistryStats:
    """Registry traffic counters (all monotonically increasing)."""

    hits: int = 0  # acquire served from a resident plane
    materializations: int = 0  # acquire that had to (re)build a plane
    evictions: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "materializations": self.materializations,
            "evictions": self.evictions,
        }


@dataclass
class ModelHandle:
    """A materialized model checked out of the registry.

    Holding a handle keeps the plane alive even if the registry evicts the
    entry (numpy refcounting); :meth:`forward` serializes per-model
    forward passes under the entry lock.
    """

    digest: str
    name: str
    model: Module
    lock: threading.Lock

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One batched eval-mode forward pass; returns the output array."""
        with self.lock:
            with no_grad():
                out = self.model(Tensor(np.asarray(x, dtype=np.float32)))
            return out.numpy()


@dataclass
class _Entry:
    digest: str
    name: str
    factory: Callable[[], Module]
    payload: SparsePayload
    packed: bool = False
    model: Module | None = None
    plane_bytes: int = 0
    forward_lock: threading.Lock = field(
        default_factory=lambda: tracked_lock(
            threading.Lock(), "ModelHandle.forward_lock"
        )
    )
    materializations: int = 0


class ModelRegistry:
    """Digest-keyed registry of sparse checkpoints with a plane cache.

    Parameters
    ----------
    byte_budget:
        Maximum total bytes the registry keeps alive (``None`` =
        unbounded): pinned decoded payloads for every entry plus
        materialized servables (dense planes, or CSR bytes for
        ``packed=True`` entries).  Only servables are evictable; the one
        most recently acquired is never evicted, so a single model larger
        than the budget still serves.

    Eviction is a segmented LRU whose protected part has no size of its
    own: servables not acquired again since they were materialized go
    first, least recent first, and only then the re-acquired ones, in LRU
    order.  A burst of one-off requests for cold models therefore cycles
    through the probationary part and leaves the models in steady use
    resident.
    """

    def __init__(self, byte_budget: int | None = None):
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError("byte_budget must be positive (or None for unbounded)")
        self.byte_budget = byte_budget
        self.stats = RegistryStats()
        # tracked_lock is the identity function unless REPRO_SANITIZE=1,
        # in which case the lock-order watchdog (RPA010's runtime mirror)
        # observes every acquisition.
        self._lock = tracked_lock(threading.RLock(), "ModelRegistry._lock")
        self._entries: dict[str, _Entry] = {}
        # Resident entries, each segment in recency order (coldest first):
        # materialized and not acquired since, then acquired again.
        self._probation: "OrderedDict[str, _Entry]" = OrderedDict()
        self._protected: "OrderedDict[str, _Entry]" = OrderedDict()
        # Running sums of payload.nbytes over all entries and plane_bytes
        # over resident ones, so acquire need not re-sum them.
        self._pinned_bytes = 0
        self._resident_bytes = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        factory: Callable[[], Module],
        checkpoint_path: str,
        *,
        packed: bool = False,
    ) -> str:
        """Register a sparse/quantized checkpoint file; returns its digest.

        ``packed=True`` opts the entry into packed materialization: a
        ``zero_untracked`` payload over supported layers serves straight
        from CSR (see :mod:`repro.serve.packed`) and its resident cost is
        the packed bytes, not the dense plane.  Unsupported entries fall
        back to dense materialization silently.
        """
        digest = checkpoint_digest(checkpoint_path)
        payload = read_sparse_payload(checkpoint_path)
        return self.register_payload(name, factory, payload, digest=digest, packed=packed)

    def register_payload(
        self,
        name: str,
        factory: Callable[[], Module],
        payload: SparsePayload,
        digest: str | None = None,
        *,
        packed: bool = False,
    ) -> str:
        """Register an already-decoded payload (tests, in-process export)."""
        if digest is None:
            digest = _payload_digest(payload)
        with self._lock:
            if digest not in self._entries:
                self._entries[digest] = _Entry(
                    digest=digest, name=name, factory=factory, payload=payload, packed=packed
                )
                self._pinned_bytes += payload.nbytes
        return digest

    # ------------------------------------------------------------------ #
    # materialization + eviction
    # ------------------------------------------------------------------ #

    def acquire(self, digest: str) -> ModelHandle:
        """Check out a materialized model, building its plane if cold."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise KeyError(f"unknown model digest: {digest}")
            if entry.model is None:
                entry.model = self._materialize(entry)
                plane = getattr(entry.model, "weight_plane", None)
                # Packed models have no plane; their resident cost is the
                # CSR structures themselves.
                entry.plane_bytes = int(entry.model.nbytes if plane is None else plane.nbytes)
                entry.materializations += 1
                self._resident_bytes += entry.plane_bytes
                self._probation[digest] = entry
                self.stats.materializations += 1
            else:
                self.stats.hits += 1
                if self._probation.pop(digest, None) is None:
                    self._protected.move_to_end(digest)
                else:
                    self._protected[digest] = entry
            self._evict_over_budget(keep=digest)
            return ModelHandle(
                digest=digest, name=entry.name, model=entry.model, lock=entry.forward_lock
            )

    def _materialize(self, entry: _Entry):
        """Build the servable for one entry: a finalized dense ``Module``,
        or a plane-free ``PackedModel`` for packed-eligible entries."""
        payload = entry.payload
        if entry.packed:
            from repro.serve.packed import PackedModel

            packed = PackedModel.try_build(entry.factory(), payload)
            if packed is not None:
                return packed
            # Unsupported for packing (regeneration-mode payload, buffers,
            # exotic layers): serve densely like any other entry.
        model = apply_sparse_payload(entry.factory(), payload)
        model.eval()
        if sanitize_enabled():
            check_plane_integrity(model)
        return model

    def _evict_over_budget(self, keep: str) -> None:
        # caller holds self._lock.  The budget covers everything the
        # registry keeps alive: pinned payloads (which eviction can never
        # reclaim) plus materialized planes/packs (which it can) — so a
        # registry full of "cheap" packed entries still respects the cap.
        if self.byte_budget is None:
            return
        while self._pinned_bytes + self._resident_bytes > self.byte_budget:
            victim = next(
                (e for segment in (self._probation, self._protected)
                 for e in segment.values() if e.digest != keep),
                None,
            )
            if victim is None:
                break  # only `keep` is resident; never evict the active model
            self._drop_plane(victim)

    def _drop_plane(self, entry: _Entry) -> None:
        # caller holds self._lock
        if self._probation.pop(entry.digest, None) is None:
            del self._protected[entry.digest]
        self._resident_bytes -= entry.plane_bytes
        entry.model = None
        entry.plane_bytes = 0
        self.stats.evictions += 1

    def evict(self, digest: str) -> bool:
        """Explicitly drop one model's plane; returns whether it was resident."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise KeyError(f"unknown model digest: {digest}")
            if entry.model is None:
                return False
            self._drop_plane(entry)
            return True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def resident_bytes(self) -> int:
        """Total bytes of currently materialized servables.

        Dense entries contribute their weight-plane bytes; packed entries
        contribute their CSR structure bytes (typically a small fraction
        of the plane — that gap is the ``registry_bytes_ratio`` the sparse
        bench gates on).
        """
        with self._lock:
            return self._resident_bytes

    @property
    def pinned_bytes(self) -> int:
        """Total bytes of decoded payloads (pinned for every entry, incl.
        quantized ``__qformat__`` checkpoints, which pin their dequantized
        values)."""
        with self._lock:
            return self._pinned_bytes

    def digests(self) -> list[str]:
        """Every registered digest, in registration order."""
        with self._lock:
            return list(self._entries)

    def resident_digests(self) -> list[str]:
        """Digests with a materialized servable, in eviction order (next
        victim first): those not acquired again since they were
        materialized, then the re-acquired ones, each least recent first."""
        with self._lock:
            return [*self._probation, *self._protected]

    def describe(self, digest: str) -> dict:
        """One entry's metadata (for status endpoints and the CLI table)."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise KeyError(f"unknown model digest: {digest}")
            payload = entry.payload
            return {
                "digest": entry.digest,
                "name": entry.name,
                "kind": payload.kind,
                "k": payload.k,
                "seed": payload.seed,
                "resident": entry.model is not None,
                "packed": entry.packed,
                "plane_bytes": entry.plane_bytes,
                "sparse_bytes": payload.nbytes,
                "materializations": entry.materializations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
