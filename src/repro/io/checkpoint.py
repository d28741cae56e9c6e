"""Model serialization, including DropBack's sparse checkpoint format.

A DropBack-trained network needs to persist only:

* the global **seed** (every untracked weight regenerates from it),
* the **tracked set**: flat indices + trained values (k entries),
* BatchNorm running statistics (training statistics, not weights).

Everything else is recomputed on load.  This is the storage story behind
the paper's "weight compression" column: a 25x-compressed LeNet checkpoint
really is ~25x smaller than the dense one.

:func:`save_sparse` / :func:`load_sparse` implement that format on top of
``numpy.savez``; :func:`save_dense` / :func:`load_dense` store the full
state for baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import DropBack
from repro.nn import Module

__all__ = [
    "save_dense",
    "load_dense",
    "save_sparse",
    "load_sparse",
    "read_sparse_payload",
    "apply_sparse_payload",
    "SparsePayload",
    "sparse_size_bytes",
    "dense_size_bytes",
    "compression_report",
]

_FORMAT_VERSION = 1


@dataclass
class SparsePayload:
    """In-memory content of a sparse (or quantized-sparse) checkpoint.

    This is the wire format decoded once: everything a serving layer needs
    to materialize the full weight plane on demand — seed, tracked
    indices/values (already dequantized for the quantized format), and the
    BatchNorm running statistics.  ``kind`` is ``"sparse"`` or
    ``"quantized"``; ``bits`` is set only for the latter.

    Construction validates the tracked set — ``indices`` a 1-D int64 array
    of distinct non-negative flat indices in increasing order, ``values``
    a float32 array of the same length — and raises ``ValueError`` naming
    the field otherwise, so a malformed checkpoint is rejected when it is
    read or registered rather than when its weights are first written.
    """

    seed: int
    indices: np.ndarray
    values: np.ndarray
    zero_untracked: bool = False
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    kind: str = "sparse"
    bits: int | None = None

    def __post_init__(self) -> None:
        idx, values = self.indices, self.values
        if not isinstance(idx, np.ndarray) or idx.ndim != 1 or idx.dtype != np.int64:
            raise ValueError(
                f"SparsePayload.indices must be a 1-D int64 array, got {_describe(idx)}"
            )
        if idx.size and idx[0] < 0:
            raise ValueError(f"SparsePayload.indices must be non-negative, got {idx[0]}")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError(
                "SparsePayload.indices must be strictly increasing "
                "(sorted, without duplicates)"
            )
        if not isinstance(values, np.ndarray) or values.dtype != np.float32:
            raise ValueError(
                f"SparsePayload.values must be a float32 array, got {_describe(values)}"
            )
        if values.shape != idx.shape:
            raise ValueError(
                f"SparsePayload.values has shape {values.shape}, but indices has "
                f"shape {idx.shape}"
            )

    @property
    def k(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Bytes this decoded payload pins in memory (indices + values + buffers)."""
        return int(
            self.indices.nbytes
            + self.values.nbytes
            + sum(b.nbytes for b in self.buffers.values())
        )


def _describe(arr) -> str:
    if isinstance(arr, np.ndarray):
        return f"{arr.dtype} array of shape {arr.shape}"
    return type(arr).__name__


def read_sparse_payload(path: str) -> SparsePayload:
    """Decode a sparse or quantized-sparse checkpoint into a payload.

    Accepts both on-disk formats (:func:`save_sparse` and
    :func:`~repro.io.quantized.save_sparse_quantized`); quantized values
    come back dequantized to float32.  Dense checkpoints are rejected —
    they carry no (seed, tracked set) pair to regenerate from.
    """
    with np.load(path) as data:
        if "__qformat__" in data.files:
            from repro.quant import UniformQuantizer

            version = int(data["__qformat__"])
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported quantized checkpoint version: {version}")
            bits = int(data["bits"])
            quant = UniformQuantizer(bits=bits)
            values = quant.dequantize(data["q_values"], float(data["scale"]))
            payload = SparsePayload(
                seed=int(data["seed"]),
                indices=np.asarray(data["indices"], dtype=np.int64),
                values=np.asarray(values, dtype=np.float32),
                kind="quantized",
                bits=bits,
            )
        elif "__format__" in data.files:
            version = int(data["__format__"])
            if version == 0:
                raise ValueError(
                    "dense checkpoint: no (seed, tracked set) to regenerate from; "
                    "use load_dense"
                )
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported sparse checkpoint version: {version}")
            payload = SparsePayload(
                seed=int(data["seed"]),
                indices=np.asarray(data["indices"], dtype=np.int64),
                values=np.asarray(data["values"], dtype=np.float32),
                zero_untracked=bool(int(data["zero_untracked"])),
            )
        else:
            raise ValueError(f"not a repro checkpoint: {path}")
        payload.buffers = {
            key[len("buffer::"):]: np.array(data[key])
            for key in data.files
            if key.startswith("buffer::")
        }
    return payload


def save_dense(model: Module, path: str) -> None:
    """Save all parameters and buffers densely."""
    state = model.state_dict()
    np.savez(path, __format__=np.int64(0), **state)


def load_dense(model: Module, path: str) -> Module:
    """Load a dense checkpoint into a compatible model."""
    with np.load(path) as data:
        state = {k: data[k] for k in data.files if k != "__format__"}
    model.load_state_dict(state)
    return model


def save_sparse(model: Module, optimizer: DropBack, path: str) -> None:
    """Save seed + tracked (index, value) pairs + BN buffers.

    Parameters
    ----------
    model:
        The trained, finalized model.
    optimizer:
        The DropBack optimizer that trained it (owns the tracked mask).
    path:
        Output ``.npz`` path.
    """
    mask = optimizer.tracked_mask
    if mask is None:
        raise RuntimeError("optimizer has no tracked set; train at least one step")
    if optimizer._fixed:
        raise ValueError(
            "sparse checkpoints require include_nonprunable=True (the flat index "
            "space must cover every parameter)"
        )

    # Collect tracked values in the optimizer's flat prunable index space.
    flat = np.concatenate([p.data.reshape(-1) for _, p in optimizer._prunable])
    indices = np.flatnonzero(mask).astype(np.int64)
    values = flat[indices].astype(np.float32)

    payload: dict[str, np.ndarray] = {
        "__format__": np.int64(_FORMAT_VERSION),
        "seed": np.int64(model.seed),
        "k": np.int64(optimizer.k),
        "zero_untracked": np.int64(int(optimizer.zero_untracked)),
        "indices": indices,
        "values": values,
    }
    # Buffers (BatchNorm running stats) are statistics and stored densely.
    for mod_name, buf_name, buf in model._named_buffers():
        payload[f"buffer::{mod_name}{buf_name}"] = buf
    np.savez(path, **payload)


def load_sparse(model: Module, path: str) -> Module:
    """Reconstruct a DropBack-trained model from a sparse checkpoint.

    The model must be the same architecture; it is re-finalized with the
    stored seed (regenerating all initial values), untracked weights keep
    those values (or zero, if the run used the zeroing ablation), and the
    tracked values are scattered back in.
    """
    payload = read_sparse_payload(path)
    if payload.kind != "sparse":
        raise ValueError(
            f"{payload.kind} checkpoint; use load_sparse_quantized (or read_sparse_payload)"
        )
    return apply_sparse_payload(model, payload)


def apply_sparse_payload(model: Module, payload: SparsePayload) -> Module:
    """Materialize a decoded payload into a model — the one path from a
    sparse checkpoint to weights (``load_sparse`` and the serving registry
    both use it).

    Finalizing with the stored seed writes W(0) into the weight plane (the
    zeroing ablation then clears it).  The checkpoint's flat index space is
    exactly the plane's layout, so the tracked values land in one
    vectorized scatter through the plane, and every parameter view sees
    them.  BatchNorm statistics are copied last.
    """
    model.finalize(payload.seed)
    plane = model.weight_plane
    if payload.k and payload.indices[-1] >= plane.size:
        raise ValueError("checkpoint indices exceed model parameter count")
    if payload.zero_untracked:
        plane.fill(0.0)
    plane[payload.indices] = payload.values
    for dotted, arr in payload.buffers.items():
        model._set_buffer(dotted, arr)
    return model


def sparse_size_bytes(optimizer: DropBack) -> int:
    """Idealized sparse checkpoint payload: k x (int32 index + float32 value)."""
    n = int(min(optimizer.k, optimizer.total_prunable))
    return n * (4 + 4) + 8  # + seed


def dense_size_bytes(model: Module) -> int:
    """Idealized dense checkpoint payload: one float32 per parameter."""
    return model.num_parameters() * 4


def compression_report(model: Module, optimizer: DropBack) -> dict[str, float]:
    """Storage comparison between dense and sparse formats."""
    dense = dense_size_bytes(model)
    sparse = sparse_size_bytes(optimizer)
    return {
        "dense_bytes": float(dense),
        "sparse_bytes": float(sparse),
        "byte_ratio": dense / sparse,
        "weight_compression": optimizer.compression_ratio,
    }
