"""Quantized sparse checkpoints: count x precision compression on disk.

Combines the sparse format (seed + tracked indices/values) with uniform
quantization of the tracked values: indices stay int32, values become
``bits``-bit integers plus one float scale per parameter-free tensor.  The
paper's Section 5 composition claim, realized at the storage layer.
"""

from __future__ import annotations

import numpy as np

from repro.core import DropBack
from repro.io.checkpoint import (
    _buffer_entries,
    apply_sparse_payload,
    read_sparse_payload,
    sparse_payload,
)
from repro.nn import Module
from repro.quant import UniformQuantizer

__all__ = ["save_sparse_quantized", "load_sparse_quantized"]

_FORMAT_VERSION = 1


def save_sparse_quantized(model: Module, optimizer: DropBack, path: str, bits: int = 8) -> None:
    """Save seed + tracked indices + ``bits``-bit quantized tracked values."""
    payload = sparse_payload(model, optimizer)
    quant = UniformQuantizer(bits=bits, stochastic=False)
    q_values, scale = quant.quantize(payload.values)
    store_dtype = np.int8 if bits <= 8 else np.int16
    np.savez(
        path,
        __qformat__=np.int64(_FORMAT_VERSION),
        seed=np.int64(payload.seed),
        bits=np.int64(bits),
        scale=np.float64(scale),
        zero_untracked=np.int64(int(payload.zero_untracked)),
        indices=payload.indices,
        q_values=q_values.astype(store_dtype),
        **_buffer_entries(payload),
    )


def load_sparse_quantized(model: Module, path: str) -> Module:
    """Reconstruct a model from a quantized sparse checkpoint.

    Untracked weights regenerate exactly (or stay zero for a
    ``zero_untracked`` run); tracked values come back at the stored
    precision (dequantized).
    """
    payload = read_sparse_payload(path)
    if payload.kind != "quantized":
        raise ValueError(f"{payload.kind} checkpoint; use load_sparse")
    return apply_sparse_payload(model, payload)
