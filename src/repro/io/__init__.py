"""Checkpoint serialization (dense and DropBack-sparse formats)."""

from repro.io.checkpoint import (
    SparsePayload,
    apply_sparse_payload,
    compression_report,
    dense_size_bytes,
    load_dense,
    load_sparse,
    read_sparse_payload,
    save_dense,
    save_sparse,
    sparse_payload,
    sparse_size_bytes,
)
from repro.io.quantized import load_sparse_quantized, save_sparse_quantized

__all__ = [
    "save_sparse_quantized",
    "load_sparse_quantized",
    "SparsePayload",
    "sparse_payload",
    "read_sparse_payload",
    "apply_sparse_payload",
    "save_dense",
    "load_dense",
    "save_sparse",
    "load_sparse",
    "sparse_size_bytes",
    "dense_size_bytes",
    "compression_report",
]
