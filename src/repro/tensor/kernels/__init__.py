"""Kernel dispatch layer: pluggable backends for the heavy tensor ops.

Public API::

    from repro.tensor import kernels

    kernels.set_backend("reference")        # or REPRO_BACKEND=reference
    with kernels.use_backend("sparse"):     # scoped selection
        ...
    kernels.set_op_backend("matmul", "fast")  # pin one op
    backend, fn = kernels.resolve("conv2d_forward")

Backends: ``reference`` (pre-dispatch numpy code verbatim; the parity
oracle), ``fast`` (pooled workspaces, batch-flattened conv GEMM, fused
batchnorm+relu — the default), ``sparse`` (packed CSR weights for
frozen/zeroed high-sparsity regimes, falling back to ``fast`` above
``REPRO_SPARSE_DENSITY_CUTOFF``).  See ``docs/kernels.md`` and
``docs/sparse.md``.
"""

from repro.tensor.kernels import (  # noqa: F401 - registration
    fast,
    reference,
    sparse,
)
from repro.tensor.kernels.registry import (
    DEFAULT_BACKEND,
    REFERENCE_BACKEND,
    get_backend,
    list_backends,
    list_ops,
    op_overrides,
    op_table,
    register_kernel,
    resolve,
    set_backend,
    set_op_backend,
    use_backend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "REFERENCE_BACKEND",
    "get_backend",
    "list_backends",
    "list_ops",
    "op_overrides",
    "op_table",
    "register_kernel",
    "resolve",
    "set_backend",
    "set_op_backend",
    "use_backend",
]
