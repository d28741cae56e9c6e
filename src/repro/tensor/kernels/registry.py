"""Kernel dispatch registry: ``(op, backend)`` → implementation.

Every heavy tensor op (matmul, conv, batchnorm, relu, pooling) resolves
its implementation here instead of calling numpy directly.  Backends
register kernels with :func:`register_kernel`; call sites resolve with
:func:`resolve` at op-construction time and close over the returned
function, so a forward's backward always runs on the same backend even if
the selection changes mid-step.

Selection precedence (highest first):

1. per-op override (:func:`set_op_backend`, for benchmarking/bisection)
2. the active backend (:func:`set_backend` / ``REPRO_BACKEND``)
3. the default backend (``fast``), for an op the selected backend lacks
4. ``reference`` — every op is registered there, so resolution never fails

The ``reference`` backend is the pre-dispatch numpy code verbatim and is
the parity oracle for every other backend (see ``tests/test_kernels_parity``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "register_kernel",
    "resolve",
    "get_backend",
    "set_backend",
    "set_op_backend",
    "use_backend",
    "list_ops",
    "list_backends",
    "op_overrides",
    "op_table",
    "REFERENCE_BACKEND",
    "DEFAULT_BACKEND",
]

REFERENCE_BACKEND = "reference"
#: Used when ``REPRO_BACKEND`` is unset, and for any op the selected backend
#: does not register: the fast kernels are parity-tested against reference
#: and strictly dominate it on the bench shapes.
DEFAULT_BACKEND = "fast"

#: op name -> backend name -> kernel implementation.
_KERNELS: dict[str, dict[str, Callable]] = {}
#: every backend name seen at registration time (validates selection).
_BACKENDS: set[str] = set()
#: per-op backend overrides (highest precedence).
_OP_OVERRIDES: dict[str, str] = {}
#: active backend; ``None`` means "not yet read from the environment".
_ACTIVE: list[str | None] = [None]


def register_kernel(op: str, backend: str) -> Callable[[Callable], Callable]:
    """Decorator registering ``fn`` as the ``backend`` implementation of ``op``."""

    def deco(fn: Callable) -> Callable:
        table = _KERNELS.setdefault(op, {})
        if backend in table:
            raise ValueError(f"duplicate kernel registration: {op!r}/{backend!r}")
        table[backend] = fn
        _BACKENDS.add(backend)
        return fn

    return deco


def _validate(backend: str) -> str:
    backend = backend.strip().lower()
    if backend not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown backend {backend!r} (known: {known})")
    return backend


def get_backend() -> str:
    """The active backend name (initialised from ``REPRO_BACKEND`` once)."""
    if _ACTIVE[0] is None:
        _ACTIVE[0] = _validate(os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND))
    return _ACTIVE[0]


def set_backend(backend: str) -> None:
    """Select the backend used by subsequent op constructions."""
    _ACTIVE[0] = _validate(backend)


def set_op_backend(op: str, backend: str | None) -> None:
    """Pin one op to a backend regardless of the active selection.

    Pass ``None`` to drop the pin.  Unknown ops are rejected so typos do
    not silently pin nothing.
    """
    if op not in _KERNELS:
        raise ValueError(f"unknown op {op!r} (known: {', '.join(sorted(_KERNELS))})")
    if backend is None:
        _OP_OVERRIDES.pop(op, None)
    else:
        _OP_OVERRIDES[op] = _validate(backend)


def op_overrides() -> dict[str, str]:
    """Snapshot of the active per-op pins (op -> backend name)."""
    return dict(_OP_OVERRIDES)


@contextmanager
def use_backend(backend: str) -> Iterator[None]:
    """Temporarily select ``backend`` (tests, benchmarks)."""
    prev = get_backend()
    set_backend(backend)
    try:
        yield
    finally:
        _ACTIVE[0] = prev


def resolve(op: str, backend: str | None = None) -> tuple[str, Callable]:
    """The ``(backend_name, kernel)`` that should run ``op`` right now.

    ``backend`` forces a specific backend (used so an op's backward runs on
    the backend its forward resolved to).  A backend without a registration
    for ``op`` falls back to ``fast``, then ``reference``; the returned name
    reflects the kernel actually chosen.
    """
    table = _KERNELS.get(op)
    if table is None:
        raise KeyError(f"unknown op {op!r} (known: {', '.join(sorted(_KERNELS))})")
    name = backend or _OP_OVERRIDES.get(op) or get_backend()
    if name not in table:
        name = DEFAULT_BACKEND if DEFAULT_BACKEND in table else REFERENCE_BACKEND
    return name, table[name]


def list_ops() -> list[str]:
    """All registered op names, sorted."""
    return sorted(_KERNELS)


def list_backends(op: str | None = None) -> list[str]:
    """Backends registered for ``op`` (or every backend seen, if ``None``)."""
    if op is None:
        return sorted(_BACKENDS)
    if op not in _KERNELS:
        raise KeyError(f"unknown op {op!r}")
    return sorted(_KERNELS[op])


def op_table() -> dict[str, dict[str, Callable]]:
    """A copy of the full dispatch table (introspection/CLI)."""
    return {op: dict(table) for op, table in _KERNELS.items()}

