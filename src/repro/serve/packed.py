"""Packed serving executor: run a zero-untracked checkpoint with no plane.

A 95%-sparse ``zero_untracked`` checkpoint carries only the tracked
``(index, value)`` pairs, yet the registry's normal materialization path
still allocates the *full* dense weight plane just to scatter k values
into it.  :class:`PackedModel` skips that inflation entirely: every
``Linear`` weight is packed straight from the payload's flat-index space
into CSR via :func:`repro.tensor.kernels.sparse.pack_from_indices`, and
the forward runs one SpMM per layer through
:func:`~repro.tensor.kernels.sparse.sparse_linear`.  Resident cost is the
packed bytes (≈ ``2 x k`` scalars plus row pointers) instead of the dense
plane — the registry counts exactly that against its byte budget.

Scope (by design, with a dense fallback — never an error):

* the payload must be ``zero_untracked`` — in the regeneration regime the
  untracked weights are W(0), i.e. dense, and packing buys nothing;
* the payload must carry no buffers (BatchNorm statistics imply layers
  this executor does not run);
* the architecture must consist of the plane-free layers this module
  knows how to execute: ``Sequential`` / ``Linear`` / ``ReLU`` /
  ``Flatten`` / ``Identity`` / ``Dropout`` (eval-mode no-op).

Anything outside that scope makes :meth:`PackedModel.try_build` return
``None`` and the registry materializes the entry densely as before.

Parity: packed forwards match dense materialization to the sparse-kernel
tolerance (CSR accumulation order differs from BLAS blocking; see
``docs/sparse.md``).  Construction is deterministic, so evict →
rematerialize of a packed entry is bitwise stable.
"""

from __future__ import annotations

import numpy as np

from repro.io import SparsePayload
from repro.nn import Dropout, Flatten, Identity, Linear, Module, ReLU, Sequential
from repro.tensor import Tensor
from repro.tensor.kernels import sparse

__all__ = ["PackedModel"]

#: Layers executed as pure pass-throughs in eval mode.
_PASSTHROUGH = (Identity, Dropout)


def _param_offsets(model: Module) -> dict[int, int]:
    """Flat-plane offset of every parameter, without finalizing.

    ``Module.finalize`` assigns consecutive index ranges in
    ``named_parameters`` definition order; the same walk over the
    *unfinalized* factory model reproduces those offsets exactly, so the
    payload's flat indices can be sliced per-parameter with no plane.
    """
    offsets: dict[int, int] = {}
    offset = 0
    for _, p in model.named_parameters():
        offsets[id(p)] = offset
        offset += p.size
    return offsets


class _PackedLinear:
    """One Linear layer as (CSR weight pack, dense bias vector)."""

    __slots__ = ("pack", "bias")

    def __init__(self, pack: sparse.PackedWeight, bias: np.ndarray | None):
        self.pack = pack
        self.bias = bias

    @property
    def nbytes(self) -> int:
        return self.pack.nbytes + (self.bias.nbytes if self.bias is not None else 0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return sparse.sparse_linear(self.pack, x, self.bias)


def _slice_span(payload: SparsePayload, lo: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tracked (local flat indices, values) falling inside ``[lo, lo+size)``."""
    s, e = np.searchsorted(payload.indices, (lo, lo + size))
    return payload.indices[s:e] - lo, payload.values[s:e]


def _build_steps(module: Module, offsets: dict[int, int], payload: SparsePayload) -> list | None:
    """Flatten the module tree into executable steps; None if unsupported."""
    if isinstance(module, Sequential):
        steps: list = []
        for layer in module.layers:
            sub = _build_steps(layer, offsets, payload)
            if sub is None:
                return None
            steps.extend(sub)
        return steps
    if isinstance(module, Linear):
        w = module.weight
        local, values = _slice_span(payload, offsets[id(w)], w.size)
        pack = sparse.pack_from_indices(tuple(w.shape), local, values)
        bias = None
        if module.bias is not None:
            b = module.bias
            bias = np.zeros(b.shape, dtype=np.float32)
            b_local, b_values = _slice_span(payload, offsets[id(b)], b.size)
            bias[b_local] = b_values
        return [_PackedLinear(pack, bias)]
    if isinstance(module, ReLU):
        return [lambda x: np.maximum(x, 0.0)]
    if isinstance(module, Flatten):
        return [lambda x: x.reshape(x.shape[0], -1)]
    if isinstance(module, _PASSTHROUGH):
        return [lambda x: x]
    return None


class PackedModel:
    """A checkpoint executed straight from its packed tracked set.

    Duck-types the slice of ``Module`` the registry's :class:`ModelHandle`
    uses — calling it with a :class:`~repro.tensor.Tensor` returns a
    Tensor — while exposing :attr:`nbytes` as its resident cost.  Build
    via :meth:`try_build`; the constructor is internal.
    """

    def __init__(self, steps: list, num_parameters: int):
        self._steps = steps
        self.num_params = num_parameters

    @classmethod
    def try_build(cls, model: Module, payload: SparsePayload) -> "PackedModel | None":
        """Pack ``payload`` against the (unfinalized) factory ``model``.

        Returns ``None`` whenever the dense path should be used instead:
        scipy missing, regeneration-mode payload, buffer-carrying payload,
        or an architecture with layers this executor does not support.
        """
        if not sparse.is_available():
            return None
        if not payload.zero_untracked or payload.buffers:
            return None
        total = sum(p.size for p in model.parameters())
        if payload.indices.size and int(payload.indices[-1]) >= total:
            raise ValueError("checkpoint indices exceed model parameter count")
        steps = _build_steps(model, _param_offsets(model), payload)
        if steps is None:
            return None
        return cls(steps, total)

    @property
    def nbytes(self) -> int:
        """Resident bytes: packed structures + dense bias vectors."""
        return sum(getattr(step, "nbytes", 0) for step in self._steps)

    def eval(self) -> "PackedModel":
        return self  # forward-only by construction

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32)
        for step in self._steps:
            out = step(out)
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return Tensor(self.forward(x.numpy()))
