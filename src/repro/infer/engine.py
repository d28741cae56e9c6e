"""Inference with on-the-fly weight regeneration.

The accelerator the paper sketches never stores untracked weights: at
inference, each layer's weight block is *materialized on demand* — the
xorshift unit regenerates the initialization values, the k tracked values
are fetched from the small on-chip weight memory and scattered over them —
used for the layer's arithmetic, and discarded.

:class:`RegeneratingInferenceEngine` simulates exactly that on top of a
sparse checkpoint's content, a :class:`~repro.io.SparsePayload` (seed,
tracked indices/values, the zeroing-ablation flag, BatchNorm statistics):

* for :class:`~repro.nn.Sequential` models it streams layer by layer, so
  the peak resident weight count is ``max_layer_weights + k`` instead of
  the full model;
* for arbitrary module graphs it materializes per top-level submodule;
* a traffic report counts tracked-weight fetches and regenerations per
  forward pass, feeding the same :class:`~repro.energy.EnergyModel` as
  training.

Outputs are bit-identical to running the trained dense model (verified in
the test suite), because regeneration is exact.  Serving, which keeps the
whole plane resident instead, materializes it with
:func:`repro.io.apply_sparse_payload`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.io import SparsePayload
from repro.nn import Module, Parameter, Sequential
from repro.optim.base import AccessCounter
from repro.tensor import Tensor, no_grad

__all__ = ["RegeneratingInferenceEngine", "InferenceTraffic"]


@dataclass
class InferenceTraffic:
    """Weight traffic of one forward pass."""

    tracked_fetches: int
    regenerations: int
    peak_resident_weights: int

    def as_counter(self) -> AccessCounter:
        """View as an AccessCounter for the energy model."""
        return AccessCounter(
            weight_reads=self.tracked_fetches,
            regenerations=self.regenerations,
            steps=1,
        )


class RegeneratingInferenceEngine:
    """Run inference storing only the tracked weights.

    Parameters
    ----------
    model:
        A finalized model *architecture* (it defines the flat index map).
        Its current weight values are ignored: weights are materialized
        from the payload, whose BatchNorm statistics are loaded into it.
    payload:
        The sparse checkpoint content: :func:`repro.io.sparse_payload` of
        a trained run, or :func:`repro.io.read_sparse_payload` of a file.
    """

    def __init__(self, model: Module, payload: SparsePayload):
        if not model.is_finalized:
            raise RuntimeError("model must be finalized (it defines the flat index map)")
        if payload.k and payload.indices[-1] >= model.num_parameters():
            raise ValueError("tracked index out of range for this model")
        for dotted, arr in payload.buffers.items():
            model._set_buffer(dotted, arr)
        self.model = model
        self.payload = payload
        self.last_traffic: InferenceTraffic | None = None

    # ------------------------------------------------------------------ #

    def _materialize(self, param: Parameter) -> tuple[np.ndarray, int, int]:
        """Regenerate one parameter block and overlay its tracked values.

        Returns ``(weights, n_tracked, n_regenerated)``.
        """
        payload = self.payload
        lo = param.base_index
        hi = lo + param.size
        if payload.zero_untracked:
            block = np.zeros(param.size, dtype=np.float32)
        else:
            block = param.initializer.regenerate(payload.seed, lo, param.shape).reshape(-1)
        start, stop = np.searchsorted(payload.indices, [lo, hi])
        sel = slice(start, stop)
        block[payload.indices[sel] - lo] = payload.values[sel]
        n_tracked = stop - start
        return block.reshape(param.shape), int(n_tracked), param.size - int(n_tracked)

    def forward(self, x: np.ndarray | Tensor) -> np.ndarray:
        """One forward pass; records traffic in :attr:`last_traffic`."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))
        was_training = self.model.training
        self.model.eval()
        fetches = 0
        regens = 0
        peak = 0

        try:
            with no_grad():
                if isinstance(self.model, Sequential):
                    out = x
                    for layer in self.model:
                        resident = 0
                        for _, p in layer.named_parameters():
                            w, t, r = self._materialize(p)
                            p.data = w
                            fetches += t
                            regens += r
                            resident += p.size
                        out = layer(out)
                        peak = max(peak, resident)
                else:
                    resident = 0
                    for _, p in self.model.named_parameters():
                        w, t, r = self._materialize(p)
                        p.data = w
                        fetches += t
                        regens += r
                        resident += p.size
                    peak = resident
                    out = self.model(x)
        finally:
            self.model.train(was_training)

        self.last_traffic = InferenceTraffic(
            tracked_fetches=fetches,
            regenerations=regens,
            peak_resident_weights=peak + self.payload.k,
        )
        return out.numpy()

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions over a batch of inputs, streaming each batch."""
        outs = []
        for start in range(0, len(x), batch_size):
            outs.append(self.forward(x[start : start + batch_size]).argmax(axis=-1))
        return np.concatenate(outs)

    def storage_floats(self) -> int:
        """Persistent weight storage: only the tracked values."""
        return self.payload.k
