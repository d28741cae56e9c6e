"""Quantized training: combining DropBack with low-precision storage.

The paper (Section 5) notes DropBack composes with training-time
quantization à la Gupta et al. (2015): the k *tracked* weights are the only
stored state, so storing them at reduced precision multiplies the
compression — total storage shrinks by ``compression_ratio x (32 / bits)``.

:class:`QuantizedDropBack` quantizes the tracked values with stochastic
rounding after every DropBack step; untracked weights are exact by
construction (they are regenerated, never stored).  :class:`QuantizedSGD`
is the dense counterpart for comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.dropback import DropBack
from repro.nn import Module
from repro.optim.sgd import SGD
from repro.quant.quantizer import UniformQuantizer

__all__ = ["QuantizedDropBack", "QuantizedSGD"]


class QuantizedDropBack(DropBack):
    """DropBack whose tracked weights live at ``bits``-bit precision.

    After each step, every parameter is snapped to the quantization grid;
    untracked entries then get re-regenerated exactly (full precision comes
    for free from the PRNG, one of the regeneration path's perks).

    Parameters
    ----------
    bits:
        Storage precision of tracked weights.
    (remaining parameters as for :class:`~repro.core.DropBack`)
    """

    def __init__(self, model: Module, k: int, lr: float, bits: int = 8, **kwargs):
        super().__init__(model, k, lr, **kwargs)
        self.bits = int(bits)
        self._quant = UniformQuantizer(bits=bits, stochastic=True, seed=model.seed)

    def step(self) -> None:
        super().step()
        # Quantize stored (tracked) values; restore untracked to exact W(0).
        mask = self._mask_flat
        for (lo, hi), ref, (_, p) in zip(self._spans, self._reference, self._named):
            snapped = self._quant.roundtrip(p.data)
            m = mask[lo:hi].reshape(p.shape)
            p.data = np.where(m, snapped, ref).astype(p.data.dtype)

    def storage_bits(self) -> int:
        """Total persistent weight storage in bits (values only)."""
        return self.storage_floats() * self.bits

    @property
    def total_compression(self) -> float:
        """Combined count x precision compression vs dense float32."""
        return self.compression_ratio * (32.0 / self.bits)


class QuantizedSGD(SGD):
    """Dense SGD with weights stored at ``bits``-bit precision.

    The Gupta et al. (2015) baseline: every weight is kept, but snapped to
    the quantization grid (stochastic rounding) after each update.
    """

    def __init__(self, model: Module, lr: float, bits: int = 8, **kwargs):
        super().__init__(model, lr, **kwargs)
        self.bits = int(bits)
        self._quant = UniformQuantizer(bits=bits, stochastic=True, seed=model.seed)

    def step(self) -> None:
        super().step()
        for p in self.params:
            p.data = self._quant.roundtrip(p.data)

    def storage_bits(self) -> int:
        return self.num_parameters * self.bits
