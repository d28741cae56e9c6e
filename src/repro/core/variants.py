"""DropBack variants for design-space ablations.

The published algorithm selects the top-k accumulated gradients *globally*
across all parameters, which lets the budget flow to wherever learning
happens (Table 2 shows it concentrating in early layers at large k and in
late layers at tiny k).  The natural alternative an implementer might
reach for is a fixed *per-layer* allocation.  :class:`UniformBudgetDropBack`
implements that variant so the ablation bench can quantify what global
selection buys.
"""

from __future__ import annotations

import numpy as np

from repro.core.dropback import DropBack
from repro.core.selection import top_k_mask
from repro.nn import Module

__all__ = ["UniformBudgetDropBack"]


class UniformBudgetDropBack(DropBack):
    """DropBack with the budget split across parameters pro-rata by size.

    Each parameter tensor gets ``k * size / total`` tracked slots (at least
    one), and top-k selection runs *within* each tensor instead of
    globally: :meth:`_select` is the only override, so :meth:`step` and
    :meth:`reference_step` both honour the per-layer budgets.  Everything
    else (regeneration, freezing, accounting) is inherited.
    """

    def __init__(self, model: Module, k: int, lr: float, **kwargs):
        super().__init__(model, k, lr, **kwargs)
        total = self._n
        target = min(k, total)
        sizes = [hi - lo for lo, hi in self._spans]
        # Largest-remainder apportionment: floors first, then hand out the
        # remainder by fractional part; every layer keeps at least one slot
        # and never exceeds its size.
        raw = [target * size / total for size in sizes]
        budgets = [max(1, min(size, int(r))) for r, size in zip(raw, sizes)]
        while sum(budgets) < target:
            # Most under-served layer (by fractional shortfall) with headroom.
            candidates = [
                (raw[j] - budgets[j], j)
                for j in range(len(budgets))
                if budgets[j] < sizes[j]
            ]
            if not candidates:
                break
            budgets[max(candidates)[1]] += 1
        while sum(budgets) > target:
            candidates = [(budgets[j], j) for j in range(len(budgets)) if budgets[j] > 1]
            if not candidates:
                break
            budgets[max(candidates)[1]] -= 1
        self._layer_budgets = budgets

    def _select(self, scores: np.ndarray) -> np.ndarray:
        mask = self._mask_scratch
        for (lo, hi), budget in zip(self._spans, self._layer_budgets):
            top_k_mask(scores[lo:hi], min(budget, hi - lo), out=mask[lo:hi])
        return mask
