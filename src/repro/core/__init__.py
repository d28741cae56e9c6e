"""DropBack — the paper's primary contribution."""

from repro.core.dropback import DropBack
from repro.core.selection import select_scan, top_k_mask
from repro.core.variants import UniformBudgetDropBack

__all__ = [
    "DropBack",
    "UniformBudgetDropBack",
    "select_scan",
    "top_k_mask",
]
