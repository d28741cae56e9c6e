"""Accumulated-gradient statistics (paper Figures 1 and 2).

* Figure 1: the distribution of accumulated gradients after standard SGD
  training is sharply peaked at zero — most weights barely move from their
  initialization, motivating tracking only the top movers.
  :func:`accumulated_gradients` and :func:`gradient_density` reproduce it.

* Figure 2: the membership of the top-k accumulated-gradient set stabilizes
  after the first few mini-batches, justifying freezing.
  :class:`TopKChurnTracker` counts per-step swaps.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import top_k_mask
from repro.nn import Module
from repro.train.callbacks import Callback

__all__ = ["accumulated_gradients", "gradient_density", "TopKChurnTracker"]


def accumulated_gradients(model: Module, w0: np.ndarray | None = None) -> np.ndarray:
    """Flat vector of accumulated gradients ``w_t - w_0`` for all parameters.

    Since plain SGD applies ``w_t = w_0 - Σ lr·g``, the displacement from
    initialization *is* the (signed) accumulated gradient, which is what the
    paper's Figure 1 histograms.

    Parameters
    ----------
    model:
        Finalized, (partially) trained model.
    w0:
        Optional explicit initial flat weight vector; defaults to
        regenerating each parameter's initialization.
    """
    current = model.weight_plane
    if w0 is None:
        seed = model.seed
        w0 = np.concatenate(
            [p.initial_values(seed).reshape(-1) for p in model.parameters()]
        )
    w0 = np.asarray(w0)
    if w0.shape != current.shape:
        raise ValueError(f"w0 shape {w0.shape} != current {current.shape}")
    return current - w0


def gradient_density(
    values: np.ndarray, grid: np.ndarray | None = None, bandwidth: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate of a value distribution (Fig. 1).

    Returns ``(grid, density)``.  Bandwidth defaults to Scott's rule.  The
    KDE is evaluated with a vectorized kernel sum over a subsample when the
    input is very large.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty value array")
    if values.size > 20000:
        rng = np.random.default_rng(0)
        values = rng.choice(values, size=20000, replace=False)
    n = values.size
    std = values.std() or 1e-12
    h = bandwidth if bandwidth is not None else 1.06 * std * n ** (-1 / 5)
    if grid is None:
        lo, hi = values.min() - 3 * h, values.max() + 3 * h
        grid = np.linspace(lo, hi, 512)
    z = (grid[:, None] - values[None, :]) / h
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (n * h * np.sqrt(2 * np.pi))
    return grid, dens


class TopKChurnTracker(Callback):
    """Count per-step membership changes of the top-k accumulated-gradient set.

    Reproduces Figure 2 for *baseline SGD* training: at each step the top-k
    set of ``|w_t - w_0|`` is recomputed and the number of newly entered
    weights recorded.  (For DropBack itself the optimizer's
    ``swap_history`` gives the same series for free.)
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = int(k)
        self.swaps: list[int] = []
        self._w0: np.ndarray | None = None
        self._prev_mask: np.ndarray | None = None

    def on_train_begin(self, trainer) -> None:
        self._w0 = trainer.model.weight_plane.astype(np.float64)

    def on_step_end(self, trainer, step: int, loss: float) -> None:
        # |w_t - w_0| in float64, computed straight from the plane (the
        # float32 operand is upcast exactly) into one plane-sized buffer.
        scores = np.subtract(trainer.model.weight_plane, self._w0)
        np.abs(scores, out=scores)
        mask = top_k_mask(scores, self.k)
        if self._prev_mask is None:
            self.swaps.append(int(mask.sum()))
        else:
            self.swaps.append(int(np.count_nonzero(mask & ~self._prev_mask)))
        self._prev_mask = mask

    def series(self) -> np.ndarray:
        return np.asarray(self.swaps)
