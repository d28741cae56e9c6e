"""Network slimming (comparison baseline).

The paper's baseline (c): Liu et al. (2017), "a modern train-prune-retrain
pruning method".  The pipeline:

1. **Train with channel-level sparsity**: add an L1 penalty ``λ·Σ|γ|`` on
   all BatchNorm scale factors, pushing unimportant channels toward zero.
2. **Prune**: zero out the ``prune_fraction`` of channels with the smallest
   ``|γ|`` globally (γ and β are set to 0, which removes the channel's
   contribution entirely since it feeds a BN output).
3. **Retrain** the slimmed network to recover accuracy.

We implement pruning as channel masking rather than structural network
rebuilding: numerically identical outputs, and it applies uniformly to
VGG-S, DenseNet, and WRN (the paper notes slimming collapses on WRN —
Table 3 shows 16.6% error at 4x — a shape the bench harness reproduces).
The *effective* weight compression is computed from the masked channels'
incoming and outgoing dense weights.
"""

from __future__ import annotations

import numpy as np

from repro.nn import BatchNorm1d, BatchNorm2d, Conv2d, Linear, Module
from repro.optim import SGD

__all__ = ["SlimmingSGD", "prune_channels", "slimming_compression", "bn_gammas"]


def bn_gammas(model: Module):
    """All BatchNorm modules in the model (slimming's pruning targets)."""
    return [m for m in model.modules() if isinstance(m, (BatchNorm1d, BatchNorm2d))]


class SlimmingSGD(SGD):
    """SGD plus the slimming L1 subgradient on BatchNorm scales.

    Parameters
    ----------
    l1:
        Sparsity strength λ on Σ|γ| (Liu et al. use 1e-4 to 1e-5).
    """

    def __init__(self, model: Module, lr: float, l1: float = 1e-4, **kwargs):
        super().__init__(model, lr, **kwargs)
        if l1 < 0:
            raise ValueError(f"l1 must be non-negative, got {l1}")
        self.l1 = float(l1)
        self._gammas = [bn.gamma for bn in bn_gammas(model)]
        if not self._gammas:
            raise ValueError("network slimming requires BatchNorm layers")

    def step(self) -> None:
        # Add the L1 subgradient before the base update consumes .grad.
        if self.l1:
            for g in self._gammas:
                sub = self.l1 * np.sign(g.data)
                g.grad = sub if g.grad is None else g.grad + sub
        super().step()


def prune_channels(model: Module, prune_fraction: float) -> dict[str, np.ndarray]:
    """Zero the globally smallest-|γ| channels across all BatchNorm layers.

    Returns a mapping from BN module repr to the boolean *kept* mask, and
    mutates γ/β (and running stats) of pruned channels to zero so the
    channel is dead end-to-end.
    """
    if not 0.0 <= prune_fraction < 1.0:
        raise ValueError(f"prune_fraction must be in [0, 1), got {prune_fraction}")
    bns = bn_gammas(model)
    if not bns:
        raise ValueError("model has no BatchNorm layers to slim")
    scores = np.concatenate([np.abs(bn.gamma.data) for bn in bns])
    n_prune = int(round(scores.size * prune_fraction))
    if n_prune == 0:
        return {f"bn{i}": np.ones(bn.num_features, bool) for i, bn in enumerate(bns)}
    threshold = np.partition(scores, n_prune - 1)[n_prune - 1]

    masks: dict[str, np.ndarray] = {}
    for i, bn in enumerate(bns):
        keep = np.abs(bn.gamma.data) > threshold
        if not keep.any():
            # Never kill an entire layer: keep its strongest channel.
            keep[np.argmax(np.abs(bn.gamma.data))] = True
        dead = ~keep
        bn.gamma.data[dead] = 0.0
        bn.beta.data[dead] = 0.0
        bn.running_mean[dead] = 0.0
        bn.running_var[dead] = 1.0
        masks[f"bn{i}"] = keep
    return masks


def slimming_compression(model: Module) -> float:
    """Effective weight compression implied by the current dead channels.

    A channel whose BN scale is exactly zero contributes nothing, so the
    conv/linear weights that *produce* it (its filter) and the weight slices
    that *consume* it (the next layer's matching input channels) are both
    structurally removable.  We estimate this from the module traversal
    order: for each conv/linear, the nearest following BN gives the dead
    output fraction and the nearest preceding BN the dead input fraction;
    a weight survives only if both its row and column are alive.

    This is an estimate (residual/dense connectivity is approximated by
    traversal adjacency, exactly as structural-pruning papers approximate
    it), adequate for the compression column of Table 3.
    """
    mods = list(model.modules())
    total = model.num_parameters()
    removable = 0.0

    def dead_fraction(bn) -> float:
        return float(np.mean(bn.gamma.data == 0.0))

    last_bn = None
    # Pair each conv/linear with its neighbouring BNs in traversal order.
    nexts: list[float] = []
    for i, m in enumerate(mods):
        if isinstance(m, (Conv2d, Linear)):
            # preceding BN -> dead inputs
            p_in = dead_fraction(last_bn) if last_bn is not None else 0.0
            # following BN (before the next conv/linear) -> dead outputs
            p_out = 0.0
            for nxt in mods[i + 1 :]:
                if isinstance(nxt, (Conv2d, Linear)):
                    break
                if isinstance(nxt, (BatchNorm1d, BatchNorm2d)):
                    p_out = dead_fraction(nxt)
                    break
            frac_dead = p_in + p_out - p_in * p_out
            removable += m.weight.size * frac_dead
        elif isinstance(m, (BatchNorm1d, BatchNorm2d)):
            last_bn = m
            removable += 2.0 * float(np.sum(m.gamma.data == 0.0))
    kept = total - removable
    return total / kept if kept > 0 else float("inf")
