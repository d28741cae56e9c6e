"""The DropBack optimizer: continuous pruning during training.

Implements Algorithm 1 of the paper.  At every step:

1. compute the SGD update candidate ``W' = W_{t-1} - lr * g`` for every
   parameter;
2. score each weight by its **accumulated gradient magnitude**.  Because an
   untracked weight always sits at its initial value, the accumulated
   gradient is simply ``|W' - W(0)|`` — "the tracked set T requires no
   storage: its elements are recomputed when needed from W_{t-1} - W(0)";
3. keep the ``k`` highest-scoring weights (the *tracked set*) at their
   updated values, and reset every other weight to its initialization
   value, regenerated from the network seed via xorshift;
4. once :meth:`freeze` has been called (after a few epochs, per the paper),
   the tracked set stops changing and untracked gradients are ignored.

Only ``k`` weights are ever stored; the weight-memory compression ratio is
``total_params / k`` (the paper's "weight compression" column).

Implementation
--------------
The optimizer runs on the model's **flat weight plane** built by
``Module.finalize`` and reads gradients from its **gradient plane**
(``Module.grad_plane``, laid out the same way): every parameter and its
gradient are views of two contiguous float32 buffers, so candidates,
scores, and the commit are a handful of whole-plane vectorized ops against
scratch buffers preallocated in ``__init__`` — no per-parameter Python
loop over array ops, and no per-step allocation after warmup.
:meth:`freeze` precomputes the tracked index array, after which each step
touches **only the k tracked entries** (O(k) gather → update → scatter,
timed as ``dropback.step.frozen``) instead of O(total_params).

The seed per-parameter implementation is retained verbatim as
:meth:`reference_step`; the optimizer conformance suite proves both paths
bit-identical across every criterion / ``zero_untracked`` / freeze
combination.  Both select through one hook, :meth:`_select`, which
:class:`~repro.core.UniformBudgetDropBack` overrides.

The class also exposes the instrumentation the paper's analysis needs:
per-step tracked-set churn (Fig. 2), per-layer retention counts (Table 2),
and memory-access counters for the energy model (Section 1).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.selection import top_k_mask
from repro.nn import Module, Parameter
from repro.optim.base import Optimizer
from repro.profile import profiled

__all__ = ["DropBack"]

Criterion = Literal["accumulated", "magnitude", "current"]


class DropBack(Optimizer):
    """DropBack training: constrain updates to a budget of ``k`` weights.

    Parameters
    ----------
    model:
        Finalized model (so each parameter has a seed/index identity).
    k:
        Tracked-weight budget (e.g. 50_000, 20_000, 1_500 in Table 1).
    lr:
        Learning rate (the paper uses 0.4 with step decay).
    criterion:
        Weight-importance score used for selection:

        * ``"accumulated"`` — accumulated gradient ``|W' - W(0)|``
          (the DropBack criterion);
        * ``"magnitude"`` — ``|W'|``, the naive alternative the paper
          argues against (ablation);
        * ``"current"`` — current-step gradient ``|lr * g|`` (ablation).
    zero_untracked:
        Ablation switch: set untracked weights to 0 instead of regenerating
        W(0).  The paper reports this costs 60x -> 2x achievable
        compression on MNIST.
    """

    def __init__(
        self,
        model: Module,
        k: int,
        lr: float,
        criterion: Criterion = "accumulated",
        zero_untracked: bool = False,
    ):
        super().__init__(model, lr)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if criterion not in ("accumulated", "magnitude", "current"):
            raise ValueError(f"unknown criterion: {criterion!r}")
        self.k = int(k)
        self.criterion: Criterion = criterion
        self.zero_untracked = bool(zero_untracked)

        # Parameters in plane order: parameter i is weight_plane[lo:hi]
        # for (lo, hi) = _spans[i].
        self._named: list[tuple[str, Parameter]] = list(model.named_parameters())
        self._spans = [(p.base_index, p.base_index + p.size) for _, p in self._named]
        n = self._n = model.weight_plane.size

        # The reset reference untracked weights take: W(0), or 0 in the
        # zeroing ablation.  `_reference` holds per-parameter views of it
        # for subclasses (QAT) and the reference step.
        self._ref_flat = np.zeros(n, dtype=np.float32)
        if not self.zero_untracked:
            for (lo, hi), (_, p) in zip(self._spans, self._named):
                self._ref_flat[lo:hi].reshape(p.shape)[...] = p.initial_values(model.seed)
        self._reference = [self._ref_flat[lo:hi].reshape(p.shape)
                           for (lo, hi), (_, p) in zip(self._spans, self._named)]

        # Whole-plane scratch (allocated once; the hot step never allocates).
        self._cand_flat = np.empty(n, dtype=np.float32)  # SGD candidates W'
        self._score32 = np.empty(n, dtype=np.float32)  # selection scores
        self._mask_scratch = np.empty(n, dtype=bool)  # _select's output buffer
        self._mask_store = np.empty(n, dtype=bool)  # committed tracked set
        self._swap_scratch = np.empty(n, dtype=bool)  # churn = mask & ~prev

        self.frozen = False
        self._mask_flat: np.ndarray | None = None  # tracked-set mask over the plane
        self.last_swaps: int = 0  # weights that entered the tracked set this step
        self.swap_history: list[int] = []
        self.total_swaps: int = 0  # running churn total

        # Frozen-path index array and O(k) scratch, built by freeze().
        self._tracked_idx: np.ndarray | None = None
        self._g_k: np.ndarray | None = None
        self._w_k: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def compression_ratio(self) -> float:
        """Weight compression vs. the dense model, ``total / k``."""
        return self.num_parameters / float(self.k)

    def storage_floats(self) -> int:
        """Persistent weight storage: only the k tracked values."""
        return min(self.k, self._n)

    @property
    def tracked_mask(self) -> np.ndarray | None:
        """Copy of the current flat tracked-set mask (None before step 1)."""
        return None if self._mask_flat is None else self._mask_flat.copy()

    # ------------------------------------------------------------------ #
    # freeze
    # ------------------------------------------------------------------ #

    def freeze(self) -> None:
        """Freeze the tracked set (paper: after a few epochs).

        Subsequent steps only update weights already tracked; untracked
        gradients are no longer scored, saving the associated accesses.
        Freezing precomputes the sorted tracked index array, so every
        frozen step is O(k) work touching only the tracked entries.
        """
        if self._mask_flat is None:
            raise RuntimeError("cannot freeze before the first step")
        self.frozen = True
        idx = np.flatnonzero(self._mask_flat)
        self._tracked_idx = idx
        self._g_k = np.empty(idx.size, dtype=np.float32)
        self._w_k = np.empty(idx.size, dtype=np.float32)

    def unfreeze(self) -> None:
        """Resume tracked-set re-selection (for experiments)."""
        self.frozen = False
        self._tracked_idx = None
        self._g_k = None
        self._w_k = None

    # ------------------------------------------------------------------ #
    # step — vectorized flat-plane implementation
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """One DropBack update (Algorithm 1), on the flat weight plane."""
        with profiled("dropback.step"):
            if self.frozen:
                with profiled("dropback.step.frozen"):
                    self._frozen_step()
            else:
                self._unfrozen_step()
            self._count_accesses()

    def _unfrozen_step(self) -> None:
        lr = self.lr
        w = self.weight_plane  # read per step: follows adopt_plane
        g = self.model.grad_plane

        # 1. SGD candidates W' = W - lr*g as two whole-plane ops.
        with profiled("dropback.accumulate"):
            np.multiply(g, lr, out=self._cand_flat)
            np.subtract(w, self._cand_flat, out=self._cand_flat)

        reference = self._ref_flat

        # 2-3. Score and select the tracked set.
        with profiled("dropback.topk"):
            s32 = self._score32
            if self.criterion == "accumulated":
                # Accumulated gradient = total applied update = distance
                # from the value untracked weights reset to (W(0), or 0 in
                # the zeroing ablation — where this degenerates to
                # magnitude selection, cf. paper Section 2.1).
                np.subtract(self._cand_flat, reference, out=s32)
                np.abs(s32, out=s32)
            elif self.criterion == "magnitude":
                np.abs(self._cand_flat, out=s32)
            else:  # current-step gradient
                np.multiply(g, lr, out=s32)
                np.abs(s32, out=s32)
            mask = self._select(s32)
        self._record_selection(mask)
        mask = self._mask_flat

        # 4. Commit: tracked weights take the update, the rest regenerate.
        with profiled("dropback.regenerate"):
            np.copyto(w, reference)
            np.copyto(w, self._cand_flat, where=mask)

    def _frozen_step(self) -> None:
        """O(k) frozen update: gather tracked grads, update, scatter back."""
        gk, wk = self._g_k, self._w_k
        np.take(self.model.grad_plane, self._tracked_idx, out=gk)
        np.multiply(gk, self.lr, out=gk)
        w = self.weight_plane
        np.take(w, self._tracked_idx, out=wk)
        np.subtract(wk, gk, out=wk)
        w[self._tracked_idx] = wk

    def _select(self, scores: np.ndarray) -> np.ndarray:
        """The tracked-set mask for ``scores``: the global top-k.

        Written into the scratch mask.  Both :meth:`step` and
        :meth:`reference_step` select through this one hook, so a
        subclass that overrides it (per-layer budgets) changes both.
        """
        return top_k_mask(scores, self.k, out=self._mask_scratch)

    def _record_selection(self, mask: np.ndarray) -> None:
        """Fold a fresh tracked-set mask into churn stats and commit it."""
        if self._mask_flat is not None:
            # mask & ~prev == mask > prev for booleans, allocation-free.
            np.greater(mask, self._mask_flat, out=self._swap_scratch)
            self.last_swaps = int(np.count_nonzero(self._swap_scratch))
        else:
            self.last_swaps = int(np.count_nonzero(mask))
        self.total_swaps += self.last_swaps
        self.swap_history.append(self.last_swaps)
        np.copyto(self._mask_store, mask)
        self._mask_flat = self._mask_store

    def _count_accesses(self) -> None:
        # Access accounting: k tracked weights are read and written; every
        # untracked weight is regenerated on-chip instead of fetched.
        n_tracked = min(self.k, self._n)
        self.counter.weight_reads += n_tracked
        self.counter.weight_writes += n_tracked
        self.counter.regenerations += self._n - n_tracked
        self.counter.steps += 1

    # ------------------------------------------------------------------ #
    # reference step — the seed per-parameter implementation, retained
    # ------------------------------------------------------------------ #

    def reference_step(self) -> None:
        """One DropBack update via the original per-parameter dense path.

        O(total_params) with per-parameter candidate copies and a dense
        ``np.where`` commit — kept verbatim as the semantic reference the
        conformance suite checks :meth:`step` against, and as the dense
        baseline the perf microbenches measure the flat-plane speedup
        over.  Fully interchangeable with :meth:`step` (shared mask,
        churn, and counter bookkeeping).
        """
        with profiled("dropback.reference_step"):
            self._reference_step_impl()
            self._count_accesses()

    def _reference_step_impl(self) -> None:
        reference = self._reference

        # 1. SGD candidates for every parameter (the accumulated-gradient
        # update each weight *would* take).
        candidates = []
        for _, p in self._named:
            if p.grad is None:
                candidates.append(p.data.copy())
            else:
                candidates.append(p.data - self.lr * p.grad)

        # 2-3. Score and select the tracked set.
        if self.frozen:
            mask_flat = self._mask_flat
        else:
            scores = np.empty(self._n, dtype=np.float64)
            for (lo, hi), cand, ref_p, (_, p) in zip(
                self._spans, candidates, reference, self._named
            ):
                if self.criterion == "accumulated":
                    s = np.abs(cand - ref_p)
                elif self.criterion == "magnitude":
                    s = np.abs(cand)
                else:  # current-step gradient
                    s = (
                        np.abs(self.lr * p.grad)
                        if p.grad is not None
                        else np.zeros_like(cand)
                    )
                scores[lo:hi] = s.reshape(-1)
            self._record_selection(self._select(scores))
            mask_flat = self._mask_flat

        # 4. Commit: tracked weights take the update, the rest regenerate.
        for (lo, hi), cand, ref, (_, p) in zip(
            self._spans, candidates, reference, self._named
        ):
            m = mask_flat[lo:hi].reshape(p.shape)
            p.data = np.where(m, cand, ref).astype(p.data.dtype)

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    def tracked_counts(self) -> dict[str, int]:
        """Tracked weights per parameter (Table 2's per-layer retention)."""
        if self._mask_flat is None:
            raise RuntimeError("no tracked set yet; take at least one step")
        out: dict[str, int] = {}
        for (lo, hi), (name, _) in zip(self._spans, self._named):
            out[name] = int(np.count_nonzero(self._mask_flat[lo:hi]))
        return out

    def tracked_counts_by_layer(self) -> dict[str, int]:
        """Tracked weights aggregated by layer (drop the parameter leaf name)."""
        agg: dict[str, int] = {}
        for name, count in self.tracked_counts().items():
            layer = name.rsplit(".", 1)[0] if "." in name else name
            agg[layer] = agg.get(layer, 0) + count
        return agg

    def untracked_values_match_init(self) -> bool:
        """Invariant check: every untracked weight equals its regenerated init.

        Used by the test suite and available as a runtime assertion hook.
        """
        if self._mask_flat is None:
            return True
        seed = self.model.seed
        for (lo, hi), (_, p) in zip(self._spans, self._named):
            m = self._mask_flat[lo:hi].reshape(p.shape)
            expect = (
                np.zeros_like(p.data)
                if self.zero_untracked
                else p.initializer.regenerate(seed, p.base_index, p.shape)
            )
            if not np.array_equal(p.data[~m], expect[~m]):
                return False
        return True
