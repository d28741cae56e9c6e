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
The optimizer runs on the **flat weight plane** built by
``Module.finalize``: prunable parameters are one contiguous float32 buffer,
so candidates, scores, and the commit are a handful of whole-plane
vectorized ops against scratch buffers preallocated in ``__init__`` — no
per-parameter Python loop over array ops, and no per-step allocation after
warmup.  :meth:`freeze` precomputes the tracked index array plus per-layer
gather/scatter slices, after which each step touches **only the k tracked
entries** (O(k) gather → update → scatter, timed as
``dropback.step.frozen``) instead of O(total_params).

The seed per-parameter implementation is retained verbatim as
:meth:`reference_step`; the equivalence suite proves both paths bit-identical
across every criterion / ``zero_untracked`` / ``strict_regeneration`` /
freeze combination.

The class also exposes the instrumentation the paper's analysis needs:
per-step tracked-set churn (Fig. 2), per-layer retention counts (Table 2),
and memory-access counters for the energy model (Section 1).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.selection import Selector, SortSelector
from repro.nn import Module, Parameter
from repro.optim.base import Optimizer
from repro.profile import profiled
from repro.tensor.kernels import sparse as sparse_kernels

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
    selector:
        Top-k strategy; defaults to exact :class:`SortSelector`.
    strict_regeneration:
        If True, untracked values are *recomputed from the xorshift PRNG on
        every step* rather than read from a cached W(0) array — the
        faithful hardware behaviour.  Slower; used in tests to prove the
        cached path is exactly equivalent.
    include_nonprunable:
        If False, parameters flagged ``prunable=False`` get plain SGD
        updates and do not consume budget.  Default True (the paper prunes
        everything, including BatchNorm and PReLU parameters).  The
        prunable parameters must still be one contiguous run of the weight
        plane, so non-prunable ones may only lead or trail the model.
    history_limit:
        Bound on the length of :attr:`swap_history`.  ``None`` (default)
        keeps every per-step churn count, the behaviour the Fig. 2
        benchmarks rely on; a positive limit keeps only the most recent
        entries so multi-million-step runs stay O(limit) in memory.
        :attr:`total_swaps` always accumulates the running total.
    """

    def __init__(
        self,
        model: Module,
        k: int,
        lr: float,
        criterion: Criterion = "accumulated",
        zero_untracked: bool = False,
        selector: Selector | None = None,
        strict_regeneration: bool = False,
        include_nonprunable: bool = True,
        history_limit: int | None = None,
    ):
        super().__init__(model, lr)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if criterion not in ("accumulated", "magnitude", "current"):
            raise ValueError(f"unknown criterion: {criterion!r}")
        if history_limit is not None and history_limit <= 0:
            raise ValueError(f"history_limit must be positive or None, got {history_limit}")
        self.k = int(k)
        self.criterion: Criterion = criterion
        self.zero_untracked = bool(zero_untracked)
        self.selector = selector or SortSelector()
        self.strict_regeneration = bool(strict_regeneration)
        self.history_limit = history_limit

        self._named: list[tuple[str, Parameter]] = list(model.named_parameters())
        self._prunable = [
            (name, p)
            for name, p in self._named
            if p.prunable or include_nonprunable
        ]
        self._fixed = [p for _, p in self._named if not (p.prunable or include_nonprunable)]
        self._sizes = [p.size for _, p in self._prunable]
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes)]).astype(np.int64)
        self.total_prunable = int(self._offsets[-1])
        self._spans = list(zip(self._offsets[:-1], self._offsets[1:]))
        # The step runs on model.weight_plane[_plane_lo : _plane_lo + n].
        self._plane_lo = self._prunable[0][1].base_index if self._prunable else 0
        for (lo, _), (name, p) in zip(self._spans, self._prunable):
            if p.base_index != self._plane_lo + lo:
                raise ValueError(
                    "DropBack needs the prunable parameters to be one contiguous run of "
                    f"the weight plane, but a non-prunable parameter precedes {name!r}; "
                    "with include_nonprunable=False, mark only leading or trailing "
                    "parameters prunable=False"
                )

        seed = model.seed
        n = self.total_prunable

        # W(0) and the reset reference live as flat buffers; the per-param
        # lists (`_w0`, `_reference`) are reshaped views into them, kept
        # for subclasses (QAT) and the reference step.
        self._w0_flat = np.empty(n, dtype=np.float32)
        for (lo, hi), (_, p) in zip(self._spans, self._prunable):
            self._w0_flat[lo:hi].reshape(p.shape)[...] = p.initial_values(seed)
        self._ref_flat = np.zeros(n, dtype=np.float32) if zero_untracked else self._w0_flat
        self._w0 = [self._w0_flat[lo:hi].reshape(p.shape)
                    for (lo, hi), (_, p) in zip(self._spans, self._prunable)]
        self._reference = [self._ref_flat[lo:hi].reshape(p.shape)
                           for (lo, hi), (_, p) in zip(self._spans, self._prunable)]

        # Whole-plane scratch (allocated once; the hot step never allocates).
        self._g_flat = np.zeros(n, dtype=np.float32)  # gathered gradients
        self._cand_flat = np.empty(n, dtype=np.float32)  # SGD candidates W'
        self._score32 = np.empty(n, dtype=np.float32)  # criterion, pre-upcast
        self._scores = np.empty(n, dtype=np.float64)  # selector input
        self._regen_flat: np.ndarray | None = None  # strict-regeneration scratch
        self._mask_scratch = np.empty(n, dtype=bool)  # selector output buffer
        self._mask_store = np.empty(n, dtype=bool)  # committed tracked set
        self._swap_scratch = np.empty(n, dtype=bool)  # churn = mask & ~prev

        self.frozen = False
        self._mask_flat: np.ndarray | None = None  # tracked-set mask (flat, prunable space)
        self.last_swaps: int = 0  # weights that entered the tracked set this step
        self.swap_history: list[int] = []
        self.total_swaps: int = 0  # running churn total (survives history_limit)

        # Frozen-path index machinery, built by freeze().
        self._tracked_idx: np.ndarray | None = None
        self._frozen_segs: list[tuple[Parameter, int, int, np.ndarray]] = []
        self._g_k: np.ndarray | None = None
        self._w_k: np.ndarray | None = None
        # Packed-weight keys registered with the sparse kernel backend
        # while frozen (zero_untracked only); see _register_sparse_packs.
        self._sparse_keys: list = []

    def _plane_run(self) -> np.ndarray:
        """The prunable parameters' span of the model's current weight plane.

        Sliced afresh on every step, so the step follows the plane wherever
        ``adopt_plane`` has moved it.
        """
        lo = self._plane_lo
        return self.model.weight_plane[lo : lo + self.total_prunable]

    def rebind_plane(self) -> None:
        """Re-register sparse packs after an ``adopt_plane``.

        The data-parallel trainer re-homes the model's weight plane into
        (and later out of) a shared-memory arena.  The step itself needs
        nothing (see :meth:`_plane_run`), but registered sparse packs key
        on the old parameter views and must be rebuilt.
        """
        if self.frozen and self._tracked_idx is not None:
            self._register_sparse_packs()
        else:
            self._invalidate_sparse_packs()

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def compression_ratio(self) -> float:
        """Weight compression vs. the dense model, ``total / k``."""
        return self.num_parameters / float(self.k)

    def storage_floats(self) -> int:
        """Persistent weight storage: only the k tracked values."""
        return min(self.k, self.total_prunable) + sum(p.size for p in self._fixed)

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
        Freezing precomputes the sorted tracked index array and, per
        parameter, the gather/scatter slice into it, so every frozen step
        is O(k) work touching only the tracked entries.
        """
        if self._mask_flat is None:
            raise RuntimeError("cannot freeze before the first step")
        self.frozen = True
        idx = np.flatnonzero(self._mask_flat)
        self._tracked_idx = idx
        self._g_k = np.empty(idx.size, dtype=np.float32)
        self._w_k = np.empty(idx.size, dtype=np.float32)
        bounds = np.searchsorted(idx, self._offsets)
        self._frozen_segs = []
        for i, ((lo, _), (_, p)) in enumerate(zip(self._spans, self._prunable)):
            s, e = int(bounds[i]), int(bounds[i + 1])
            if s < e:
                self._frozen_segs.append((p, s, e, idx[s:e] - lo))
        self._register_sparse_packs()

    def unfreeze(self) -> None:
        """Resume tracked-set re-selection (for experiments)."""
        self.frozen = False
        self._tracked_idx = None
        self._frozen_segs = []
        self._g_k = None
        self._w_k = None
        self._invalidate_sparse_packs()

    def _register_sparse_packs(self) -> None:
        """Pack the frozen tracked set for the ``sparse`` kernel backend.

        Only meaningful in ``zero_untracked`` mode, where the plane really
        is k-sparse (otherwise untracked weights sit at W(0), dense).  The
        pack's CSR structure *is* the frozen tracked set, so it survives
        every frozen step; the kernel re-gathers tracked values per call.
        Packs are inert until the ``sparse`` backend is selected for
        dispatch (``REPRO_BACKEND=sparse`` or a matmul/conv op pin).
        """
        self._invalidate_sparse_packs()
        if not (self.zero_untracked and sparse_kernels.is_available()):
            return
        idx = self._tracked_idx
        cutoff = sparse_kernels.density_cutoff()
        bounds = np.searchsorted(idx, self._offsets)
        for i, ((lo, _), (_, p)) in enumerate(zip(self._spans, self._prunable)):
            if p.data.ndim not in (2, 4):
                continue
            s, e = int(bounds[i]), int(bounds[i + 1])
            if (e - s) / p.size > cutoff:
                continue
            self._sparse_keys.extend(sparse_kernels.register_weight(p.data, idx[s:e] - lo))

    def _invalidate_sparse_packs(self) -> None:
        """Drop registered packs (tracked-set change or plane re-home)."""
        if self._sparse_keys:
            sparse_kernels.invalidate(self._sparse_keys)
            self._sparse_keys = []

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
            self._sgd_fixed()
            self._count_accesses()

    def _unfrozen_step(self) -> None:
        lr = self.lr
        w = self._plane_run()

        # 1. SGD candidates W' = W - lr*g as two whole-plane ops.
        with profiled("dropback.accumulate"):
            for (lo, hi), (_, p) in zip(self._spans, self._prunable):
                gseg = self._g_flat[lo:hi]
                if p.grad is None:
                    gseg.fill(0.0)
                else:
                    np.copyto(gseg.reshape(p.shape), p.grad)
            np.multiply(self._g_flat, lr, out=self._cand_flat)
            np.subtract(w, self._cand_flat, out=self._cand_flat)

        reference = self._ref_flat
        if self.strict_regeneration:
            with profiled("dropback.regenerate"):
                reference = self._regenerate_strict()

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
                np.multiply(self._g_flat, lr, out=s32)
                np.abs(s32, out=s32)
            self._scores[...] = s32
            mask = self._select(self._scores)
        self._record_selection(mask)
        mask = self._mask_flat

        # 4. Commit: tracked weights take the update, the rest regenerate.
        with profiled("dropback.regenerate"):
            np.copyto(w, reference)
            np.copyto(w, self._cand_flat, where=mask)

    def _frozen_step(self) -> None:
        """O(k) frozen update: gather tracked grads, update, scatter back."""
        gk, wk = self._g_k, self._w_k
        for p, s, e, li in self._frozen_segs:
            if p.grad is None:
                gk[s:e] = 0.0
            else:
                np.take(p.grad, li, out=gk[s:e])
        np.multiply(gk, self.lr, out=gk)
        w = self._plane_run()
        np.take(w, self._tracked_idx, out=wk)
        np.subtract(wk, gk, out=wk)
        w[self._tracked_idx] = wk
        if self._sparse_keys:
            sparse_kernels.mark_dirty(self._sparse_keys)

    def _select(self, scores: np.ndarray) -> np.ndarray:
        """Run the selector, reusing the mask scratch buffer when it can."""
        select_into = getattr(self.selector, "select_into", None)
        if select_into is not None:
            return select_into(scores, self.k, out=self._mask_scratch)
        return self.selector.select(scores, self.k)

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
        if self.history_limit is not None and len(self.swap_history) > self.history_limit:
            del self.swap_history[: len(self.swap_history) - self.history_limit]
        np.copyto(self._mask_store, mask)
        self._mask_flat = self._mask_store

    def _regenerate_strict(self) -> np.ndarray:
        """Recompute the reset reference from the PRNG (faithful hardware)."""
        if self._regen_flat is None:
            self._regen_flat = np.empty(self.total_prunable, dtype=np.float32)
        seed = self.model.seed
        for (lo, hi), (_, p) in zip(self._spans, self._prunable):
            self._regen_flat[lo:hi].reshape(p.shape)[...] = p.initializer.regenerate(
                seed, p.base_index, p.shape
            )
        if self.zero_untracked:
            self._regen_flat.fill(0.0)
        return self._regen_flat

    def _sgd_fixed(self) -> None:
        """Plain SGD for non-prunable parameters (include_nonprunable=False)."""
        for p in self._fixed:
            if p.grad is not None:
                p.data = p.data - self.lr * p.grad

    def _count_accesses(self) -> None:
        # Access accounting: k tracked weights are read and written; every
        # untracked weight is regenerated on-chip instead of fetched.
        n_tracked = int(min(self.k, self.total_prunable))
        fixed = sum(p.size for p in self._fixed)
        self.counter.weight_reads += n_tracked + fixed
        self.counter.weight_writes += n_tracked + fixed
        self.counter.regenerations += self.total_prunable - n_tracked
        self.counter.steps += 1

    # ------------------------------------------------------------------ #
    # reference step — the seed per-parameter implementation, retained
    # ------------------------------------------------------------------ #

    def reference_step(self) -> None:
        """One DropBack update via the original per-parameter dense path.

        O(total_params) with per-parameter candidate copies and a dense
        ``np.where`` commit — kept verbatim as the semantic reference the
        equivalence suite checks :meth:`step` against, and as the dense
        baseline the perf microbenches measure the flat-plane speedup
        over.  Fully interchangeable with :meth:`step` (shared mask,
        churn, and counter bookkeeping).
        """
        with profiled("dropback.reference_step"):
            self._reference_step_impl()
            self._count_accesses()

    def _reference_step_impl(self) -> None:
        reference = self._reference
        if self.strict_regeneration:
            seed = self.model.seed
            w0 = [
                p.initializer.regenerate(seed, p.base_index, p.shape)
                for _, p in self._prunable
            ]
            reference = [np.zeros_like(v) if self.zero_untracked else v for v in w0]

        # 1. SGD candidates for every prunable parameter (the accumulated-
        # gradient update each weight *would* take).
        candidates = []
        for (_, p), ref in zip(self._prunable, reference):
            if p.grad is None:
                candidates.append(p.data.copy())
            else:
                candidates.append(p.data - self.lr * p.grad)

        # 2-3. Score and select the tracked set.
        if self.frozen:
            mask_flat = self._mask_flat
        else:
            scores = np.empty(self.total_prunable, dtype=np.float64)
            for (lo, hi), cand, ref_p, (_, p) in zip(
                self._spans, candidates, reference, self._prunable
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
            mask_flat = self.selector.select(scores, self.k)
            self._record_selection(mask_flat)
            mask_flat = self._mask_flat

        # 4. Commit: tracked weights take the update, the rest regenerate.
        for (lo, hi), cand, ref, (_, p) in zip(
            self._spans, candidates, reference, self._prunable
        ):
            m = mask_flat[lo:hi].reshape(p.shape)
            p.data = np.where(m, cand, ref).astype(p.data.dtype)

        self._sgd_fixed()

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    def tracked_counts(self) -> dict[str, int]:
        """Tracked weights per parameter (Table 2's per-layer retention)."""
        if self._mask_flat is None:
            raise RuntimeError("no tracked set yet; take at least one step")
        out: dict[str, int] = {}
        for (lo, hi), (name, _) in zip(self._spans, self._prunable):
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
        for (lo, hi), (_, p) in zip(self._spans, self._prunable):
            m = self._mask_flat[lo:hi].reshape(p.shape)
            expect = (
                np.zeros_like(p.data)
                if self.zero_untracked
                else p.initializer.regenerate(seed, p.base_index, p.shape)
            )
            if not np.array_equal(p.data[~m], expect[~m]):
                return False
        return True
