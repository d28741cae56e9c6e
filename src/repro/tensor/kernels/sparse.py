"""Sparse backend: packed CSR weights for high-sparsity forwards.

The paper's regimes leave most of the weight plane at exactly zero
(``zero_untracked`` DropBack after :meth:`freeze`, and every
``zero_untracked`` sparse checkpoint served by ``repro.serve``), yet the
``fast`` backend still multiplies all of it.  This backend packs a weight
matrix once into CSR — the structure is the frozen tracked set, so it is
stable across steps — and runs the forward as a sparse x dense product
that touches only tracked entries.

Dispatch policy (per call, cheapest check first):

1. a **registered pack** for the weight operand (see
   :func:`register_weight`) is used directly — the pack structure is the
   frozen tracked set and its values re-gather lazily from the live
   plane view after the writer calls :func:`mark_dirty` (a full gather
   is ~8x the SpMV itself, so it must not run per call; DropBack marks
   its packs after every frozen value update);
2. otherwise, if the operand's measured density is at or below
   :func:`density_cutoff` (``REPRO_SPARSE_DENSITY_CUTOFF``, default
   0.25), it is packed transiently for this call;
3. otherwise the call is delegated verbatim to the ``fast`` backend —
   dense workloads through the sparse backend are *bit-exact* with
   ``fast`` because they literally run its kernels.

Packs are keyed by the operand view's identity (data pointer, shape,
strides, dtype), so the ``W.T`` view that ``functional.linear`` passes to
``matmul`` and the ``W`` view the backward passes both resolve without
copies.  A registered pack holds a strong reference to its weight array,
which both keeps the values readable and guarantees the address key can
never be recycled by another allocation; callers must
:func:`invalidate` packs when the tracked set changes or the plane is
re-homed (DropBack does this in ``unfreeze``/``rebind_plane``).

Numerical contract: sparse accumulation order differs from BLAS blocking,
so sparse outputs match ``reference`` to float tolerance (documented in
``docs/sparse.md``), while structure construction, value refresh, and the
above-cutoff fallback are bitwise deterministic.

scipy is a declared dependency, but its absence only disables the packed
paths: every kernel then falls through to ``fast``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.profile import profiled
from repro.tensor.kernels import fast as _fast
from repro.tensor.kernels import reference as _reference
from repro.tensor.kernels.registry import register_kernel

try:  # pragma: no cover - exercised indirectly; scipy ships in the env
    import scipy.sparse as _sp
except ImportError:  # pragma: no cover - gated fallback, not hit in CI
    _sp = None

__all__ = [
    "SPARSE_BACKEND",
    "DEFAULT_DENSITY_CUTOFF",
    "PackedWeight",
    "density_cutoff",
    "set_density_cutoff",
    "is_available",
    "pack_dense",
    "pack_from_indices",
    "register_weight",
    "mark_dirty",
    "invalidate",
    "invalidate_all",
    "registered_pack_count",
    "sparse_linear",
]

SPARSE_BACKEND = "sparse"

#: Densities above this fraction of nonzeros fall back to the dense
#: ``fast`` path (CSR only wins when most multiply-adds are skippable).
DEFAULT_DENSITY_CUTOFF = 0.25

_CUTOFF: list[float | None] = [None]

#: Registered packs keyed by operand-view identity; see :func:`_view_key`.
_PACKS: dict[tuple, "PackedWeight"] = {}


def is_available() -> bool:
    """Whether scipy.sparse is importable (packed paths enabled)."""
    return _sp is not None


def density_cutoff() -> float:
    """The auto-dispatch density threshold (env read once, like REPRO_BACKEND)."""
    if _CUTOFF[0] is None:
        raw = os.environ.get("REPRO_SPARSE_DENSITY_CUTOFF", "")
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_SPARSE_DENSITY_CUTOFF must be a float in [0, 1], got {raw!r}"
                )
        else:
            value = DEFAULT_DENSITY_CUTOFF
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"REPRO_SPARSE_DENSITY_CUTOFF must be within [0, 1], got {value}"
            )
        _CUTOFF[0] = value
    return _CUTOFF[0]


def set_density_cutoff(value: float | None) -> None:
    """Override the cutoff (``None`` re-reads the environment lazily)."""
    if value is not None:
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"density cutoff must be within [0, 1], got {value}")
    _CUTOFF[0] = value


def _view_key(arr: np.ndarray) -> tuple:
    """Identity of an ndarray *view*: address + layout + dtype.

    Two views of the same buffer with the same geometry (e.g. ``w.T``
    built twice) produce equal keys; any reallocation, reshape, or
    re-home produces a different one.
    """
    return (arr.__array_interface__["data"][0], arr.shape, arr.strides, arr.dtype.str)


class PackedWeight:
    """A CSR-packed weight plus the machinery to keep its values live.

    ``matrix`` is a ``scipy.sparse.csr_matrix`` built over ``data`` by
    reference, so :meth:`refresh` — an O(nnz) gather from the backing
    weight view — updates the matrix in place without reconstructing it.
    The gather is random-access over the whole weight and costs several
    times the SpMV itself, so it only runs after :meth:`mark_dirty`
    (called by whoever rewrites the backing values — DropBack's frozen
    step does).  Static packs (built from a checkpoint payload, no live
    backing array) never refresh.
    """

    __slots__ = ("matrix", "data", "gather", "base", "nnz", "shape", "dirty")

    def __init__(self, matrix, gather: np.ndarray | None = None,
                 base: np.ndarray | None = None):
        self.matrix = matrix
        self.data = matrix.data
        self.gather = gather
        self.base = base
        self.nnz = int(matrix.data.size)
        self.shape = tuple(matrix.shape)
        self.dirty = False

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed structure (values + index arrays)."""
        m = self.matrix
        total = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        if self.gather is not None:
            total += self.gather.nbytes
        return total

    @property
    def density(self) -> float:
        rows, cols = self.shape
        size = rows * cols
        return self.nnz / size if size else 0.0

    def mark_dirty(self) -> None:
        """Note that the backing values changed; the next use re-gathers."""
        self.dirty = True

    def refresh(self) -> None:
        """Re-gather values from the live weight if marked dirty (frozen
        steps rewrite tracked values in place; the structure never
        changes, so this is a pure value gather)."""
        if self.dirty and self.base is not None:
            np.take(self.base, self.gather, out=self.data)
            self.dirty = False


def _require_scipy() -> None:
    if _sp is None:
        raise RuntimeError(
            "scipy.sparse is unavailable; the packed sparse paths are disabled "
            "(kernels fall back to the fast backend)"
        )


def _csr_from_flat(shape: tuple[int, int], flat: np.ndarray, values: np.ndarray,
                   transpose: bool) -> tuple:
    """CSR triplet for the matrix (or its transpose) whose row-major flat
    nonzero positions are ``flat`` — bitwise identical to what
    ``csr_matrix(dense)`` builds, proven in tests.

    Returns ``(indptr, indices, data, order)`` where ``order`` permutes
    ``flat``/``values`` into CSR storage order.
    """
    rows_n, cols_n = shape
    r, c = np.divmod(flat, cols_n)
    if transpose:
        order = np.lexsort((r, c))
        row_ids, col_ids, nrows = c[order], r[order], cols_n
    else:
        order = np.arange(flat.size)  # ascending flat == row-major CSR order
        row_ids, col_ids, nrows = r, c, rows_n
    indptr = np.zeros(nrows + 1, dtype=np.int32)
    np.cumsum(np.bincount(row_ids, minlength=nrows), out=indptr[1:])
    return indptr, col_ids.astype(np.int32), values[order], order


def pack_from_indices(
    shape: tuple[int, int],
    flat_indices: np.ndarray,
    values: np.ndarray | None = None,
    *,
    base: np.ndarray | None = None,
    transpose: bool = False,
) -> PackedWeight:
    """Pack from a sorted flat-index set — no dense scan, no dense plane.

    ``flat_indices`` are ascending row-major positions into the 2-D
    ``shape``; values come either from ``values`` (aligned with
    ``flat_indices``, e.g. a checkpoint payload) or are gathered from
    ``base`` (a flat view of the live weight) now and on every
    :meth:`PackedWeight.refresh`.  ``transpose=True`` packs the
    transposed matrix instead (same flat positions, CSC-order traversal).
    """
    _require_scipy()
    flat = np.asarray(flat_indices, dtype=np.int64)
    if flat.size and (flat[0] < 0 or flat[-1] >= shape[0] * shape[1]):
        raise ValueError(f"flat indices out of range for shape {shape}")
    if values is None:
        if base is None:
            raise ValueError("pack_from_indices needs either values or a base view")
        vals = base[flat]
    else:
        vals = np.asarray(values)
        if vals.shape != flat.shape:
            raise ValueError("values must align one-to-one with flat_indices")
    indptr, indices, data, order = _csr_from_flat(shape, flat, vals, transpose)
    out_shape = (shape[1], shape[0]) if transpose else shape
    matrix = _sp.csr_matrix((data, indices, indptr), shape=out_shape)
    if base is None:
        return PackedWeight(matrix)
    return PackedWeight(matrix, gather=flat[order], base=base)


def pack_dense(w: np.ndarray, *, transpose: bool = False) -> PackedWeight:
    """Pack a dense 2-D array (static snapshot, no live refresh)."""
    _require_scipy()
    if w.ndim != 2:
        raise ValueError(f"pack_dense expects a 2-D array, got shape {w.shape}")
    return PackedWeight(_sp.csr_matrix(w.T if transpose else w))


def register_weight(w: np.ndarray, flat_indices: np.ndarray | None = None) -> tuple:
    """Register live packs for a weight so dispatch finds them by view.

    * 2-D ``w`` (a Linear weight, shape ``(out, in)``): registers the
      ``w.T`` orientation (the operand ``functional.linear`` passes to
      ``matmul``) *and* the ``w`` orientation (the backward's ``g @ w``
      product), sharing one gather source.
    * 4-D ``w`` (a conv kernel): registers the ``(F, C*KH*KW)`` pack the
      ``conv2d_forward`` kernel consumes.

    ``flat_indices`` (sorted, row-major positions into ``w.ravel()``)
    names the tracked set; by default every currently-nonzero entry is
    packed.  Returns opaque keys for :func:`invalidate`.
    """
    _require_scipy()
    if not w.flags["C_CONTIGUOUS"]:
        raise ValueError("register_weight needs a C-contiguous weight (a plane view)")
    if w.ndim not in (2, 4):
        raise ValueError(f"register_weight supports 2-D/4-D weights, got shape {w.shape}")
    base = w.reshape(-1)
    if flat_indices is None:
        flat_indices = np.flatnonzero(base)
    shape2d = w.shape if w.ndim == 2 else (w.shape[0], base.size // w.shape[0])
    keys = []
    if w.ndim == 2:
        pairs = (
            (w.T, pack_from_indices(shape2d, flat_indices, base=base)),
            (w, pack_from_indices(shape2d, flat_indices, base=base, transpose=True)),
        )
    else:
        pairs = ((w, pack_from_indices(shape2d, flat_indices, base=base)),)
    for view, pack in pairs:
        key = _view_key(view)
        _PACKS[key] = pack
        keys.append(key)
    return tuple(keys)


def mark_dirty(keys) -> int:
    """Flag registered packs whose backing values were rewritten in place.

    Cheap (a bool per pack); the O(nnz) value re-gather happens lazily on
    each pack's next use.  Returns how many packs were present.
    """
    marked = 0
    for key in keys:
        pack = _PACKS.get(key)
        if pack is not None:
            pack.mark_dirty()
            marked += 1
    return marked


def invalidate(keys) -> int:
    """Drop registered packs by key; returns how many were present."""
    dropped = 0
    for key in keys:
        dropped += _PACKS.pop(key, None) is not None
    return dropped


def invalidate_all() -> int:
    """Drop every registered pack (tests / full plane teardown)."""
    count = len(_PACKS)
    _PACKS.clear()
    return count


def registered_pack_count() -> int:
    return len(_PACKS)


def _density(arr: np.ndarray) -> float:
    return np.count_nonzero(arr) / arr.size if arr.size else 1.0


def _auto_packable(mat2d: np.ndarray) -> bool:
    """Per-call packing test: float weight at/below the density cutoff."""
    return mat2d.dtype.kind == "f" and _density(mat2d) <= density_cutoff()


def _spmm(pack: PackedWeight, a: np.ndarray) -> np.ndarray:
    """``a @ b`` where ``pack`` holds CSR(``b.T``): ``(bT_csr @ a.T).T``."""
    pack.refresh()
    if a.ndim == 1:
        return pack.matrix @ a
    # repro: noqa[RPA002] op output buffer; escapes to the caller
    return np.ascontiguousarray((pack.matrix @ a.T).T)


@register_kernel("matmul", SPARSE_BACKEND)
@profiled("kernels.matmul.sparse")
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sparse x dense matmul when the second operand is (or packs) sparse.

    Registered packs win outright; unregistered 2-D float operands pack
    transiently when dense enough to skip most work; everything else —
    batched products, mixed dtypes, dense weights — is the fast kernel
    verbatim (hence bit-exact with ``fast``).
    """
    if _sp is not None and b.ndim == 2 and a.ndim in (1, 2) and a.dtype == b.dtype:
        pack = _PACKS.get(_view_key(b))
        if pack is None and _auto_packable(b):
            pack = pack_dense(b, transpose=True)
        if pack is not None:
            return _spmm(pack, a)
    return _fast.matmul(a, b)


@register_kernel("conv2d_forward", SPARSE_BACKEND)
@profiled("kernels.conv2d_forward.sparse")
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> tuple[np.ndarray, dict]:
    """im2col + CSR GEMM conv forward skipping untracked filter taps.

    The ctx uses the *reference* layout, so the backward (resolved under
    this backend) hands it to the reference conv backward unchanged.
    """
    f = weight.shape[0]
    w_flat = weight.reshape(f, -1)
    pack = None
    if _sp is not None and weight.dtype == x.dtype:
        pack = _PACKS.get(_view_key(weight))
        if pack is None and _auto_packable(w_flat):
            pack = pack_dense(w_flat)
    if pack is None:
        return _fast.conv2d_forward(x, weight, bias, stride, pad, oh, ow)

    n = x.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _reference.im2col(xp, kh, kw, stride, stride, oh, ow)  # (N, K, OH*OW)
    k, ohw = cols.shape[1], oh * ow
    pack.refresh()
    # One SpMM over the whole batch: (F, K) @ (K, N*OH*OW).
    # repro: noqa[RPA002] batch-flattened patch copy feeding a single SpMM
    flat_cols = np.moveaxis(cols, 0, 1).reshape(k, n * ohw)
    out2 = pack.matrix @ flat_cols
    # repro: noqa[RPA002] op output buffer; escapes to the caller
    out = np.ascontiguousarray(out2.reshape(f, n, ohw).transpose(1, 0, 2))
    out = out.reshape(n, f, oh, ow)
    if bias is not None:
        out += bias.reshape(1, f, 1, 1)
    ctx = {
        "cols": cols,
        "w_flat": w_flat,
        "x_shape": x.shape,
        "w_shape": weight.shape,
        "stride": stride,
        "pad": pad,
        "oh": oh,
        "ow": ow,
    }
    return out, ctx


@register_kernel("conv2d_backward", SPARSE_BACKEND)
@profiled("kernels.conv2d_backward.sparse")
def conv2d_backward(
    g: np.ndarray,
    ctx: dict,
    need_gx: bool,
    need_gw: bool,
    need_gb: bool,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Route the ctx to whichever dense backward understands its layout.

    The sparse forward emits reference-layout ctx; the above-cutoff
    fallback emits fast-layout ctx (marked by its ``"flat"`` key).
    Backward stays dense: its operands (incoming gradients, patch
    matrices) have no exploitable sparsity.
    """
    if "flat" in ctx:
        return _fast.conv2d_backward(g, ctx, need_gx, need_gw, need_gb)
    return _reference.conv2d_backward(g, ctx, need_gx, need_gw, need_gb)


def sparse_linear(pack: PackedWeight, x: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Forward-only affine map ``x @ W.T + b`` over a pack of ``W``.

    The serving executor's building block (``repro.serve.packed``): the
    pack holds CSR of the ``(out, in)`` weight itself, so the product is
    one CSR x dense-transpose SpMM per layer.
    """
    pack.refresh()
    out = np.ascontiguousarray((pack.matrix @ x.T).T)
    if bias is not None:
        out += bias
    return out
