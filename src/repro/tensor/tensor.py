"""Reverse-mode automatic differentiation on numpy arrays.

This is the training substrate the reproduction runs on: the original paper
used Chainer, which is unavailable here, so we implement a tape-based
autograd engine from scratch.  A :class:`Tensor` wraps a ``numpy.ndarray``
and records, for every differentiable operation, a backward closure plus the
parent tensors it consumed.  :meth:`Tensor.backward` runs a topological sort
of that graph and accumulates gradients.

Design notes
------------
* Gradients are plain numpy arrays stored on ``Tensor.grad`` and *accumulated*
  (``+=``) so a tensor used twice receives the sum of both contributions.
* Broadcasting is handled uniformly by :func:`unbroadcast`, which reduces an
  upstream gradient back to a parent's shape.
* The graph is dynamic (define-by-run): each forward pass builds a fresh
  tape, matching how the experiments repeatedly call ``loss.backward()``
  inside the training loop.
* Heavy ops (conv, pooling, batchnorm) live in :mod:`repro.tensor.conv` and
  :mod:`repro.tensor.functional`; this module holds the core class and
  pointwise/linear-algebra primitives.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.profile import profiled

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]


class _ThreadFlag(threading.local):
    """A boolean read and written as ``flag[0]``, separately in each thread
    (``True`` until the thread sets it).

    The one-item-list protocol lets a caller swap in a plain ``[True]`` to
    give a scope its own flag (``e2ebench``'s tests do).
    """

    value = True

    def __getitem__(self, index: int) -> bool:
        return self.value

    def __setitem__(self, index: int, value: bool) -> None:
        self.value = value


# Grad mode is per thread: serving workers run overlapping no_grad blocks,
# and one thread's exit must not restore another thread's saved state.
_GRAD_ENABLED = _ThreadFlag()


class no_grad:
    """Context manager disabling graph construction (for eval passes).

    Affects only the calling thread; every thread starts with recording
    enabled.
    """

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


def is_grad_enabled() -> bool:
    """Whether operations currently record backward closures."""
    return _GRAD_ENABLED[0]


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` to ``shape`` by summing over broadcast dimensions.

    The inverse of numpy broadcasting for gradient flow: axes that were
    prepended are summed away; axes that were stretched from size 1 are
    summed keeping dims.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum stretched axes back to 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with a gradient and a place in the autograd tape.

    Parameters
    ----------
    data:
        Array (or array-like) holding the value.  Floating-point data is
        kept in its given dtype (training uses float32).
    requires_grad:
        If True, ``backward`` populates :attr:`grad` for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_saved_grads")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError("only floating-point tensors can require gradients")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build the result tensor of an op, wiring the tape if enabled."""
        req = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=req)
        if req:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype},"
            f" requires_grad={self.requires_grad}{tag})"
        )

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # backward
    # ------------------------------------------------------------------ #

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (scalar tensors only get the
            conventional implicit 1.0).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = _topo_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf: accumulate into .grad
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                node._saved_grads = grads  # type: ignore[attr-defined]
                try:
                    node._backward(g)
                finally:
                    del node._saved_grads  # type: ignore[attr-defined]

    def _accumulate(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route a gradient contribution to ``parent`` during backward."""
        store: dict[int, np.ndarray] = getattr(self, "_saved_grads")
        key = id(parent)
        if key in store:
            store[key] = store[key] + grad
        else:
            store[key] = grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, unbroadcast(g, self.shape))
            if other.requires_grad:
                out._accumulate(other, unbroadcast(g, other.shape))

        out = Tensor.from_op(out_data, (self, other), lambda g: backward(g, out))
        return out

    __radd__ = __add__

    def __neg__(self):
        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, -g)

        out = Tensor.from_op(-self.data, (self,), lambda g: backward(g, out))
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, unbroadcast(g, self.shape))
            if other.requires_grad:
                out._accumulate(other, unbroadcast(-g, other.shape))

        out = Tensor.from_op(out_data, (self, other), lambda g: backward(g, out))
        return out

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                out._accumulate(other, unbroadcast(g * self.data, other.shape))

        out = Tensor.from_op(out_data, (self, other), lambda g: backward(g, out))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                out._accumulate(
                    other, unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        out = Tensor.from_op(out_data, (self, other), lambda g: backward(g, out))
        return out

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g * exponent * self.data ** (exponent - 1))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    @profiled("tensor.matmul")
    def __matmul__(self, other):
        other = self._coerce(other)
        _, mm = kernels.resolve("matmul")
        out_data = mm(self.data, other.data)

        def backward(g, out=None):
            with profiled("tensor.matmul.backward"):
                if self.requires_grad:
                    ga = mm(g, np.swapaxes(other.data, -1, -2))
                    out._accumulate(self, unbroadcast(ga, self.shape))
                if other.requires_grad:
                    gb = mm(np.swapaxes(self.data, -1, -2), g)
                    out._accumulate(other, unbroadcast(gb, other.shape))

        out = Tensor.from_op(out_data, (self, other), lambda g: backward(g, out))
        return out

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g.reshape(in_shape))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g.transpose(inv))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        out_data = self.data[key]

        def backward(g, out=None):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                out._accumulate(self, full)

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, out=None):
            if self.requires_grad:
                gg = g
                if not keepdims and axis is not None:
                    gg = np.expand_dims(gg, axis)
                out._accumulate(self, np.broadcast_to(gg, self.shape).copy())

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in ax]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g, out=None):
            if self.requires_grad:
                expanded = out_data
                gg = g
                if not keepdims and axis is not None:
                    expanded = np.expand_dims(expanded, axis)
                    gg = np.expand_dims(gg, axis)
                mask = (self.data == expanded).astype(self.data.dtype)
                # Split gradient equally among ties (rare in float training).
                denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                out._accumulate(self, mask * gg / denom)

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    # ------------------------------------------------------------------ #
    # pointwise nonlinearities
    # ------------------------------------------------------------------ #

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g * out_data)

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def log(self):
        out_data = np.log(self.data)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g / self.data)

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def sqrt(self):
        return self**0.5

    def relu(self):
        backend, fwd = kernels.resolve("relu_forward")
        _, bwd = kernels.resolve("relu_backward", backend)
        out_data, ctx = fwd(self.data)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, bwd(g, ctx))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g * (1.0 - out_data**2))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g * out_data * (1.0 - out_data))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def abs(self):
        out_data = np.abs(self.data)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g * np.sign(self.data))

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out

    def clip(self, lo: float, hi: float):
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g, out=None):
            if self.requires_grad:
                out._accumulate(self, g * mask)

        out = Tensor.from_op(out_data, (self,), lambda g: backward(g, out))
        return out


def _topo_order(root: Tensor) -> list[Tensor]:
    """Reverse topological order of the tape reachable from ``root``.

    Iterative DFS (training graphs for the conv nets exceed Python's default
    recursion limit).
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable).

    Needed by DenseNet's feature concatenation.
    """
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g, out=None):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(lo), int(hi))
                out._accumulate(t, g[tuple(sl)])

    out = Tensor.from_op(out_data, tuple(tensors), lambda g: backward(g, out))
    return out


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if pad == 0:
        return x
    pw = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    out_data = np.pad(x.data, pw)

    def backward(g, out=None):
        if x.requires_grad:
            sl = (Ellipsis, slice(pad, -pad), slice(pad, -pad))
            out._accumulate(x, g[sl])

    out = Tensor.from_op(out_data, (x,), lambda g: backward(g, out))
    return out


# Imported at the bottom so `import repro.tensor.tensor` works standalone:
# the kernels package import re-enters the repro.tensor package __init__,
# which needs the Tensor class above to exist already.
from repro.tensor import kernels  # noqa: E402
