"""Reverse-mode automatic differentiation on numpy arrays.

This is the training substrate the reproduction runs on: the original paper
used Chainer, which is unavailable here, so we implement a tape-based
autograd engine from scratch.  A :class:`Tensor` wraps a ``numpy.ndarray``
and records, for every differentiable operation, the parent tensors it
consumed plus a backward function that maps the output's gradient to one
gradient (or ``None``) per parent.  :meth:`Tensor.backward` runs a
topological sort of that graph and adds each returned gradient into its
parent's running sum.

Design notes
------------
* Gradients are plain numpy arrays stored on ``Tensor.grad`` and *accumulated*
  (``+=``) so a tensor used twice receives the sum of both contributions.
* Broadcasting is handled uniformly by :func:`unbroadcast`, which reduces an
  upstream gradient back to a parent's shape.
* The graph is dynamic (define-by-run): each forward pass builds a fresh
  tape, matching how the experiments repeatedly call ``loss.backward()``
  inside the training loop.
* A tensor references its parents and its backward function, and no
  backward function references the tensor it belongs to, so the graph holds
  no reference cycle: reference counting frees it as soon as its last
  tensor goes, without waiting for the cyclic garbage collector.
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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError("only floating-point tensors can require gradients")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> "Tensor":
        """Build the result tensor of an op, wiring the tape if enabled.

        The tape records the op only when grad mode is on and some parent
        requires grad.  ``backward(g)`` receives the gradient of the result
        and returns one gradient or ``None`` per parent, in parent order;
        :meth:`backward` skips ``None`` and parents that do not require
        grad.  ``backward`` must not reference the result tensor, so the
        graph stays free of reference cycles.
        """
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
            if node._backward is None:
                # Leaf: accumulate into .grad
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        other = self._coerce(other)

        def backward(g):
            return (
                unbroadcast(g, self.shape) if self.requires_grad else None,
                unbroadcast(g, other.shape) if other.requires_grad else None,
            )

        return Tensor.from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            return (-g,)

        return Tensor.from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._coerce(other)

        def backward(g):
            return (
                unbroadcast(g, self.shape) if self.requires_grad else None,
                unbroadcast(-g, other.shape) if other.requires_grad else None,
            )

        return Tensor.from_op(self.data - other.data, (self, other), backward)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(g):
            return (
                unbroadcast(g * other.data, self.shape) if self.requires_grad else None,
                unbroadcast(g * self.data, other.shape) if other.requires_grad else None,
            )

        return Tensor.from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)

        def backward(g):
            ga = gb = None
            if self.requires_grad:
                ga = unbroadcast(g / other.data, self.shape)
            if other.requires_grad:
                gb = unbroadcast(-g * self.data / (other.data**2), other.shape)
            return ga, gb

        return Tensor.from_op(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return Tensor.from_op(self.data**exponent, (self,), backward)

    @profiled("tensor.matmul")
    def __matmul__(self, other):
        other = self._coerce(other)
        _, mm = kernels.resolve("matmul")
        out_data = mm(self.data, other.data)

        def backward(g):
            with profiled("tensor.matmul.backward"):
                ga = gb = None
                if self.requires_grad:
                    ga = unbroadcast(mm(g, np.swapaxes(other.data, -1, -2)), self.shape)
                if other.requires_grad:
                    gb = unbroadcast(mm(np.swapaxes(self.data, -1, -2), g), other.shape)
                return ga, gb

        return Tensor.from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape

        def backward(g):
            return (g.reshape(in_shape),)

        return Tensor.from_op(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return Tensor.from_op(self.data.transpose(axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return (full,)

        return Tensor.from_op(self.data[key], (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor.from_op(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in ax]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            expanded = out_data
            if not keepdims and axis is not None:
                expanded = np.expand_dims(expanded, axis)
                g = np.expand_dims(g, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally among ties (rare in float training).
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (mask * g / denom,)

        return Tensor.from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # pointwise nonlinearities
    # ------------------------------------------------------------------ #

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return Tensor.from_op(out_data, (self,), backward)

    def log(self):
        def backward(g):
            return (g / self.data,)

        return Tensor.from_op(np.log(self.data), (self,), backward)

    def sqrt(self):
        return self**0.5

    def relu(self):
        backend, fwd = kernels.resolve("relu_forward")
        _, bwd = kernels.resolve("relu_backward", backend)
        out_data, ctx = fwd(self.data)

        def backward(g):
            return (bwd(g, ctx),)

        return Tensor.from_op(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - out_data**2),)

        return Tensor.from_op(out_data, (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor.from_op(out_data, (self,), backward)

    def abs(self):
        def backward(g):
            return (g * np.sign(self.data),)

        return Tensor.from_op(np.abs(self.data), (self,), backward)

    def clip(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g):
            return (g * mask,)

        return Tensor.from_op(np.clip(self.data, lo, hi), (self,), backward)


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
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return np.split(g, splits, axis=axis)

    return Tensor.from_op(out_data, tuple(tensors), backward)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if pad == 0:
        return x
    pw = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]

    def backward(g):
        return (g[..., pad:-pad, pad:-pad],)

    return Tensor.from_op(np.pad(x.data, pw), (x,), backward)


# Imported at the bottom so `import repro.tensor.tensor` works standalone:
# the kernels package import re-enters the repro.tensor package __init__,
# which needs the Tensor class above to exist already.
from repro.tensor import kernels  # noqa: E402
