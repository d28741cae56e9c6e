"""Module/Parameter system with regenerable initialization.

The central departure from a conventional layer library: every
:class:`Parameter` carries the :class:`~repro.init.Initializer` that produced
it and, once the network is *finalized*, a ``base_index`` into a single
global flat index space covering all parameters.  Given the network seed and
a flat index, any parameter element's initial value can be regenerated
exactly — the property DropBack's untracked-weight regeneration relies on
(paper §2.1: "each value only depends on the seed value and its index").

Finalization also materializes the **flat weight plane**: one contiguous
float32 buffer holding every parameter back to back in global-index order.
Each ``Parameter.data`` is a zero-copy view into the plane, so whole-network
operations (DropBack's candidate/score/commit step, sparse checkpoint
scatter, flat analyses) run as single vectorized ops over the plane while
layers keep reading their own shaped views.  Assigning ``p.data = arr``
*writes through* the view (the values are copied into the plane); a value
that cannot broadcast into the view raises ``ValueError`` and leaves the
plane untouched.  A finalized parameter therefore always aliases
``model.weight_plane``, whatever optimizer or checkpoint code assigns it.

Gradients get the same layout in ``model.grad_plane``, allocated on first
use (a model that only serves never pays for it); each ``Parameter.grad``
is then a write-through view of its span, so flat consumers read the plane
while per-parameter code keeps reading ``p.grad``.

Typical lifecycle::

    model = lenet_300_100()
    model.finalize(seed=7)        # assign indices, build plane, set W(0)
    opt = DropBack(model, k=20_000, lr=0.4)
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.init import Initializer
from repro.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor with a regenerable initializer.

    Parameters
    ----------
    shape:
        Parameter shape.
    initializer:
        Deterministic source of the initial values.

    DropBack prunes every parameter, BatchNorm and PReLU parameters
    included, as the paper does.
    """

    __slots__ = ("initializer", "base_index", "_data", "_plane_backed", "_grad", "_grad_view")

    def __init__(self, shape: tuple[int, ...], initializer: Initializer):
        super().__init__(np.zeros(shape, dtype=np.float32), requires_grad=True)
        self.initializer = initializer
        self.base_index: int | None = None

    # -- flat-plane aliasing ------------------------------------------- #
    #
    # ``data`` shadows the Tensor slot with a property so a plane-backed
    # parameter keeps its zero-copy view alive across assignments: writing
    # ``p.data = arr`` copies the values into the plane instead of
    # rebinding, which is what SGD/DropBack/checkpoint-load style code
    # does all over the tree.  An assignment that cannot broadcast into
    # the view raises: numpy checks the shapes before copying anything, so
    # the plane is untouched.

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        arr = np.asarray(value)
        if not getattr(self, "_plane_backed", False):
            self._data = arr
            return
        view = self._data
        if arr is view:
            return
        try:
            view[...] = arr
        except ValueError as exc:
            raise ValueError(
                f"cannot assign an array of shape {arr.shape} to {self!r}: it does "
                f"not broadcast to the parameter's plane view of shape {view.shape}"
            ) from exc

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        # Once the gradient plane exists: copy in (a -0.0 keeps its sign),
        # or zero the span for None, which reads back as None.
        view = getattr(self, "_grad_view", None)
        if view is not None:
            if value is None:
                view.fill(0.0)
            elif value is not view:
                np.copyto(view, value)
                value = view
        self._grad = value

    @property
    def plane_backed(self) -> bool:
        """Whether :attr:`data` is currently a view into the weight plane."""
        return getattr(self, "_plane_backed", False)

    def _attach_plane(self, view: np.ndarray) -> None:
        """Rebind :attr:`data` to a plane view (values are preserved)."""
        view[...] = self._data
        self._data = view
        self._plane_backed = True

    def initialize(self, seed: int, base_index: int) -> None:
        """Assign this parameter's global index range and set W(0)."""
        self.base_index = int(base_index)
        self.data = self.initializer.regenerate(seed, base_index, self.shape, dtype=np.float32)

    def initial_values(self, seed: int) -> np.ndarray:
        """Regenerate this parameter's full W(0) block (pure function)."""
        if self.base_index is None:
            raise RuntimeError("parameter not finalized; call Module.finalize(seed) first")
        return self.initializer.regenerate(seed, self.base_index, self.shape, dtype=np.float32)

    def __repr__(self) -> str:
        return (
            f"Parameter(shape={self.shape}, init={self.initializer!r}, "
            f"base_index={self.base_index})"
        )


class Module:
    """Base class for layers and models.

    Submodules and parameters are discovered via attribute inspection (like
    PyTorch).  ``finalize(seed)`` must be called once after construction to
    lay out the global parameter index space and materialize initial values.
    """

    def __init__(self) -> None:
        self.training = True
        self._seed: int | None = None
        self._plane: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # discovery
    # ------------------------------------------------------------------ #

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in definition order."""
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}{name}", value)
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{prefix}{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield (f"{prefix}{name}.{i}", item)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield self and all descendant modules."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def finalize(self, seed: int) -> "Module":
        """Assign global flat indices to every parameter and set W(0).

        Parameters occupy consecutive index ranges in definition order, so
        the pair ``(seed, flat_index)`` identifies every weight for the
        stateless regeneration path.  The same walk allocates the flat
        weight plane — ``plane[p.base_index : p.base_index + p.size]``
        *is* ``p.data`` (a reshaped zero-copy view) for every parameter.
        Idempotent for the same seed (each call rebuilds the plane and drops the grad plane).
        """
        params = [p for _, p in self.named_parameters()]
        plane = np.zeros(sum(p.size for p in params), dtype=np.float32)
        offset = 0
        for p in params:
            p._attach_plane(plane[offset : offset + p.size].reshape(p.shape))
            p._grad_view = None
            p.initialize(seed, offset)
            offset += p.size
        self._plane = plane
        self._grad_plane = None
        self._seed = int(seed)
        return self

    @property
    def weight_plane(self) -> np.ndarray | None:
        """The flat float32 buffer all parameters view into (None before
        :meth:`finalize`).  Indexed by the global flat index space:
        ``weight_plane[p.base_index + i] == p.data.reshape(-1)[i]``."""
        return getattr(self, "_plane", None)

    @property
    def grad_plane(self) -> np.ndarray:
        """The flat float32 gradient buffer, laid out like :attr:`weight_plane`.

        Allocated on first access; from then on every ``p.grad`` is a
        write-through view of ``grad_plane[p.base_index : p.base_index +
        p.size]``, and a span whose ``p.grad`` is ``None`` holds zeros.
        """
        plane = getattr(self, "_grad_plane", None)
        if plane is None:
            if self.weight_plane is None:
                raise RuntimeError("model not finalized; call finalize(seed) first")
            plane = np.zeros(self.weight_plane.size, dtype=np.float32)
            for p in self.parameters():
                grad = p.grad
                p._grad_view = plane[p.base_index : p.base_index + p.size].reshape(p.shape)
                p.grad = grad  # a gradient set before the plane is carried in
            self._grad_plane = plane
        return plane

    @property
    def seed(self) -> int:
        if self._seed is None:
            raise RuntimeError("model not finalized; call finalize(seed) first")
        return self._seed

    @property
    def is_finalized(self) -> bool:
        return self._seed is not None

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # train/eval + grads
    # ------------------------------------------------------------------ #

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------ #
    # state I/O (dense; sparse checkpoints live in repro.io)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for mod_name, buf_name, buf in self._named_buffers():
            state[f"{mod_name}{buf_name}"] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter (and buffer) arrays saved by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        buffers = {f"{m}{b}": (m, b) for m, b, _ in self._named_buffers()}
        for key, arr in state.items():
            if key in params:
                if params[key].shape != arr.shape:
                    raise ValueError(
                        f"shape mismatch for {key}: {params[key].shape} vs {arr.shape}"
                    )
                params[key].data = arr.astype(np.float32).copy()
            elif key in buffers:
                self._set_buffer(key, arr)
            else:
                raise KeyError(f"unexpected state key: {key}")

    def _named_buffers(self) -> Iterator[tuple[str, str, np.ndarray]]:
        """Yield (module_prefix, buffer_name, array) for running statistics."""
        for prefix, mod in self._named_modules():
            for buf_name in getattr(mod, "_buffers", ()):
                yield prefix, buf_name, getattr(mod, buf_name)

    def _named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._named_modules(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_modules(prefix=f"{prefix}{name}.{i}.")

    def _set_buffer(self, dotted: str, arr: np.ndarray) -> None:
        for prefix, mod in self._named_modules():
            for buf_name in getattr(mod, "_buffers", ()):
                if f"{prefix}{buf_name}" == dotted:
                    getattr(mod, buf_name)[...] = arr
                    return
        raise KeyError(dotted)

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)
