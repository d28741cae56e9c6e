"""Runtime sanitizers for the plane/pool/determinism invariants.

What the lint pass (:mod:`repro.analyze.rules`) cannot prove statically is
checked here at runtime, behind an opt-in switch so the hot path stays
untouched in normal runs:

* **Plane integrity** — every :class:`~repro.nn.Parameter` must remain a
  zero-copy view into its module's flat weight plane.  The
  ``Parameter.data`` setter already refuses any assignment that would
  break that; :func:`check_plane_integrity` verifies the result — aliasing
  (exact base-pointer offset), dtype, and a write round-trip for every
  parameter — so code that reaches past the setter is caught too.
* **Workspace-pool poisoning** — released conv/pool backward buffers are
  NaN-filled between steps (:func:`repro.tensor.workspace.poison_free_workspaces`),
  turning any use-after-release into either a loud
  :class:`~repro.tensor.workspace.WorkspaceUseAfterReleaseError` (stale
  writer) or a NaN that the gradient tripwire catches (stale reader).
* **NaN/inf gradient tripwire** — after every backward pass each
  parameter gradient is scanned; the first non-finite value aborts with
  the parameter's name instead of corrupting the tracked-set selection.
* **Lock-order watchdog** — the runtime mirror of static rule RPA010.
  :func:`tracked_lock` wraps the serving-layer locks so every acquisition
  records a held->acquired edge in a global order graph; the first edge
  that closes a cycle raises :class:`LockOrderError` at the acquisition
  site instead of deadlocking some other night.
* **Arena write-fence** — the runtime mirror of RPA011.
  :class:`ArenaWriteFence` stamps a CRC of each rank's SharedArena data
  region at the barrier transitions (``seal_compute``/``open_compute``)
  and raises :class:`ArenaFenceError` if a region changed while the
  protocol says it must be quiescent.

Enable with ``REPRO_SANITIZE=1`` (any of ``1/true/on/yes``), the
``--sanitize`` CLI flag, or ``Trainer(..., sanitize=True)``.  Every hook
is zero-cost when disabled: :func:`tracked_lock` returns the lock
unchanged, and the fence is simply not constructed.
"""

from __future__ import annotations

import os
import threading
import zlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import workspace
from repro.train.callbacks import Callback

if TYPE_CHECKING:  # pragma: no cover
    from repro.tensor import Tensor
    from repro.train.trainer import Trainer

__all__ = [
    "ENV_VAR",
    "SanitizerError",
    "PlaneIntegrityError",
    "GradientTripwireError",
    "LockOrderError",
    "ArenaFenceError",
    "sanitize_enabled",
    "check_plane_integrity",
    "check_finite_gradients",
    "LockOrderWatchdog",
    "TrackedLock",
    "tracked_lock",
    "lock_watchdog",
    "ArenaWriteFence",
    "PlaneCheckCallback",
    "GradTripwireCallback",
    "WorkspacePoisonCallback",
    "sanitizer_callbacks",
]

ENV_VAR = "REPRO_SANITIZE"


class SanitizerError(RuntimeError):
    """Base class for invariant violations caught at runtime."""


class PlaneIntegrityError(SanitizerError):
    """A parameter is no longer a live view into the flat weight plane."""


class GradientTripwireError(SanitizerError):
    """A non-finite value reached a parameter gradient."""


class LockOrderError(SanitizerError):
    """A lock acquisition closed a cycle in the acquisition-order graph."""


class ArenaFenceError(SanitizerError):
    """A SharedArena data region changed outside its barrier phase."""


def sanitize_enabled(env: dict | None = None) -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitizer mode."""
    value = (env if env is not None else os.environ).get(ENV_VAR, "")
    return str(value).strip().lower() in ("1", "true", "on", "yes")


# ---------------------------------------------------------------------- #
# plane integrity
# ---------------------------------------------------------------------- #


def _array_base_address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def check_plane_integrity(model: Module, strict: bool = True) -> list[str]:
    """Verify every parameter still aliases the flat weight plane.

    Checks, per parameter: the ``plane_backed`` flag, dtype float32,
    C-contiguity, the exact base-pointer offset implied by ``base_index``,
    and a write round-trip (a value stored through ``p.data`` is read back
    from the plane, and vice versa, bit-exactly — the weights are restored
    afterwards).

    Returns the list of problems found; raises :class:`PlaneIntegrityError`
    instead when ``strict`` (the default).
    """
    problems: list[str] = []
    plane = model.weight_plane
    if not model.is_finalized or plane is None:
        problems.append("model is not finalized (no weight plane)")
    else:
        plane_addr = _array_base_address(plane)
        for name, p in model.named_parameters():
            prefix = f"parameter {name!r}"
            if not p.plane_backed:
                problems.append(f"{prefix}: detached from the weight plane")
                continue
            if p.base_index is None:
                problems.append(f"{prefix}: plane-backed but has no base_index")
                continue
            data = p.data
            if data.dtype != np.float32:
                problems.append(f"{prefix}: dtype {data.dtype}, expected float32")
                continue
            if not data.flags.c_contiguous:
                problems.append(f"{prefix}: plane view is not C-contiguous")
                continue
            expected = plane_addr + 4 * p.base_index
            actual = _array_base_address(data)
            if actual != expected:
                problems.append(
                    f"{prefix}: data does not alias plane[{p.base_index}:] "
                    f"(offset {actual - plane_addr} bytes, expected {4 * p.base_index})"
                )
                continue
            if data.size == 0:
                continue
            # Write round-trip both directions through the first element.
            flat = data.reshape(-1)
            saved = flat[0]
            sentinel = np.float32(saved + 1.0) if np.isfinite(saved) else np.float32(1.0)
            flat[0] = sentinel
            if plane[p.base_index] != sentinel:
                problems.append(f"{prefix}: write through view did not reach the plane")
            plane[p.base_index] = saved
            if flat[0] != saved:
                problems.append(f"{prefix}: write through plane did not reach the view")
            flat[0] = saved
    if problems and strict:
        raise PlaneIntegrityError(
            f"weight-plane integrity violated ({len(problems)} problem(s)):\n  "
            + "\n  ".join(problems)
        )
    return problems


# ---------------------------------------------------------------------- #
# lock-order watchdog (runtime mirror of RPA010)
# ---------------------------------------------------------------------- #


class LockOrderWatchdog:
    """Global lock-acquisition-order graph with cycle detection.

    Each thread keeps the stack of tracked locks it currently holds.  When
    a thread acquires lock ``b`` while holding ``a``, the edge ``a -> b``
    is recorded; before recording, a path ``b -> ... -> a`` in the
    existing graph means some other code path acquires the pair in the
    opposite order, and :class:`LockOrderError` is raised at this
    acquisition instead of letting the inversion deadlock later.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._witness: dict[tuple[str, str], str] = {}
        self._local = threading.local()

    def _held(self) -> list[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def edges(self) -> dict[str, set[str]]:
        """Snapshot of the recorded acquisition-order edges (for tests)."""
        with self._mutex:
            return {a: set(bs) for a, bs in self._edges.items()}

    def reset(self) -> None:
        """Forget all recorded edges (held stacks are per-thread state)."""
        with self._mutex:
            self._edges.clear()
            self._witness.clear()

    def _path(self, start: str, goal: str) -> list[str] | None:
        # DFS under self._mutex; graphs are a handful of named locks.
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def on_acquire(self, name: str) -> None:
        held = self._held()
        if held:
            prev = held[-1]
            if prev != name:
                with self._mutex:
                    if name not in self._edges.get(prev, ()):
                        cycle = self._path(name, prev)
                        if cycle is not None:
                            first = self._witness.get(
                                (cycle[0], cycle[1]) if len(cycle) > 1 else (name, prev),
                                "?",
                            )
                            raise LockOrderError(
                                f"lock-order cycle: acquiring {name!r} while "
                                f"holding {prev!r}, but the opposite order "
                                f"{' -> '.join(cycle)} was already observed "
                                f"(first at {first}); a concurrent thread "
                                "taking that path can deadlock against this one"
                            )
                        self._edges.setdefault(prev, set()).add(name)
                        self._witness[(prev, name)] = threading.current_thread().name
        held.append(name)

    def on_release(self, name: str) -> None:
        held = self._held()
        if name in held:
            held.reverse()
            held.remove(name)
            held.reverse()


_WATCHDOG = LockOrderWatchdog()


def lock_watchdog() -> LockOrderWatchdog:
    """The process-global watchdog used by :func:`tracked_lock`."""
    return _WATCHDOG


class TrackedLock:
    """Wrap a lock so the watchdog sees first-entry acquire/release.

    Reentrant acquisitions (RLock) only notify the watchdog on the 0->1
    depth transition, so holding a lock twice never fakes a self-edge.
    The ``_release_save``/``_acquire_restore``/``_is_owned`` trio is
    forwarded so a wrapped RLock still works as the lock behind a
    :class:`threading.Condition` (``wait`` fully releases and reacquires).
    """

    def __init__(self, lock, name: str, watchdog: LockOrderWatchdog | None = None):
        self._lock = lock
        self.name = name
        self._watchdog = watchdog if watchdog is not None else _WATCHDOG
        self._depth = threading.local()

    def _get_depth(self) -> int:
        return getattr(self._depth, "value", 0)

    def _set_depth(self, value: int) -> None:
        self._depth.value = value

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            depth = self._get_depth()
            if depth == 0:
                try:
                    self._watchdog.on_acquire(self.name)
                except BaseException:
                    self._lock.release()
                    raise
            self._set_depth(depth + 1)
        return got

    def release(self) -> None:
        depth = self._get_depth()
        if depth == 1:
            self._watchdog.on_release(self.name)
        self._set_depth(max(depth - 1, 0))
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        inner = getattr(self._lock, "locked", None)
        if inner is not None:
            return inner()
        return self._is_owned()

    # -- Condition protocol: full release around wait() ------------------ #

    def _release_save(self):
        depth = self._get_depth()
        if depth > 0:
            self._watchdog.on_release(self.name)
        self._set_depth(0)
        inner = getattr(self._lock, "_release_save", None)
        if inner is not None:
            state = inner()
        else:
            self._lock.release()
            state = None
        return (state, depth)

    def _acquire_restore(self, saved) -> None:
        state, depth = saved
        inner = getattr(self._lock, "_acquire_restore", None)
        if inner is not None:
            inner(state)
        else:
            self._lock.acquire()
        if depth > 0:
            self._watchdog.on_acquire(self.name)
        self._set_depth(depth)

    def _is_owned(self) -> bool:
        inner = getattr(self._lock, "_is_owned", None)
        if inner is not None:
            return inner()
        return self._get_depth() > 0


def tracked_lock(lock, name: str, enabled: bool | None = None):
    """Wrap ``lock`` for the watchdog, or return it unchanged.

    When sanitizer mode is off (the default), this is the identity
    function — zero overhead, same object.  Already-tracked locks are
    returned as-is so double wrapping cannot double-count.
    """
    if enabled is None:
        enabled = sanitize_enabled()
    if not enabled or isinstance(lock, TrackedLock):
        return lock
    return TrackedLock(lock, name)


# ---------------------------------------------------------------------- #
# arena write-fence (runtime mirror of RPA011)
# ---------------------------------------------------------------------- #


class ArenaWriteFence:
    """Per-rank CRC stamps over SharedArena data regions.

    The lockstep protocol gives each step two phases: *compute* (each rank
    writes only its own ``grads[rank]`` row and ``losses[rank]`` slot; the
    plane is read-only) and *update* (rank 0 writes the plane; the partial
    regions are read-only).  At each transition the trainer calls

    * :meth:`seal_compute` — end of compute: verify the plane did not
      change since the last update phase, then stamp this rank's partials;
    * :meth:`open_compute` — after the update barrier: verify the partials
      did not change during the update phase, then stamp the plane.

    A mismatched CRC means some code wrote a region outside its phase —
    exactly the race static rule RPA011 looks for — and raises
    :class:`ArenaFenceError` naming the region.
    """

    def __init__(self, arena, rank: int):
        self.arena = arena
        self.rank = int(rank)
        self._stamps: dict[str, int] = {}

    @staticmethod
    def _crc(arr) -> int:
        view = np.ascontiguousarray(arr)
        return zlib.crc32(view.view(np.uint8).reshape(-1))

    def _regions(self, phase: str) -> dict[str, "np.ndarray"]:
        if phase == "partials":
            return {
                f"grads[{self.rank}]": self.arena.grads[self.rank],
                f"losses[{self.rank}]": self.arena.losses[self.rank : self.rank + 1],
            }
        return {"plane": self.arena.plane}

    def _verify(self, phase: str) -> None:
        for name, arr in self._regions(phase).items():
            stamped = self._stamps.get(name)
            if stamped is None:
                continue
            now = self._crc(arr)
            if now != stamped:
                raise ArenaFenceError(
                    f"SharedArena.{name} changed outside its barrier phase "
                    f"(rank {self.rank}): CRC {now:#010x} != stamped "
                    f"{stamped:#010x}; a write raced the "
                    f"{'update' if phase == 'partials' else 'compute'} phase"
                )

    def _stamp(self, phase: str) -> None:
        for name, arr in self._regions(phase).items():
            self._stamps[name] = self._crc(arr)

    def seal_compute(self) -> None:
        """End of compute phase: plane must be unchanged; stamp partials."""
        self._verify("plane")
        self._stamp("partials")

    def open_compute(self) -> None:
        """After the update barrier: partials unchanged; stamp the plane."""
        self._verify("partials")
        self._stamp("plane")


# ---------------------------------------------------------------------- #
# gradient tripwire
# ---------------------------------------------------------------------- #


def check_finite_gradients(
    named: Iterable[tuple[str, "Parameter | Tensor"]], where: str = ""
) -> None:
    """Raise :class:`GradientTripwireError` on the first non-finite grad."""
    for name, p in named:
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            bad = int(np.size(g) - np.count_nonzero(np.isfinite(g)))
            suffix = f" {where}" if where else ""
            raise GradientTripwireError(
                f"non-finite gradient in {name!r}{suffix}: {bad} of {np.size(g)} "
                "elements are NaN/inf (poisoned workspace read, exploding "
                "loss, or a broken backward rule)"
            )


# ---------------------------------------------------------------------- #
# trainer callbacks
# ---------------------------------------------------------------------- #


class PlaneCheckCallback(Callback):
    """Assert plane integrity at train start and every epoch end."""

    def on_train_begin(self, trainer: "Trainer") -> None:
        check_plane_integrity(trainer.model)

    def on_epoch_end(self, trainer: "Trainer", epoch: int, logs: dict) -> None:
        check_plane_integrity(trainer.model)
        logs["sanitize_plane_ok"] = True

    def on_train_end(self, trainer: "Trainer") -> None:
        check_plane_integrity(trainer.model)


class GradTripwireCallback(Callback):
    """Scan every parameter gradient between backward and optimizer step."""

    def on_backward_end(self, trainer: "Trainer", step: int) -> None:
        check_finite_gradients(trainer.model.named_parameters(), where=f"at step {step}")


class WorkspacePoisonCallback(Callback):
    """NaN-fill released conv/pool workspaces after every optimizer step."""

    def __init__(self):
        self.poisoned_total = 0

    def on_step_end(self, trainer: "Trainer", step: int, loss: float) -> None:
        self.poisoned_total += workspace.poison_free_workspaces()

    def on_train_end(self, trainer: "Trainer") -> None:
        # Leave no poison behind for non-sanitized code that runs next.
        workspace.clear_workspace_cache()


def sanitizer_callbacks() -> list[Callback]:
    """The callback set ``Trainer(..., sanitize=True)`` installs."""
    return [PlaneCheckCallback(), GradTripwireCallback(), WorkspacePoisonCallback()]


def verify_model(model: Module, sample: Sequence | None = None) -> dict:
    """One-shot sanitizer sweep outside a training loop.

    Checks plane integrity and (when ``sample`` — an ``(x, y)`` pair — is
    given) runs one forward/backward under the gradient tripwire.
    Returns a small summary dict; raises :class:`SanitizerError` on any
    violation.
    """
    from repro.tensor import Tensor, cross_entropy

    check_plane_integrity(model)
    summary = {"plane_ok": True, "parameters": sum(1 for _ in model.named_parameters())}
    if sample is not None:
        x, y = sample
        model.zero_grad()
        loss = cross_entropy(model(Tensor(np.asarray(x, dtype=np.float32))), y)
        loss.backward()
        check_finite_gradients(model.named_parameters(), where="in verify_model")
        model.zero_grad()
        summary["grads_ok"] = True
    return summary
