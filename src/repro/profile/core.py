"""Op-level profiling primitives: registry, counters, timers, ``profiled``.

Design constraints (see docs/profiling.md):

* **Zero-cost when disabled.**  Profiling is off by default; every
  instrumented call checks one module-level flag (:func:`is_enabled`) and
  takes the un-instrumented path when it is False.  Numerics are never
  touched either way, so ``tests/test_determinism.py`` is bit-identical
  with profiling on or off.
* **Thread-safe.**  All registry mutation happens under a single lock;
  op records are aggregated in place (no per-event storage), so overhead
  stays O(1) per call and memory stays O(#distinct op names).
* **One vocabulary.**  An *op* (``OpStat``) aggregates wall time, call
  count, and bytes allocated; a *counter* is a bare integer tally
  (e.g. ``conv.workspace_hits``).  Both live in the same
  :class:`Registry` and serialize into the same perf report.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = [
    "OpStat",
    "Registry",
    "registry",
    "enable",
    "disable",
    "is_enabled",
    "profiled",
    "add_counter",
    "snapshot",
    "reset",
    "timeit",
]


@dataclass
class OpStat:
    """Aggregated cost of one named operation."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    bytes_allocated: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
            "bytes_allocated": self.bytes_allocated,
        }

    @staticmethod
    def from_dict(d: dict) -> "OpStat":
        return OpStat(
            name=d["name"],
            calls=int(d["calls"]),
            total_seconds=float(d["total_seconds"]),
            bytes_allocated=int(d["bytes_allocated"]),
        )


def _result_nbytes(result) -> int:
    """Bytes held by an op result (ndarray, Tensor, or neither)."""
    nbytes = getattr(result, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    data = getattr(result, "data", None)
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    return 0


@dataclass
class Registry:
    """Thread-safe store of op stats and named counters."""

    ops: dict[str, OpStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, name: str, seconds: float, nbytes: int = 0) -> None:
        """Fold one timed call into the aggregate for ``name``."""
        with self._lock:
            stat = self.ops.get(name)
            if stat is None:
                stat = self.ops[name] = OpStat(name)
            stat.calls += 1
            stat.total_seconds += seconds
            stat.bytes_allocated += nbytes

    def add_counter(self, name: str, value: int = 1) -> None:
        """Increment the named counter by ``value``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """Deep-copied, JSON-ready view of the current state."""
        with self._lock:
            return {
                "ops": {name: stat.to_dict() for name, stat in self.ops.items()},
                "counters": dict(self.counters),
            }

    def reset(self) -> None:
        with self._lock:
            self.ops.clear()
            self.counters.clear()


#: The process-global registry all instrumentation records into.
registry = Registry()

# Module-level enable flag, wrapped in a list so ``enable``/``disable``
# mutate shared state that hot-path closures can read without a global
# statement.  Checked exactly once per instrumented call.
_ENABLED = [False]


def enable() -> None:
    """Turn on profiling (instrumented ops start recording)."""
    _ENABLED[0] = True


def disable() -> None:
    """Turn off profiling (instrumented ops revert to pass-through)."""
    _ENABLED[0] = False


def is_enabled() -> bool:
    return _ENABLED[0]


def add_counter(name: str, value: int = 1) -> None:
    """Increment a named counter iff profiling is enabled."""
    if _ENABLED[0]:
        registry.add_counter(name, value)


def snapshot() -> dict:
    """Snapshot the global registry (ops + counters)."""
    return registry.snapshot()


def reset() -> None:
    """Clear the global registry."""
    registry.reset()


def timeit(fn, rounds: int, warmup: int) -> np.ndarray:
    """Call ``fn()`` ``warmup`` times, then time ``rounds`` more calls.

    Returns the wall seconds of each timed call as a float64 array; the
    caller picks the statistic (min for a fixed workload, mean for a
    steady-state rate).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    for _ in range(warmup):
        fn()
    times = np.empty(rounds, dtype=np.float64)
    for i in range(rounds):
        t0 = perf_counter()
        fn()
        times[i] = perf_counter() - t0
    return times


class profiled:
    """Time a named op — usable as a decorator *or* a context manager.

    As a decorator::

        @profiled("conv2d.forward")
        def conv2d(...): ...

    As a context manager (for timing a region inside a function)::

        with profiled("dropback.select"):
            mask = selector.select(scores, k)

    When profiling is disabled the decorator adds a single flag check per
    call and the context manager is a no-op; nothing is recorded.  Wrapped
    functions keep their metadata (``functools.wraps``) and exceptions
    propagate unchanged (the call is still counted so hot-spot tables
    reflect attempted work).
    """

    __slots__ = ("name", "_t0")

    def __init__(self, name: str):
        self.name = name
        self._t0: float | None = None

    # -- decorator form ------------------------------------------------ #

    def __call__(self, fn):
        name = self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _ENABLED[0]:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                registry.record(name, perf_counter() - t0, 0)
                raise
            registry.record(name, perf_counter() - t0, _result_nbytes(result))
            return result

        return wrapper

    # -- context-manager form ------------------------------------------ #

    def __enter__(self) -> "profiled":
        self._t0 = perf_counter() if _ENABLED[0] else None
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._t0 is not None:
            registry.record(self.name, perf_counter() - self._t0, 0)
            self._t0 = None
        return False
