"""Op-level instrumentation: counters, timers, and perf reports.

The measurement substrate for every optimisation PR: the tensor engine's
hot paths and the DropBack optimizer phases are wrapped in
:class:`profiled` scopes, the :class:`~repro.train.ProfilerCallback`
traces training steps and epochs, and :class:`PerfReport` serializes the
result as ``perf_*.json`` for CI to archive and diff.

Profiling is **off by default** and zero-cost when disabled — a single
module-level flag is checked per instrumented call, and numerics are
identical either way (``tests/test_determinism.py`` pins this).

Quickstart::

    from repro import profile

    profile.enable()
    ...  # run training
    report = profile.PerfReport.from_registry("my-run")
    print(report.hotspot_table())
    profile.disable()
"""

from repro.profile.core import (
    OpStat,
    Registry,
    add_counter,
    disable,
    enable,
    is_enabled,
    profiled,
    registry,
    reset,
    snapshot,
    timeit,
)
from repro.profile.report import SCHEMA_VERSION, PerfReport

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
    "PerfReport",
    "SCHEMA_VERSION",
]
