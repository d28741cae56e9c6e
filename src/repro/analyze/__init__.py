"""Static analysis + runtime sanitizers for the repo's core invariants.

Two complementary halves:

* :mod:`repro.analyze.engine` / :mod:`repro.analyze.rules` /
  :mod:`repro.analyze.concurrency` — a two-pass AST lint engine
  (``repro analyze`` on the CLI).  Pass 1 extracts per-function facts
  (:mod:`repro.analyze.facts`) and builds a whole-package call graph
  (:mod:`repro.analyze.callgraph`); pass 2 runs the per-file rules
  RPA002-008 plus the interprocedural concurrency rules RPA010-013
  (lock-order cycles, unfenced arena writes, fork-tainted RNG,
  unguarded shared mutation) over that index.  Violations diff against
  a committed baseline so CI fails only on *new* ones.
* :mod:`repro.analyze.sanitize` — runtime sanitizers (plane-integrity
  checker, workspace-pool poisoner, NaN/inf gradient tripwire, lock-order
  watchdog, arena write-fence) switched on via ``REPRO_SANITIZE=1`` or
  ``Trainer(..., sanitize=True)``.

See ``docs/static-analysis.md`` for the rule catalog and workflows.
"""

from repro.analyze.engine import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    LintEngine,
    ProjectRule,
    RULE_REGISTRY,
    Violation,
    diff_baseline,
    explain_drift,
    findings_to_dict,
    format_github,
    load_baseline,
    write_baseline,
)
from repro.analyze import rules  # noqa: F401 - imported to populate RULE_REGISTRY
from repro.analyze import concurrency  # noqa: F401 - populates RPA010-013
from repro.analyze.sanitize import (
    ArenaFenceError,
    ArenaWriteFence,
    GradientTripwireError,
    LockOrderError,
    LockOrderWatchdog,
    PlaneIntegrityError,
    SanitizerError,
    check_plane_integrity,
    lock_watchdog,
    sanitize_enabled,
    sanitizer_callbacks,
    tracked_lock,
)

__all__ = [
    "LintEngine",
    "Violation",
    "Baseline",
    "ProjectRule",
    "RULE_REGISTRY",
    "DEFAULT_BASELINE_NAME",
    "load_baseline",
    "write_baseline",
    "diff_baseline",
    "explain_drift",
    "findings_to_dict",
    "format_github",
    "rules",
    "concurrency",
    "SanitizerError",
    "PlaneIntegrityError",
    "GradientTripwireError",
    "LockOrderError",
    "ArenaFenceError",
    "LockOrderWatchdog",
    "ArenaWriteFence",
    "check_plane_integrity",
    "lock_watchdog",
    "tracked_lock",
    "sanitize_enabled",
    "sanitizer_callbacks",
]
