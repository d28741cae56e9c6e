"""Data-parallel training over the shared weight plane.

The flat weight plane (PR 2) makes a worker's entire model one contiguous
float32 buffer; this package turns that into multi-core training:

* :class:`SharedArena` — one ``multiprocessing.shared_memory`` segment
  holding the plane, per-rank gradient slots, loss/timer slots, and
  control flags;
* :func:`tree_sum` / :func:`tree_sum_range` — the canonical fixed-order
  pairwise reduction that keeps gradient summation bit-reproducible and
  identical across worker counts;
* :class:`ParallelTrainer` — the lockstep N-process trainer; it runs
  :class:`~repro.train.Trainer`'s epoch loop on rank 0, each rank reads
  its own microbatches inline, DropBack's top-k selection runs once per
  step on rank 0 against the reduced global gradient, and the shared
  plane is the broadcast.

See ``docs/parallel.md`` for the architecture and determinism contract.

This package is the designated home for process/shared-memory lifecycle
code: lint rule RPA008 flags direct ``multiprocessing`` use elsewhere.
"""

from repro.parallel.reduce import tree_sum, tree_sum_range, tree_sum_scalars
from repro.parallel.shm import SharedArena, adopt_plane, parallel_supported
from repro.parallel.trainer import ParallelTrainer

__all__ = [
    "ParallelTrainer",
    "SharedArena",
    "adopt_plane",
    "parallel_supported",
    "tree_sum",
    "tree_sum_range",
    "tree_sum_scalars",
]
