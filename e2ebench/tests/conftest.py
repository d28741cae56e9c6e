"""Make the benchmark modules and the program importable from the tests,
with BLAS pinned as the benchmark pins it.

Run from the repository root::

    python -m pytest e2ebench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostenv  # noqa: E402

hostenv.pin_blas_threads()
