#!/usr/bin/env python
"""Check that this tree trains with the same bits as another revision.

Usage:
    python scripts/bits.py --against REV

Checks REV out with ``git worktree add`` (local, no network) into a
temporary directory, then runs :func:`repro.utils.determinism.training_fingerprint`
once per tree, each in its own subprocess with the same environment (so the
same BLAS thread pins).  Both subprocesses run *this* tree's fingerprint
harness against their own ``repro`` package, so REV needs no harness of its
own.  Prints the first step and tensor that differ; exits 1 on any
difference, 0 when every digest matches.

A GEMM's bits depend on the BLAS build and its thread count, so compare
revisions on one machine under one setting, e.g.::

    OPENBLAS_NUM_THREADS=1 python scripts/bits.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "src" / "repro" / "utils" / "determinism.py"
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "REPRO_BACKEND")

# Loads the harness file by path, so `repro` itself resolves to the tree
# on PYTHONPATH.
_RUNNER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_fingerprint", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
json.dump(mod.training_fingerprint(), sys.stdout)
"""


def fingerprint(tree: Path) -> dict[str, str]:
    """Run the harness against ``tree/src`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(HARNESS)],
        env=env, cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"fingerprint failed in {tree}")
    return json.loads(proc.stdout)


def first_difference(a: dict[str, str], b: dict[str, str]) -> str | None:
    """The first key (in run order) whose digest differs or is missing."""
    for key in list(a) + [k for k in b if k not in a]:
        if a.get(key) != b.get(key):
            return key
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="git revision to compare with")
    args = ap.parse_args(argv)

    def git(*cmd: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                              capture_output=True, text=True).stdout.strip()

    rev = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    pins = ", ".join(f"{k}={os.environ.get(k, '(unset)')}" for k in PINS)
    print(f"comparing this tree with {rev[:12]} ({pins})")
    with tempfile.TemporaryDirectory(prefix="bits-") as tmp:
        other = Path(tmp) / "rev"
        git("worktree", "add", "--detach", str(other), rev)
        try:
            theirs = fingerprint(other)
        finally:
            git("worktree", "remove", "--force", str(other))
    ours = fingerprint(ROOT)

    key = first_difference(ours, theirs)
    if key is None:
        print(f"same bits: {len(ours)} digests match")
        return 0
    print(f"first difference: {key}")
    print(f"  this tree: {ours.get(key, '(missing)')}")
    print(f"  {rev[:12]}: {theirs.get(key, '(missing)')}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
