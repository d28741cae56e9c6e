"""The docs name only rule codes, backends and environment variables that exist."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analyze import RULE_REGISTRY
from repro.tensor import kernels

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"


def test_docs_name_only_what_exists():
    # The rule catalog has one heading per registered rule, and no other.
    catalog = (DOCS / "static-analysis.md").read_text()
    assert set(re.findall(r"^### (RPA\d{3})\b", catalog, re.M)) == set(RULE_REGISTRY)

    # The backend table lists exactly the registered backends.
    table = (DOCS / "kernels.md").read_text().split("| backend | what it is |", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \|", table.split("\n\n", 1)[0], re.M)
    assert sorted(rows) == kernels.list_backends()

    # Every REPRO_* variable the docs or CI name is read by some code.
    named: set[str] = set()
    for path in (REPO_ROOT / "README.md", *DOCS.glob("*.md"),
                 REPO_ROOT / ".github" / "workflows" / "ci.yml"):
        named |= set(re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text()))
    read: set[str] = set()
    for top in ("src", "benchmarks", "scripts", "e2ebench"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            read |= set(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", path.read_text()))
    assert named <= read, sorted(named - read)
