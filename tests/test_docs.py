"""The docs name only rule codes, backends, environment variables and CLI
flags that exist."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.analyze import RULE_REGISTRY
from repro.cli import build_parser
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


def test_docs_name_only_cli_flags_that_exist():
    # Every --flag written after `repro <command>`, up to the end of its code
    # span, comment or shell command, is an option of that subcommand.
    (commands,) = [
        a.choices for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    checked, stale = 0, []
    for path in (REPO_ROOT / "README.md", *DOCS.glob("*.md"),
                 REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
                 REPO_ROOT / ".github" / "workflows" / "ci.yml"):
        text = path.read_text().replace("\\\n", " ")
        for command, args in re.findall(r"\brepro ([a-z][a-z-]*)([^`#|;&\n]*)", text):
            if command not in commands:
                continue
            options = {o for a in commands[command]._actions for o in a.option_strings}
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", args):
                checked += 1
                if flag not in options:
                    stale.append(f"{path.name}: repro {command} {flag}")
    assert checked and stale == [], stale
