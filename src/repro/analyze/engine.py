"""AST lint engine enforcing the repo's plane/pool/determinism invariants.

The flat-weight-plane refactor made several correctness properties
*invisible* to black-box tests: every ``Parameter.data`` must stay a
zero-copy view into the plane, hot-path functions must not allocate per
call, and DropBack's untracked-weight regeneration must stay
bit-deterministic (no stray global RNG, no silent float64 promotion).
This module provides the machinery that checks those properties at lint
time; the rules themselves live in :mod:`repro.analyze.rules`.

Architecture
------------

The engine runs in two passes:

* **Pass 1 (per-file)** — every selected :class:`Rule` (an
  ``ast.NodeVisitor`` with a registered ``code``, scope tracking, and
  suppression-aware reporting) walks each :class:`SourceFile`
  independently.  While walking, the engine also collects each file's
  facts (locks, barriers, arena writes, RNG draws, calls — see
  :mod:`repro.analyze.facts`) into a whole-package
  :class:`~repro.analyze.callgraph.PackageIndex`.
* **Pass 2 (interprocedural)** — every selected :class:`ProjectRule`
  queries the index (call graph, reachability, lock/barrier fixpoints)
  and reports findings anywhere in the package.  The concurrency rules
  RPA010-013 live in :mod:`repro.analyze.concurrency`.

Every finding fails the lint.  An accepted exception is an inline
suppression that gives its reason, next to the code it excuses.

Suppression syntax::

    xg = np.empty(shape)  # repro: noqa[RPA002] forward output buffer

A bare ``# repro: noqa`` suppresses every rule on that line; the
bracketed form suppresses only the listed codes (comma separated).
Anything after the closing bracket is a free-form justification.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Violation",
    "Rule",
    "ProjectRule",
    "SourceFile",
    "LintEngine",
    "RULE_REGISTRY",
    "register_rule",
    "findings_to_dict",
    "format_github",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)

#: All registered rule classes keyed by code (populated via ``register_rule``).
#: Holds both per-file :class:`Rule` and interprocedural :class:`ProjectRule`
#: subclasses; the engine dispatches on the base class.
RULE_REGISTRY: dict[str, type] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to :data:`RULE_REGISTRY` by code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    code: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    scope: str  # dotted enclosing def/class chain, or "<module>"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "scope": self.scope,
        }


def format_github(v: Violation) -> str:
    """One GitHub Actions workflow-command annotation for a violation."""

    def esc(s: str) -> str:
        return s.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")

    return (
        f"::error file={esc(v.path)},line={v.line},col={v.col + 1},"
        f"title={esc(v.code)}::{esc(v.message)}"
    )


class SourceFile:
    """A parsed source file with its per-line suppression table."""

    def __init__(self, path: Path, relpath: str, text: str):
        self.path = path
        self.relpath = relpath
        self.tree = ast.parse(text, filename=str(path))
        # line -> set of suppressed codes; empty set means "all codes".
        # A noqa on a comment-only line applies to the next code line, so
        # justifications too long for an inline comment can sit above.
        self.suppressions: dict[int, set[str]] = {}
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            m = _NOQA_RE.search(line)
            if not m:
                continue
            codes = m.group("codes")
            parsed = (
                set()
                if codes is None
                else {c.strip().upper() for c in codes.split(",") if c.strip()}
            )
            target = lineno
            if line.lstrip().startswith("#"):
                for nxt in range(lineno, len(lines)):
                    stripped = lines[nxt].strip()
                    if stripped and not stripped.startswith("#"):
                        target = nxt + 1
                        break
            self._merge_suppression(target, parsed)
        self._expand_statement_spans()

    def _merge_suppression(self, line: int, codes: set[str]) -> None:
        existing = self.suppressions.get(line)
        if existing is None:
            self.suppressions[line] = set(codes)
        elif existing and codes:
            existing.update(codes)
        else:  # either side is "all codes"
            self.suppressions[line] = set()

    def _expand_statement_spans(self) -> None:
        """Spread each suppression over every physical line of its statement.

        A ``# repro: noqa[...]`` on *any* line of a multi-line statement
        (the opening line, a wrapped argument, the closing paren) covers
        the whole statement, so a rule reporting on a continuation line
        cannot escape a suppression written on the first line — and vice
        versa.  Compound statements (``with``/``for``/``def``...) only
        spread over their header lines, never into their body.
        """
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            end = getattr(node, "end_lineno", None) or start
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                end = max(start, body[0].lineno - 1)
            if end <= start:
                continue
            merged: set[str] | None = None
            for ln in range(start, end + 1):
                codes = self.suppressions.get(ln)
                if codes is None:
                    continue
                if merged is None:
                    merged = set(codes)
                elif merged and codes:
                    merged |= codes
                else:
                    merged = set()
            if merged is None:
                continue
            for ln in range(start, end + 1):
                self._merge_suppression(ln, merged)

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        if codes is None:
            return False
        return not codes or code in codes


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses set ``code``/``summary``/``rationale`` and override the
    ``visit_*`` methods they need.  Scope (enclosing class/function chain)
    is tracked automatically; subclasses that care about function entry
    override :meth:`scope_entered` / :meth:`scope_exited` rather than
    ``visit_FunctionDef`` so the bookkeeping stays in one place.
    """

    code: str = ""
    summary: str = ""
    rationale: str = ""

    def __init__(self, src: SourceFile):
        self.src = src
        self.violations: list[Violation] = []
        self._scope: list[str] = []

    # -- scope tracking ------------------------------------------------ #

    def _visit_scoped(self, node) -> None:
        self._scope.append(node.name)
        self.scope_entered(node)
        try:
            self.generic_visit(node)
        finally:
            self.scope_exited(node)
            self._scope.pop()

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_ClassDef = _visit_scoped

    def scope_entered(self, node) -> None:  # pragma: no cover - hook
        pass

    def scope_exited(self, node) -> None:  # pragma: no cover - hook
        pass

    @property
    def scope(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    # -- reporting ----------------------------------------------------- #

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self.src.is_suppressed(self.code, line):
            return
        self.violations.append(
            Violation(
                code=self.code,
                path=self.src.relpath,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                scope=self.scope,
            )
        )

    def run(self) -> list[Violation]:
        self.visit(self.src.tree)
        return self.violations


class ProjectRule:
    """Base class for pass-2 interprocedural rules.

    Instantiated once per lint run with the whole-package
    :class:`~repro.analyze.callgraph.PackageIndex` (whose ``sources``
    attribute maps relpath -> :class:`SourceFile` for suppression
    lookups).  Subclasses override :meth:`check` and call
    :meth:`report` with explicit locations.
    """

    code: str = ""
    summary: str = ""
    rationale: str = ""

    def __init__(self, index):
        self.index = index
        self.violations: list[Violation] = []

    def report(self, relpath: str, line: int, col: int, message: str, scope: str) -> None:
        src = getattr(self.index, "sources", {}).get(relpath)
        if src is not None and src.is_suppressed(self.code, line):
            return
        self.violations.append(
            Violation(
                code=self.code,
                path=relpath,
                line=line,
                col=col,
                message=message,
                scope=scope,
            )
        )

    def check(self) -> None:
        raise NotImplementedError

    def run(self) -> list[Violation]:
        self.check()
        return self.violations


# ---------------------------------------------------------------------- #
# shared AST helpers (used by several rules)
# ---------------------------------------------------------------------- #


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_keywords(node: ast.Call) -> set[str]:
    return {kw.arg for kw in node.keywords if kw.arg is not None}


def contains_float_constant(node: ast.AST) -> bool:
    """Whether any literal in the subtree is a Python float."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
    return False


# ---------------------------------------------------------------------- #
# engine
# ---------------------------------------------------------------------- #


class LintEngine:
    """Run a set of rules over files/directories.

    Parameters
    ----------
    select:
        Rule codes to run (default: every registered rule).
    root:
        Directory that violation paths are reported relative to.  Without
        one, paths are absolute; the CLI passes the working directory.
    """

    def __init__(
        self,
        select: Iterable[str] | None = None,
        root: Path | str | None = None,
    ):
        codes = list(select) if select is not None else sorted(RULE_REGISTRY)
        unknown = [c for c in codes if c not in RULE_REGISTRY]
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
        classes = [RULE_REGISTRY[c] for c in codes]
        self.rule_classes = [c for c in classes if not issubclass(c, ProjectRule)]
        self.project_rule_classes = [c for c in classes if issubclass(c, ProjectRule)]
        self.root = Path(root).resolve() if root is not None else None
        self.index = None  # the pass-1 PackageIndex of the last lint_paths run
        self.errors: list[str] = []

    def _relpath(self, path: Path) -> str:
        path = path.resolve()
        if self.root is not None:
            try:
                return path.relative_to(self.root).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    @staticmethod
    def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
        for p in paths:
            p = Path(p)
            if p.is_dir():
                yield from sorted(p.rglob("*.py"))
            elif p.suffix == ".py":
                yield p

    def _parse(self, path: Path) -> SourceFile | None:
        text = path.read_text()
        try:
            return SourceFile(path, self._relpath(path), text)
        except SyntaxError as exc:  # unparseable file is itself a finding
            self.errors.append(f"{self._relpath(path)}: syntax error: {exc}")
            return None

    def lint_file(self, path: Path | str) -> list[Violation]:
        """Run the per-file rules over one file (pass 1 only)."""
        src = self._parse(Path(path))
        if src is None:
            return []
        out: list[Violation] = []
        for cls in self.rule_classes:
            out.extend(cls(src).run())
        return out

    def build_index(self, sources: dict[str, SourceFile]):
        """Build the pass-1 package index over already-parsed sources."""
        from repro.analyze.callgraph import build_index  # late: keeps engine ast-only

        index = build_index({rp: src.tree for rp, src in sources.items()})
        index.sources = sources
        return index

    def lint_paths(self, paths: Iterable[Path | str]) -> list[Violation]:
        violations: list[Violation] = []
        sources: dict[str, SourceFile] = {}
        for path in self.iter_python_files(paths):
            src = self._parse(path)
            if src is None:
                continue
            sources[src.relpath] = src
            for cls in self.rule_classes:
                violations.extend(cls(src).run())
        if self.project_rule_classes:
            self.index = self.build_index(sources)
            for cls in self.project_rule_classes:
                violations.extend(cls(self.index).run())
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return violations


def findings_to_dict(
    violations: list[Violation],
    paths: list[str],
    errors: list[str] | None = None,
) -> dict:
    """JSON-ready findings document (the CI artifact format)."""
    # late imports: the registry must be populated before we list it
    from repro.analyze import concurrency as _concurrency
    from repro.analyze import rules as _rules

    del _rules, _concurrency
    return {
        "tool": "repro.analyze",
        "paths": list(paths),
        "rules": {
            code: {"summary": cls.summary, "rationale": cls.rationale}
            for code, cls in sorted(RULE_REGISTRY.items())
        },
        "summary": {"total": len(violations), "errors": len(errors or [])},
        "violations": [v.to_dict() for v in violations],
        "errors": list(errors or []),
    }
