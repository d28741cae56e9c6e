"""Engine-level tests: suppressions, baseline workflow, CLI exit codes."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analyze import (
    Baseline,
    LintEngine,
    diff_baseline,
    explain_drift,
    findings_to_dict,
    format_github,
    load_baseline,
    write_baseline,
)
from repro.analyze.engine import SourceFile, Violation
from repro.cli import main as cli_main


def make_source(text: str, relpath: str = "src/repro/x.py") -> SourceFile:
    return SourceFile(Path(relpath), relpath, textwrap.dedent(text))


def make_violation(
    code="RPA003", path="src/repro/x.py", line=1, scope="f", snippet="x = np.random.rand()"
) -> Violation:
    return Violation(
        code=code, path=path, line=line, col=0, message="m", scope=scope,
        snippet=snippet,
    )


class TestNoqaParsing:
    def test_inline_coded_noqa(self):
        src = make_source("x = 1  # repro: noqa[RPA002] output buffer\n")
        assert src.is_suppressed("RPA002", 1)
        assert not src.is_suppressed("RPA003", 1)

    def test_bare_noqa_suppresses_all_codes(self):
        src = make_source("x = 1  # repro: noqa\n")
        assert src.is_suppressed("RPA003", 1)
        assert src.is_suppressed("RPA005", 1)

    def test_multiple_codes_comma_separated(self):
        src = make_source("x = 1  # repro: noqa[RPA003, RPA004]\n")
        assert src.is_suppressed("RPA003", 1)
        assert src.is_suppressed("RPA004", 1)
        assert not src.is_suppressed("RPA002", 1)

    def test_comment_line_noqa_forwards_to_next_code_line(self):
        src = make_source(
            """
            # Long justification that would not fit inline.
            # repro: noqa[RPA002] reused as the op output
            x = np.empty(4)
            """
        )
        # dedented text: line 1 blank, 2-3 comments, 4 the assignment
        assert src.is_suppressed("RPA002", 4)
        assert not src.is_suppressed("RPA002", 3)

    def test_unsuppressed_lines_report(self):
        src = make_source("x = 1\n")
        assert not src.is_suppressed("RPA003", 1)

    def test_case_insensitive_marker(self):
        src = make_source("x = 1  # REPRO: NOQA[rpa002]\n")
        # codes are upper-cased during parsing
        assert src.is_suppressed("RPA002", 1)

    def test_noqa_covers_continuation_lines_of_statement(self):
        src = make_source(
            """
            xg = np.empty(  # repro: noqa[RPA002] output buffer
                (n, c, h, w),
                dtype=np.float32,
            )
            """
        )
        # statement spans lines 2-5; a rule reporting on any of them is
        # suppressed even though the marker sits on line 2
        for line in (2, 3, 4, 5):
            assert src.is_suppressed("RPA002", line), line
        assert not src.is_suppressed("RPA003", 3)

    def test_noqa_on_closing_line_covers_opening_line(self):
        src = make_source(
            """
            xg = np.empty(
                (4, 4),
            )  # repro: noqa[RPA002]
            """
        )
        assert src.is_suppressed("RPA002", 2)
        assert src.is_suppressed("RPA002", 3)

    def test_compound_statement_noqa_stops_at_body(self):
        src = make_source(
            """
            with registry.lock(  # repro: noqa[RPA006]
            ) as h:
                x = np.empty(4)
            """
        )
        assert src.is_suppressed("RPA006", 2)
        assert src.is_suppressed("RPA006", 3)  # still the `with` header
        assert not src.is_suppressed("RPA006", 4)  # body is not covered


class TestEngine:
    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine(select=["RPA999"])

    def test_select_limits_rules(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text("x = np.random.rand(3)\nq = np.array([0.5])\n")
        only_rng = LintEngine(select=["RPA003"], root=tmp_path).lint_paths([f])
        assert [v.code for v in only_rng] == ["RPA003"]
        both = LintEngine(select=["RPA003", "RPA004"], root=tmp_path).lint_paths([f])
        assert sorted(v.code for v in both) == ["RPA003", "RPA004"]

    def test_directory_walk_and_relative_paths(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = np.random.rand(3)\n")
        (pkg / "b.py").write_text("ok = 1\n")
        (pkg / "notes.txt").write_text("x = np.random.rand(3)\n")
        engine = LintEngine(select=["RPA003"], root=tmp_path)
        violations = engine.lint_paths([pkg])
        assert [v.path for v in violations] == ["pkg/a.py"]

    def test_syntax_error_collected_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        engine = LintEngine(root=tmp_path)
        assert engine.lint_paths([bad]) == []
        assert engine.errors and "syntax error" in engine.errors[0]


class TestBaselineWorkflow:
    def test_write_then_load_roundtrip(self, tmp_path):
        vs = [make_violation(), make_violation(), make_violation(scope="g")]
        path = write_baseline(vs, tmp_path / "b.json")
        baseline = load_baseline(path)
        assert baseline.total == 3
        assert baseline.entries["RPA003:f:x = np.random.rand()"] == 2
        assert baseline.entries["RPA003:g:x = np.random.rand()"] == 1

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema_version": 99, "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_diff_accepts_baselined_occurrences(self):
        vs = [make_violation(), make_violation()]
        baseline = Baseline(entries={"RPA003:f:x = np.random.rand()": 2})
        new, fixed = diff_baseline(vs, baseline)
        assert new == [] and not fixed

    def test_diff_flags_excess_occurrences(self):
        vs = [make_violation(line=i) for i in (1, 2, 3)]
        baseline = Baseline(entries={"RPA003:f:x = np.random.rand()": 2})
        new, _ = diff_baseline(vs, baseline)
        assert len(new) == 1  # one beyond budget

    def test_diff_reports_fixed_entries(self):
        baseline = Baseline(
            entries={"RPA003:f:x = np.random.rand()": 2, "RPA004:g:q = 0.5": 1}
        )
        new, fixed = diff_baseline([make_violation()], baseline)
        assert new == []
        assert fixed == {"RPA003:f:x = np.random.rand()": 1, "RPA004:g:q = 0.5": 1}

    def test_fingerprint_is_line_free(self):
        a = make_violation(line=10)
        b = make_violation(line=99)
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_is_path_free(self):
        """Renaming a file does not churn the baseline (move resilience)."""
        a = make_violation(path="src/repro/x.py")
        b = make_violation(path="src/repro/renamed.py")
        assert a.fingerprint == b.fingerprint

    def test_file_rename_keeps_baseline_clean(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "old.py").write_text("def f():\n    x = np.random.rand(3)\n")
        engine = LintEngine(select=["RPA003"], root=tmp_path)
        baseline_path = write_baseline(engine.lint_paths([pkg]), tmp_path / "b.json")
        (pkg / "old.py").rename(pkg / "new.py")
        after = LintEngine(select=["RPA003"], root=tmp_path).lint_paths([pkg])
        new, fixed = diff_baseline(after, load_baseline(baseline_path))
        assert new == [] and not fixed


class TestExplainDrift:
    def test_edited_line_pairs_by_scope(self):
        baseline = Baseline(entries={"RPA003:f:x = np.random.rand()": 1})
        moved = make_violation(snippet="x = np.random.randn()")
        report = explain_drift([moved], baseline)
        assert len(report) == 1
        assert report[0]["vanished"] == "RPA003:f:x = np.random.rand()"
        assert "edited line" in report[0]["reason"]
        assert report[0]["paired_with"]["snippet"] == "x = np.random.randn()"

    def test_scope_move_pairs_by_snippet(self):
        baseline = Baseline(entries={"RPA003:f:x = np.random.rand()": 1})
        moved = make_violation(scope="Klass.f")
        report = explain_drift([moved], baseline)
        assert "scope moved" in report[0]["reason"]

    def test_fixed_entry_with_no_match(self):
        baseline = Baseline(entries={"RPA003:f:x = np.random.rand()": 1})
        report = explain_drift([], baseline)
        assert report[0]["reason"].startswith("fixed")
        assert "paired_with" not in report[0]

    def test_genuinely_new_finding_reported(self):
        report = explain_drift([make_violation()], Baseline())
        assert report == [
            {
                "vanished": None,
                "reason": "genuinely new",
                "paired_with": make_violation().to_dict(),
            }
        ]


class TestGithubFormat:
    def test_annotation_shape(self):
        v = make_violation(line=7)
        out = format_github(v)
        assert out == "::error file=src/repro/x.py,line=7,col=1,title=RPA003::m"

    def test_message_escaping(self):
        v = make_violation()
        v = Violation(
            code=v.code, path=v.path, line=v.line, col=v.col,
            message="bad\nthing: 100%", scope=v.scope, snippet=v.snippet,
        )
        out = format_github(v)
        assert "\n" not in out
        assert "%0A" in out and "%25" in out


class TestFindingsDocument:
    def test_structure(self):
        vs = [make_violation()]
        doc = findings_to_dict(vs, vs, None, ["src"], errors=["e"])
        assert doc["tool"] == "repro.analyze"
        assert doc["summary"] == {
            "total": 1,
            "new": 1,
            "baselined": 0,
            "baseline_path": None,
            "errors": 1,
        }
        assert doc["violations"][0]["fingerprint"] == "RPA003:f:x = np.random.rand()"
        assert set(doc["rules"]) == {
            "RPA002", "RPA003", "RPA004", "RPA005", "RPA006", "RPA007",
            "RPA008", "RPA010", "RPA011", "RPA012", "RPA013",
        }


class TestAnalyzeCLI:
    def _tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "m.py").write_text("x = np.random.rand(3)\n")
        return pkg

    def test_new_violations_exit_1(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src"]) == 1
        out = capsys.readouterr().out
        assert "RPA003" in out and "1 new" in out

    def test_update_baseline_then_clean(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--update-baseline"]) == 0
        assert (tmp_path / "analyze_baseline.json").is_file()
        assert cli_main(["analyze", "src"]) == 0
        assert "OK: no new violations" in capsys.readouterr().out

    def test_new_code_beyond_baseline_fails_again(self, tmp_path, monkeypatch):
        pkg = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--update-baseline"]) == 0
        (pkg / "fresh.py").write_text("y = np.random.rand(2)\n")
        assert cli_main(["analyze", "src"]) == 1

    def test_json_artifact_written(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cli_main(["analyze", "src", "--json", "findings.json"])
        doc = json.loads((tmp_path / "findings.json").read_text())
        assert doc["summary"]["total"] == 1
        assert doc["new"][0]["code"] == "RPA003"

    def test_select_filters_rules(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--select", "RPA004"]) == 0

    def test_list_rules(self, capsys):
        assert cli_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPA002", "RPA005", "RPA010", "RPA011", "RPA012", "RPA013"):
            assert code in out

    def test_github_format_emits_annotations(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/m.py,line=1," in out
        assert "title=RPA003" in out

    def test_no_baseline_ignores_baseline_file(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--update-baseline"]) == 0
        assert cli_main(["analyze", "src"]) == 0
        assert cli_main(["analyze", "src", "--no-baseline"]) == 1

    def test_concurrency_flag_runs_clean_on_plain_tree(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--concurrency", "--no-baseline"]) == 0

    def test_concurrency_conflicts_with_select(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(
            ["analyze", "src", "--concurrency", "--select", "RPA003"]
        ) == 2

    def test_explain_drift_prints_pairs(self, tmp_path, monkeypatch, capsys):
        pkg = self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--update-baseline"]) == 0
        (pkg / "m.py").write_text("x = np.random.rand(4)\n")  # edited line
        assert cli_main(["analyze", "src", "--explain-drift"]) == 1
        out = capsys.readouterr().out
        assert "baseline drift:" in out
        assert "edited line" in out

    def test_graph_dump_written(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cli_main(["analyze", "src", "--graph", "graph.json"])
        doc = json.loads((tmp_path / "graph.json").read_text())
        assert "functions" in doc

    def test_index_cache_roundtrip(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        args = ["analyze", "src", "--no-baseline", "--index-cache", "idx.json"]
        assert cli_main(args) == 1
        cache = json.loads((tmp_path / "idx.json").read_text())
        assert cache["files"]
        # second run reuses the cache and reports identically
        assert cli_main(args) == 1


class TestRepoIsClean:
    """The acceptance criterion: `repro analyze src/` vs the committed
    baseline finds nothing new in this repo."""

    def test_src_has_no_new_violations(self):
        repo = Path(__file__).resolve().parent.parent
        engine = LintEngine(root=repo)
        violations = engine.lint_paths([repo / "src"])
        assert not engine.errors
        baseline = load_baseline(repo / "analyze_baseline.json")
        new, _ = diff_baseline(violations, baseline)
        assert new == [], "\n".join(v.format() for v in new)
