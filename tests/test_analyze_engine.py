"""Engine-level tests: suppressions, findings output, CLI exit codes."""

from __future__ import annotations

import io
import json
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analyze import RULE_REGISTRY, LintEngine, findings_to_dict, format_github
from repro.analyze.engine import _NOQA_RE, SourceFile, Violation
from repro.cli import main as cli_main


def make_source(text: str, relpath: str = "src/repro/x.py") -> SourceFile:
    return SourceFile(Path(relpath), relpath, textwrap.dedent(text))


def make_violation(code="RPA003", path="src/repro/x.py", line=1, scope="f") -> Violation:
    return Violation(code=code, path=path, line=line, col=0, message="m", scope=scope)


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


class TestGithubFormat:
    def test_annotation_shape(self):
        v = make_violation(line=7)
        out = format_github(v)
        assert out == "::error file=src/repro/x.py,line=7,col=1,title=RPA003::m"

    def test_message_escaping(self):
        v = make_violation()
        v = Violation(
            code=v.code, path=v.path, line=v.line, col=v.col,
            message="bad\nthing: 100%", scope=v.scope,
        )
        out = format_github(v)
        assert "\n" not in out
        assert "%0A" in out and "%25" in out


class TestFindingsDocument:
    def test_structure(self):
        vs = [make_violation()]
        doc = findings_to_dict(vs, ["src"], errors=["e"])
        assert doc["tool"] == "repro.analyze"
        assert doc["summary"] == {"total": 1, "errors": 1}
        assert doc["violations"] == [make_violation().to_dict()]
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
        assert "src/m.py:1:4: RPA003" in out and "1 violation(s)" in out

    def test_json_artifact_written(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cli_main(["analyze", "src", "--json", "findings.json"])
        doc = json.loads((tmp_path / "findings.json").read_text())
        assert doc["summary"]["total"] == 1
        assert doc["violations"][0]["code"] == "RPA003"

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

    def test_concurrency_flag_runs_clean_on_plain_tree(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "src", "--select", "RPA010,RPA011,RPA012,RPA013"]) == 0

    def test_unknown_rule_code_is_usage_error(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        # RPA009 was retired into RPA008.
        assert cli_main(["analyze", "src", "--select", "RPA003,RPA009"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "RPA009" in err[0]

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        for typo in ("scr", "src/nope.py"):
            assert cli_main(["analyze", typo]) == 2, typo
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and typo in err[0]

    def test_paths_without_python_files_are_usage_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "notes.txt").write_text("x = np.random.rand(3)\n")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["analyze", "docs", "docs/notes.txt"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "docs" in err[0]

    def test_graph_dump_written(self, tmp_path, monkeypatch):
        self._tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        cli_main(["analyze", "src", "--graph", "graph.json"])
        doc = json.loads((tmp_path / "graph.json").read_text())
        assert "functions" in doc


class TestRepoIsClean:
    """The acceptance criterion: `repro analyze src` finds nothing in this
    repo, and every suppression in it still suppresses something."""

    def test_src_has_no_new_violations(self):
        repo = Path(__file__).resolve().parent.parent
        engine = LintEngine(root=repo)
        violations = engine.lint_paths([repo / "src"])
        assert not engine.errors
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_every_suppression_covers_a_finding(self, monkeypatch):
        # Lint with suppressions ignored, then ask of each `# repro: noqa`
        # comment (not docstring text) whether it covers a finding of a
        # code it names.
        repo = Path(__file__).resolve().parent.parent
        monkeypatch.setattr(SourceFile, "is_suppressed", lambda self, code, line: False)
        engine = LintEngine(root=repo)
        found = {(v.path, v.line, v.code) for v in engine.lint_paths([repo / "src"])}
        stale = []
        for path in sorted((repo / "src").rglob("*.py")):
            rel = path.relative_to(repo).as_posix()
            text = path.read_text()
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type != tokenize.COMMENT or not _NOQA_RE.search(tok.string):
                    continue
                # The engine's own span for this one marker: reparse with
                # every other marker turned into a plain comment.
                alone = "\n".join(
                    line if row == tok.start[0] else _NOQA_RE.sub("#", line)
                    for row, line in enumerate(text.splitlines(), start=1)
                )
                covered = SourceFile(path, rel, alone).suppressions
                if not any(
                    (rel, line, code) in found
                    for line, codes in covered.items()
                    for code in (codes or RULE_REGISTRY)
                ):
                    stale.append(f"{rel}:{tok.start[0]}: {tok.string}")
        assert stale == [], "\n".join(stale)
