"""Validate the CI pipeline config and the perf-regression gate it calls.

The workflow file must stay loadable by a YAML parser and keep the six
jobs the pipeline is built around (tests, e2ebench-tests, lint,
bench-smoke, analyze, serve-bench); the ``scripts/check_perf_report.py``
comparison logic is tested directly by importing the script as a module.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.profile import OpStat, PerfReport

REPO_ROOT = Path(__file__).resolve().parent.parent

yaml = pytest.importorskip("yaml")


@pytest.fixture(scope="module")
def workflow() -> dict:
    path = REPO_ROOT / ".github" / "workflows" / "ci.yml"
    assert path.is_file(), "CI workflow file missing"
    return yaml.safe_load(path.read_text())


class TestWorkflowConfig:
    def test_parses_and_has_expected_jobs(self, workflow):
        assert set(workflow["jobs"]) == {
            "tests", "e2ebench-tests", "lint", "bench-smoke", "analyze", "serve-bench"
        }

    def test_concurrency_cancels_superseded_runs(self, workflow):
        conc = workflow["concurrency"]
        assert conc["cancel-in-progress"] is True
        assert "github.ref" in conc["group"]

    def test_every_job_caches_pip(self, workflow):
        for name, job in workflow["jobs"].items():
            caches = [s for s in job["steps"] if "actions/cache" in s.get("uses", "")]
            assert caches, f"job {name} has no pip cache step"
            with_ = caches[0]["with"]
            assert with_["path"] == "~/.cache/pip"
            # Keyed on the dependency manifest so edits invalidate the cache.
            assert "hashFiles('pyproject.toml')" in with_["key"]

    def test_triggers_on_push_and_pr(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_tests_job_covers_python_matrix(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.12"]
        steps = " ".join(s.get("run", "") for s in workflow["jobs"]["tests"]["steps"])
        assert "pytest" in steps

    def test_e2ebench_job_runs_the_benchmarks_own_tests(self, workflow):
        job = workflow["jobs"]["e2ebench-tests"]
        setup = [s for s in job["steps"] if "setup-python" in s.get("uses", "")]
        assert setup[0]["with"]["python-version"] == "3.12"
        runs = [s.get("run", "") for s in job["steps"]]
        assert "python -m pytest e2ebench/tests -q" in runs

    def test_lint_job_runs_ruff_and_compileall(self, workflow):
        steps = " ".join(s.get("run", "") for s in workflow["jobs"]["lint"]["steps"])
        assert "ruff check src tests benchmarks" in steps
        assert "compileall" in steps

    def test_bench_smoke_uploads_perf_artifact(self, workflow):
        job = workflow["jobs"]["bench-smoke"]
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "check_perf_report.py" in runs
        env = [s.get("env", {}) for s in job["steps"]]
        assert {"REPRO_BENCH_SCALE": "tiny"} in env
        uploads = [s for s in job["steps"] if "upload-artifact" in s.get("uses", "")]
        assert uploads and "perf_*.json" in uploads[0]["with"]["path"]


def _load_checker():
    path = REPO_ROOT / "scripts" / "check_perf_report.py"
    spec = importlib.util.spec_from_file_location("check_perf_report", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _report(name: str, seconds_by_op: dict[str, float]) -> PerfReport:
    return PerfReport(
        name=name,
        ops={
            op: OpStat(name=op, calls=1, total_seconds=s, bytes_allocated=0)
            for op, s in seconds_by_op.items()
        },
    )


class TestCheckPerfReport:
    def test_identical_reports_pass(self):
        mod = _load_checker()
        rep = _report("a", {"op": 1.0})
        regressions, rows = mod.compare(rep, rep, threshold=0.30, min_seconds=0.005)
        assert regressions == []
        assert len(rows) == 1

    def test_regression_detected_past_threshold(self):
        mod = _load_checker()
        base = _report("base", {"slow": 1.0, "ok": 1.0})
        cur = _report("cur", {"slow": 1.5, "ok": 1.1})
        regressions, _ = mod.compare(base, cur, threshold=0.30, min_seconds=0.005)
        assert [r[0] for r in regressions] == ["slow"]

    def test_noise_floor_skips_fast_ops(self):
        mod = _load_checker()
        base = _report("base", {"tiny": 0.001})
        cur = _report("cur", {"tiny": 0.004})  # 4x slower but under the floor
        regressions, _ = mod.compare(base, cur, threshold=0.30, min_seconds=0.005)
        assert regressions == []

    def test_new_and_removed_ops_never_fail(self):
        mod = _load_checker()
        base = _report("base", {"gone": 1.0})
        cur = _report("cur", {"fresh": 5.0})
        regressions, rows = mod.compare(base, cur, threshold=0.30, min_seconds=0.005)
        assert regressions == []
        statuses = {row[0]: row[3] for row in rows}
        assert statuses == {"fresh": "new", "gone": "removed"}

    def test_main_exit_codes(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        _report("cur", {"op": 2.0}).write(cur)
        assert mod.main([str(base), str(base)]) == 0
        assert mod.main([str(base), str(cur)]) == 1
        assert "regressed" in capsys.readouterr().out


class TestAnalyzeJobWiring:
    """The analyze job must lint vs the committed baseline and smoke-train
    with the runtime sanitizers on."""

    def test_lints_against_committed_baseline(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["analyze"]["steps"])
        assert "repro analyze src" in runs
        assert "--baseline analyze_baseline.json" in runs
        assert "--json analyze_findings.json" in runs

    def test_lint_emits_github_annotations(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["analyze"]["steps"])
        assert "--format github" in runs

    def test_pass1_index_is_cached_on_source_hash(self, workflow):
        job = workflow["jobs"]["analyze"]
        caches = [s for s in job["steps"] if "actions/cache" in s.get("uses", "")]
        # caches[0] is the pip cache every job carries; the index cache is
        # the analyze job's own.
        index = next(
            c for c in caches
            if ".repro-analyze-index.json" in c["with"]["path"]
        )
        assert "hashFiles('src/**/*.py')" in index["with"]["key"]
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "--index-cache .repro-analyze-index.json" in runs

    def test_concurrency_rules_gate_is_zero_debt(self, workflow):
        # RPA010-013 run with no baseline: any finding fails the job.
        runs = [s.get("run", "") for s in workflow["jobs"]["analyze"]["steps"]]
        gate = next(r for r in runs if "--concurrency" in r)
        assert "--no-baseline" in gate

    def test_committed_analyze_baseline_exists(self):
        import json

        path = REPO_ROOT / "analyze_baseline.json"
        assert path.is_file(), "committed analyze baseline missing"
        data = json.loads(path.read_text())
        assert "entries" in data and data["schema_version"] == 2
        # v2 fingerprints are path-free: code:scope:snippet.
        for fingerprint in data["entries"]:
            code, scope, snippet = fingerprint.split(":", 2)
            assert code.startswith("RPA") and scope and snippet

    def test_smoke_train_runs_under_sanitizers(self, workflow):
        job = workflow["jobs"]["analyze"]
        env = [s.get("env", {}) for s in job["steps"]]
        assert {"REPRO_SANITIZE": "1"} in env
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "repro train" in runs
        assert "--perf-out" in runs

    def test_serving_tests_run_under_sanitizers(self, workflow):
        # The lock-order watchdog and the per-materialization plane check
        # then cover the registry's eviction path.
        step = next(
            s for s in workflow["jobs"]["analyze"]["steps"]
            if "tests/test_serve.py" in s.get("run", "")
        )
        assert step.get("env") == {"REPRO_SANITIZE": "1"}
        assert "pytest" in step["run"]

    def test_findings_uploaded_as_artifact(self, workflow):
        job = workflow["jobs"]["analyze"]
        uploads = [s for s in job["steps"] if "upload-artifact" in s.get("uses", "")]
        assert uploads and "analyze_findings.json" in uploads[0]["with"]["path"]


class TestSanitizedReportsSkipPerfGate:
    """Sanitizer overhead must not trip the perf gate (satellite of the
    repro.analyze PR): reports stamped ``meta.sanitize`` are excluded."""

    def _sanitized(self, name: str, seconds_by_op: dict[str, float]) -> PerfReport:
        rep = _report(name, seconds_by_op)
        rep.meta["sanitize"] = True
        return rep

    def test_sanitized_current_skips_gate(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        self._sanitized("cur", {"op": 50.0}).write(cur)  # huge "regression"
        assert mod.main([str(base), str(cur)]) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_sanitized_baseline_skips_gate(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        self._sanitized("base", {"op": 1.0}).write(base)
        _report("cur", {"op": 50.0}).write(cur)
        assert mod.main([str(base), str(cur)]) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_allow_sanitized_restores_gating(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        self._sanitized("base", {"op": 1.0}).write(base)
        self._sanitized("cur", {"op": 50.0}).write(cur)
        assert mod.main([str(base), str(cur), "--allow-sanitized"]) == 1
        out = capsys.readouterr().out
        assert "SKIP" not in out
        assert "regressed" in out

    def test_unsanitized_reports_still_gate(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        _report("cur", {"op": 50.0}).write(cur)
        assert mod.main([str(base), str(cur)]) == 1


class TestPerfGateWiring:
    """The bench-smoke job must gate on the committed perf baseline."""

    def test_baseline_stashed_before_bench_regenerates_it(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        runs = [s.get("run", "") for s in steps]
        stash = next(i for i, r in enumerate(runs) if "perf_dropback_step.baseline.json" in r)
        bench = next(i for i, r in enumerate(runs) if "test_perf_dropback_step_paths" in r)
        gate = next(
            i for i, r in enumerate(runs)
            if "check_perf_report.py" in r and "--normalize" in r
        )
        assert stash < bench < gate

    def test_gate_is_normalized_and_blocking(self, workflow):
        runs = " ".join(
            s.get("run", "") for s in workflow["jobs"]["bench-smoke"]["steps"]
        )
        # Ratios, not machine-dependent wall times, are what CI compares.
        assert "--normalize dropback.reference_step" in runs
        assert "/tmp/perf_dropback_step.baseline.json" in runs

    def test_committed_baseline_exists_and_has_gated_ops(self):
        path = REPO_ROOT / "benchmarks" / "results" / "perf_dropback_step.json"
        assert path.is_file(), "committed perf baseline missing"
        report = PerfReport.load(path)
        for op in ("dropback.step", "dropback.step.frozen", "dropback.reference_step"):
            assert op in report.ops, op
            assert report.ops[op].total_seconds > 0


class TestKernelGateWiring:
    """The bench-smoke job must also regenerate the kernel micro-bench and
    gate the fast backend's speedups against the committed baseline."""

    def test_baseline_stashed_before_bench_regenerates_it(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        runs = [s.get("run", "") for s in steps]
        stash = next(i for i, r in enumerate(runs) if "perf_kernels.baseline.json" in r)
        bench = next(i for i, r in enumerate(runs) if "repro kernels --bench" in r)
        gate = next(
            i for i, r in enumerate(runs)
            if "perf_kernels.baseline.json" in r and "check_perf_report.py" in r
        )
        assert stash < bench < gate

    def test_gate_normalizes_by_reference_and_gates_speedups(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["bench-smoke"]["steps"])
        assert "--normalize kernels.conv2d_forward.reference" in runs
        # Kernel minima are sub-millisecond; the default noise floor would
        # silently skip every op, so the job must zero it.
        assert "--min-seconds 0.0" in runs
        assert "--gate-meta speedup_conv_gemm:1.1" in runs
        assert "--gate-meta speedup_bn_relu:1.2" in runs
        assert "--gate-meta speedup_conv_forward:1.0" in runs

    @pytest.mark.parametrize("backend", ["reference", "sparse"])
    def test_tests_job_runs_parity_suite_on_reference_backend(self, workflow, backend):
        job = workflow["jobs"]["tests"]
        env = [s.get("env", {}) for s in job["steps"]]
        assert {"REPRO_BACKEND": backend} in env
        runs = " ".join(s.get("run", "") for s in job["steps"])
        assert "test_kernels_parity.py" in runs

    def test_committed_kernel_baseline_exists_and_has_gated_ops(self):
        path = REPO_ROOT / "benchmarks" / "results" / "perf_kernels.json"
        assert path.is_file(), "committed kernel bench baseline missing"
        report = PerfReport.load(path)
        for op in (
            "kernels.matmul.reference",
            "kernels.matmul.fast",
            "kernels.conv2d_forward.reference",
            "kernels.conv2d_forward.fast",
            "kernels.bn_relu_forward.reference",
            "kernels.bn_relu_forward.fast",
        ):
            assert op in report.ops, op
            assert report.ops[op].total_seconds > 0
        assert report.meta["speedup_conv_gemm"] >= 1.1
        assert report.meta["speedup_bn_relu"] >= 1.2
        assert report.meta["speedup_conv_forward"] >= 1.0


class TestParallelGateWiring:
    """The bench-smoke job must regenerate the data-parallel scaling bench
    and gate it against the committed baseline, applying the
    scaling-efficiency floor only on multi-core runners."""

    def test_baseline_stashed_before_bench_regenerates_it(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        runs = [s.get("run", "") for s in steps]
        stash = next(i for i, r in enumerate(runs) if "perf_parallel.baseline.json" in r)
        bench = next(i for i, r in enumerate(runs) if "bench_parallel.py" in r)
        gate = next(
            i for i, r in enumerate(runs)
            if "perf_parallel.baseline.json" in r and "check_perf_report.py" in r
        )
        assert stash < bench < gate

    def test_gate_normalizes_and_floors_efficiency_conditionally(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        run = next(
            s["run"] for s in steps
            if "check_perf_report.py" in s.get("run", "")
            and "perf_parallel.baseline.json" in s.get("run", "")
        )
        # Ratios normalized by the 1-worker anchor: machine-independent.
        assert "--normalize parallel.step.1w" in run
        assert "--min-seconds 0.0" in run
        # The >= 1.5x-at-2-workers acceptance floor (0.75 efficiency),
        # applied only where two cores actually exist.
        assert "scaling_efficiency_2w:0.75" in run
        assert "nproc" in run and "skip" in run

    def test_committed_parallel_baseline_exists_and_is_self_describing(self):
        path = REPO_ROOT / "benchmarks" / "results" / "perf_parallel.json"
        assert path.is_file(), "committed parallel bench baseline missing"
        report = PerfReport.load(path)
        for op in ("parallel.step.1w", "parallel.step.2w",
                   "parallel.rank0.compute", "parallel.rank1.compute"):
            assert op in report.ops, op
            assert report.ops[op].total_seconds > 0
        # Self-describing: which regime produced it, and the efficiency it
        # measured there.  NO floor assertion — a 1-CPU host honestly
        # reports sub-0.75 efficiency; the floor lives in CI where nproc
        # is known.
        assert report.meta["workers"] == 2
        assert report.meta["cpu_count"] >= 1
        assert 0.0 < report.meta["scaling_efficiency_2w"] <= 1.0
        # Identical numerical work in both runs: same microbatch.
        assert report.meta["batch_size"] % report.meta["microbatch"] == 0


class TestCheckPerfReportNormalize:
    def test_normalize_cancels_machine_speed(self):
        mod = _load_checker()
        base = _report("base", {"anchor": 1.0, "op": 0.5})
        twice_as_slow = _report("cur", {"anchor": 2.0, "op": 1.0})
        with_norm, _ = mod.compare(
            base, twice_as_slow, threshold=0.30, min_seconds=0.005, normalize="anchor"
        )
        assert with_norm == []
        without_norm, _ = mod.compare(base, twice_as_slow, threshold=0.30, min_seconds=0.005)
        assert [r[0] for r in without_norm] == ["anchor", "op"]

    def test_normalize_detects_ratio_regression(self):
        mod = _load_checker()
        base = _report("base", {"anchor": 1.0, "op": 0.5})
        cur = _report("cur", {"anchor": 1.0, "op": 0.8})
        regressions, _ = mod.compare(
            base, cur, threshold=0.30, min_seconds=0.005, normalize="anchor"
        )
        assert [r[0] for r in regressions] == ["op"]

    def test_anchor_itself_never_regresses(self):
        mod = _load_checker()
        base = _report("base", {"anchor": 1.0})
        cur = _report("cur", {"anchor": 3.0})
        regressions, _ = mod.compare(
            base, cur, threshold=0.30, min_seconds=0.005, normalize="anchor"
        )
        assert regressions == []

    def test_missing_anchor_is_fatal(self):
        mod = _load_checker()
        base = _report("base", {"anchor": 1.0, "op": 1.0})
        cur = _report("cur", {"op": 1.0})
        with pytest.raises(SystemExit):
            mod.compare(base, cur, threshold=0.30, min_seconds=0.005, normalize="anchor")

    def test_main_accepts_normalize_flag(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"anchor": 1.0, "op": 0.5}).write(base)
        _report("cur", {"anchor": 4.0, "op": 2.0}).write(cur)
        assert mod.main([str(base), str(cur), "--normalize", "anchor"]) == 0
        assert "normalized by: anchor" in capsys.readouterr().out
        assert mod.main([str(base), str(cur)]) == 1


class TestCheckerUnusableInput:
    """Missing or incomprehensible reports must fail loudly with exit 2 —
    a silent 0 would disable the gate, a traceback would bury the cause."""

    def _exit_code(self, mod, argv) -> int:
        with pytest.raises(SystemExit) as exc_info:
            mod.main(argv)
        return exc_info.value.code

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        mod = _load_checker()
        cur = tmp_path / "cur.json"
        _report("cur", {"op": 1.0}).write(cur)
        assert self._exit_code(mod, [str(tmp_path / "nope.json"), str(cur)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_current_exits_2(self, tmp_path, capsys):
        mod = _load_checker()
        base = tmp_path / "base.json"
        _report("base", {"op": 1.0}).write(base)
        assert self._exit_code(mod, [str(base), str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_newer_schema_exits_2(self, tmp_path, capsys):
        import json

        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        doc = json.loads(base.read_text())
        doc["schema_version"] = 999
        cur.write_text(json.dumps(doc))
        assert self._exit_code(mod, [str(base), str(cur)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        mod = _load_checker()
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        cur.write_text("{not json")
        assert self._exit_code(mod, [str(base), str(cur)]) == 2


class TestMetaGate:
    """``--gate-meta NAME:MIN`` gates numeric meta fields of the current
    report (the serving job uses it for speedup_vs_batch1)."""

    def _pair(self, tmp_path, meta: dict):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        rep = _report("cur", {"op": 1.0})
        rep.meta.update(meta)
        rep.write(cur)
        return str(base), str(cur)

    def test_meta_at_or_above_minimum_passes(self, tmp_path, capsys):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"speedup": 2.5})
        assert mod.main([base, cur, "--gate-meta", "speedup:2.0"]) == 0
        assert "meta gate ok" in capsys.readouterr().out

    def test_meta_below_minimum_fails(self, tmp_path, capsys):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"speedup": 1.4})
        assert mod.main([base, cur, "--gate-meta", "speedup:2.0"]) == 1
        assert "required minimum" in capsys.readouterr().out

    def test_missing_meta_key_fails(self, tmp_path, capsys):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {})
        assert mod.main([base, cur, "--gate-meta", "speedup:2.0"]) == 1
        assert "missing or non-numeric" in capsys.readouterr().out

    def test_non_numeric_meta_fails(self, tmp_path):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"speedup": "fast"})
        assert mod.main([base, cur, "--gate-meta", "speedup:2.0"]) == 1

    def test_repeatable(self, tmp_path):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"a": 3.0, "b": 1.0})
        argv = [base, cur, "--gate-meta", "a:2.0", "--gate-meta", "b:2.0"]
        assert mod.main(argv) == 1
        argv = [base, cur, "--gate-meta", "a:2.0", "--gate-meta", "b:0.5"]
        assert mod.main(argv) == 0

    def test_bad_spec_exits_2(self, tmp_path):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"a": 3.0})
        with pytest.raises(SystemExit) as exc_info:
            mod.main([base, cur, "--gate-meta", "nocolon"])
        assert exc_info.value.code == 2


class TestMetaGateMax:
    """``--gate-meta-max NAME:MAX`` is the ceiling twin of ``--gate-meta``
    (the sparse job uses it for registry_bytes_ratio: packed serving must
    stay *below* half the dense footprint)."""

    def _pair(self, tmp_path, meta: dict):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        _report("base", {"op": 1.0}).write(base)
        rep = _report("cur", {"op": 1.0})
        rep.meta.update(meta)
        rep.write(cur)
        return str(base), str(cur)

    def test_meta_at_or_below_maximum_passes(self, tmp_path, capsys):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"bytes_ratio": 0.1})
        assert mod.main([base, cur, "--gate-meta-max", "bytes_ratio:0.5"]) == 0
        assert "meta gate ok" in capsys.readouterr().out

    def test_meta_above_maximum_fails(self, tmp_path, capsys):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"bytes_ratio": 0.9})
        assert mod.main([base, cur, "--gate-meta-max", "bytes_ratio:0.5"]) == 1
        assert "required maximum" in capsys.readouterr().out

    def test_missing_meta_key_fails(self, tmp_path, capsys):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {})
        assert mod.main([base, cur, "--gate-meta-max", "bytes_ratio:0.5"]) == 1
        assert "missing or non-numeric" in capsys.readouterr().out

    def test_floor_and_ceiling_compose(self, tmp_path):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"speedup": 3.0, "bytes_ratio": 0.2})
        argv = [
            base, cur,
            "--gate-meta", "speedup:2.0",
            "--gate-meta-max", "bytes_ratio:0.5",
        ]
        assert mod.main(argv) == 0

    def test_bad_spec_exits_2(self, tmp_path):
        mod = _load_checker()
        base, cur = self._pair(tmp_path, {"a": 3.0})
        with pytest.raises(SystemExit) as exc_info:
            mod.main([base, cur, "--gate-meta-max", "nocolon"])
        assert exc_info.value.code == 2


class TestSparseGateWiring:
    """The bench-smoke job must regenerate the sparse execution bench and
    gate both directions: the sparse-matmul speedup floor and the packed
    registry bytes ceiling."""

    def test_baseline_stashed_before_bench_regenerates_it(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        runs = [s.get("run", "") for s in steps]
        stash = next(i for i, r in enumerate(runs) if "perf_sparse.baseline.json" in r)
        bench = next(i for i, r in enumerate(runs) if "bench_sparse.py" in r)
        gate = next(
            i for i, r in enumerate(runs)
            if "perf_sparse.baseline.json" in r and "check_perf_report.py" in r
        )
        assert stash < bench < gate

    def test_bench_pins_blas_threads(self, workflow):
        # The committed baseline was measured single-threaded; an
        # unpinned BLAS would make the dense anchor incomparable.
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        bench = next(s for s in steps if "bench_sparse.py" in s.get("run", ""))
        assert bench["env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert bench["env"]["OMP_NUM_THREADS"] == "1"

    def test_gate_has_speedup_floor_and_bytes_ceiling(self, workflow):
        steps = workflow["jobs"]["bench-smoke"]["steps"]
        run = next(
            s["run"] for s in steps
            if "perf_sparse.baseline.json" in s.get("run", "")
            and "check_perf_report.py" in s.get("run", "")
        )
        assert "--normalize kernels.matmul.fast" in run
        assert "--min-seconds 0.0" in run
        assert "--gate-meta speedup_sparse_matmul_d90:2.0" in run
        assert "--gate-meta-max registry_bytes_ratio:0.5" in run

    def test_committed_sparse_baseline_exists_and_meets_gates(self):
        path = REPO_ROOT / "benchmarks" / "results" / "perf_sparse.json"
        assert path.is_file(), "committed sparse bench baseline missing"
        report = PerfReport.load(path)
        for op in (
            "kernels.matmul.fast",
            "kernels.matmul.sparse",
            "serve.dense_forward",
            "serve.sparse_forward",
        ):
            assert op in report.ops, op
            assert report.ops[op].total_seconds > 0
        assert report.meta["speedup_sparse_matmul_d90"] >= 2.0
        assert report.meta["registry_bytes_ratio"] <= 0.5
        assert report.meta["sparse_density_cutoff"] == 0.25


class TestServeBenchJobWiring:
    """The serve-bench job must stash the committed serving baseline,
    regenerate it under load, and gate p50/p99 + the batching speedup."""

    def test_baseline_stashed_before_bench_regenerates_it(self, workflow):
        steps = workflow["jobs"]["serve-bench"]["steps"]
        runs = [s.get("run", "") for s in steps]
        stash = next(i for i, r in enumerate(runs) if "perf_serve.baseline.json" in r)
        bench = next(i for i, r in enumerate(runs) if "bench_serve.py" in r)
        gate = next(i for i, r in enumerate(runs) if "check_perf_report.py" in r)
        assert stash < bench < gate

    def test_drives_at_least_eight_concurrent_clients(self, workflow):
        runs = [s.get("run", "") for s in workflow["jobs"]["serve-bench"]["steps"]]
        bench = next(r for r in runs if "bench_serve.py" in r)
        clients = int(bench.split("--clients")[1].split()[0])
        assert clients >= 8

    def test_gate_normalizes_by_single_forward_and_gates_speedup(self, workflow):
        runs = " ".join(s.get("run", "") for s in workflow["jobs"]["serve-bench"]["steps"])
        assert "--normalize serve.single_forward" in runs
        # Percentiles are sub-millisecond: the default noise floor would
        # silently skip them, so the job must zero it.
        assert "--min-seconds 0.0" in runs
        assert "--gate-meta speedup_vs_batch1:2.0" in runs

    def test_report_uploaded_as_artifact(self, workflow):
        job = workflow["jobs"]["serve-bench"]
        uploads = [s for s in job["steps"] if "upload-artifact" in s.get("uses", "")]
        assert uploads and "perf_serve.json" in uploads[0]["with"]["path"]

    def test_committed_serving_baseline_exists_and_has_gated_ops(self):
        path = REPO_ROOT / "benchmarks" / "results" / "perf_serve.json"
        assert path.is_file(), "committed serving baseline missing"
        report = PerfReport.load(path)
        for op in ("serve.latency.p50", "serve.latency.p99", "serve.single_forward"):
            assert op in report.ops, op
            assert report.ops[op].total_seconds > 0
        assert report.meta["speedup_vs_batch1"] >= 2.0
        assert report.meta["clients"] >= 8
