"""Tests for the JSONL experiment logger."""

import numpy as np
import pytest

from repro.utils.explog import ExperimentLogger, iter_metrics, read_log


class TestExperimentLogger:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        log = ExperimentLogger(path, "table1")
        log.log({"k": 20000}, {"error": 0.017})
        log.log({"k": 1500}, {"error": 0.038})
        records = read_log(path)
        assert len(records) == 2
        assert records[0]["config"]["k"] == 20000
        assert records[1]["metrics"]["error"] == 0.038

    def test_sequence_numbers(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        log = ExperimentLogger(path, "x")
        for _ in range(3):
            log.log({}, {})
        assert [r["seq"] for r in read_log(path)] == [0, 1, 2]

    def test_numpy_values_serialized(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        log = ExperimentLogger(path, "x")
        rec = log.log(
            {"arr": np.arange(3), "f": np.float32(1.5)},
            {"i": np.int64(7), "nested": {"v": np.float64(0.25)}},
        )
        assert rec["config"]["arr"] == [0, 1, 2]
        loaded = read_log(path)[0]
        assert loaded["metrics"]["i"] == 7
        assert loaded["metrics"]["nested"]["v"] == 0.25

    def test_filter_by_experiment(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ExperimentLogger(path, "a").log({}, {"v": 1})
        ExperimentLogger(path, "b").log({}, {"v": 2})
        assert len(read_log(path, "a")) == 1
        assert read_log(path, "b")[0]["metrics"]["v"] == 2

    def test_append_across_instances(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ExperimentLogger(path, "a").log({}, {})
        ExperimentLogger(path, "a").log({}, {})
        assert len(read_log(path)) == 2

    def test_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "dir" / "runs.jsonl")
        ExperimentLogger(path, "a").log({}, {})
        assert len(read_log(path)) == 1

    def test_empty_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentLogger(str(tmp_path / "x.jsonl"), "")

    def test_corrupt_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt log line 1"):
            read_log(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"experiment": "a", "metrics": {}, "config": {}, "seq": 0}\n\n')
        assert len(read_log(str(path))) == 1

    def test_iter_metrics(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        log = ExperimentLogger(path, "sweep")
        for v in (0.1, 0.2, 0.3):
            log.log({}, {"error": v})
        assert list(iter_metrics(path, "sweep", "error")) == [0.1, 0.2, 0.3]
