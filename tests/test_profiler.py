"""Tests for the op-level profiler (:mod:`repro.profile`).

Covers the tentpole contracts: counters aggregate across nested scopes,
the decorator preserves metadata and propagates exceptions, disabled mode
records nothing, ProfilerCallback round-trips through JSON, and profiling
never changes training numerics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import profile
from repro.data import DataLoader
from repro.models import mlp
from repro.optim import SGD, ConstantLR
from repro.profile import OpStat, PerfReport, profiled
from repro.train import ProfilerCallback, Trainer
from repro.utils.determinism import weights_digest


@pytest.fixture(autouse=True)
def _clean_profile_state():
    """Isolate each test from the process-global registry and flag."""
    was_enabled = profile.is_enabled()
    profile.disable()
    profile.reset()
    yield
    profile.reset()
    if was_enabled:
        profile.enable()
    else:
        profile.disable()


class TestRegistry:
    def test_counters_aggregate_across_nested_scopes(self):
        profile.enable()
        with profiled("outer"):
            for _ in range(3):
                with profiled("inner"):
                    profile.add_counter("widgets")
            profile.add_counter("widgets", 10)
        snap = profile.snapshot()
        assert snap["ops"]["outer"]["calls"] == 1
        assert snap["ops"]["inner"]["calls"] == 3
        assert snap["counters"]["widgets"] == 13
        # nested inner time is part of outer's wall time
        assert snap["ops"]["outer"]["total_seconds"] >= snap["ops"]["inner"]["total_seconds"]

    def test_record_accumulates_in_place(self):
        reg = profile.Registry()
        reg.record("op", 0.5, 100)
        reg.record("op", 0.25, 50)
        stat = reg.ops["op"]
        assert stat.calls == 2
        assert stat.total_seconds == pytest.approx(0.75)
        assert stat.bytes_allocated == 150

    def test_reset_clears_everything(self):
        profile.enable()
        with profiled("op"):
            profile.add_counter("c")
        profile.reset()
        snap = profile.snapshot()
        assert snap == {"ops": {}, "counters": {}}


class TestProfiledDecorator:
    def test_preserves_metadata(self):
        @profiled("math.double")
        def double(x):
            """Double the input."""
            return 2 * x

        assert double.__name__ == "double"
        assert double.__doc__ == "Double the input."
        assert double(21) == 42  # disabled path still works

    def test_exceptions_propagate_and_are_counted(self):
        @profiled("math.fail")
        def boom():
            raise ValueError("expected")

        profile.enable()
        with pytest.raises(ValueError, match="expected"):
            boom()
        assert profile.snapshot()["ops"]["math.fail"]["calls"] == 1

    def test_records_result_bytes_for_arrays(self):
        @profiled("alloc.zeros")
        def make():
            return np.zeros(16, dtype=np.float64)

        profile.enable()
        make()
        assert profile.snapshot()["ops"]["alloc.zeros"]["bytes_allocated"] == 16 * 8

    def test_disabled_mode_adds_no_entries(self):
        @profiled("op.fn")
        def fn():
            return 1

        fn()
        with profiled("op.region"):
            pass
        profile.add_counter("op.counter")
        assert profile.snapshot() == {"ops": {}, "counters": {}}

    def test_enable_midway_through_scope_records_nothing(self):
        # the context manager latches the flag at __enter__; flipping it on
        # mid-scope must not record a bogus duration at __exit__
        cm = profiled("op.race")
        with cm:
            profile.enable()
        assert "op.race" not in profile.snapshot()["ops"]


class TestPerfReport:
    def test_opstat_roundtrip(self):
        stat = OpStat(name="op", calls=3, total_seconds=1.5, bytes_allocated=64)
        assert OpStat.from_dict(stat.to_dict()) == stat

    def test_write_and_load(self, tmp_path):
        report = PerfReport(
            name="unit",
            ops={"op": OpStat(name="op", calls=2, total_seconds=0.5, bytes_allocated=8)},
            counters={"hits": 4},
            meta={"scale": 0.1},
        )
        path = report.write(tmp_path / "perf_unit.json")
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == profile.SCHEMA_VERSION
        loaded = PerfReport.load(path)
        assert loaded.name == "unit"
        assert loaded.ops["op"] == report.ops["op"]
        assert loaded.counters == {"hits": 4}
        assert loaded.meta["scale"] == 0.1

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            PerfReport.from_dict({"schema_version": 999, "name": "x", "ops": {}})

    def test_hotspot_table_renders(self):
        report = PerfReport(
            name="unit",
            ops={"op": OpStat(name="op", calls=1, total_seconds=0.25, bytes_allocated=0)},
        )
        table = report.hotspot_table()
        assert "op" in table and "calls" in table


class TestProfilerCallback:
    def _fit(self, callback, seed=11):
        model = mlp(784, (16,), 10).finalize(seed)
        from repro.data import synth_mnist

        train, test = synth_mnist(n_train=128, n_test=64, seed=seed)
        trainer = Trainer(
            model,
            SGD(model, lr=0.1),
            schedule=ConstantLR(0.1),
            callbacks=[callback] if callback else [],
        )
        trainer.fit(DataLoader(train, 32, seed=0), test, epochs=1)
        return model

    def test_roundtrips_through_json(self, tmp_path):
        path = tmp_path / "perf_train.json"
        cb = ProfilerCallback(report_name="unit_train", emit_path=path)
        self._fit(cb)

        assert not profile.is_enabled()  # restored after training
        assert cb.report is not None
        loaded = PerfReport.load(path)
        assert loaded.name == "unit_train"
        for op in ("trainer.forward", "trainer.backward", "trainer.optimizer_step"):
            assert loaded.ops[op].calls == cb.report.ops[op].calls > 0
        assert loaded.meta["epochs"] == 1
        assert loaded.meta["steps"] == cb.report.meta["steps"] == 4
        assert len(loaded.meta["epoch_trace"]) == 1

    def test_report_is_backend_tagged(self):
        from repro.tensor import kernels

        cb = ProfilerCallback(report_name="tagged")
        with kernels.use_backend("reference"):
            self._fit(cb)
        assert cb.report.meta["backend"] == "reference"

    def test_profiling_does_not_change_numerics(self):
        digest_plain = weights_digest(self._fit(None))
        digest_profiled = weights_digest(self._fit(ProfilerCallback(report_name="d")))
        assert digest_plain == digest_profiled
