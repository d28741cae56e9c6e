"""Tests of the benchmark's own code: span arithmetic, percentile support,
seeded inputs, the response checker, and a tiny run of every workload."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import hostenv
import inputs
import run
import serve_bench
import train_bench
from repro.io import read_sparse_payload
from repro.tensor import tensor as tensor_module
from tracing import Tracer, self_times, supported_percentile, write_chrome_trace

# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #


def test_self_time_of_nested_spans():
    # thread 1: A[0,10] > B[1,4] > C[2,3], A > D[5,9]; thread 2: X[0,5]
    tids = [1, 1, 1, 1, 2]
    starts = [0.0, 1.0, 2.0, 5.0, 0.0]
    ends = [10.0, 4.0, 3.0, 9.0, 5.0]
    assert self_times(tids, starts, ends) == pytest.approx([3.0, 2.0, 1.0, 4.0, 5.0])


def test_self_time_clips_a_child_that_overhangs_its_parent():
    # Q starts inside P and ends after it: only [3, 4] is P's child time.
    assert self_times([1, 1], [0.0, 3.0], [4.0, 6.0]) == pytest.approx([3.0, 3.0])


def test_self_time_counts_back_to_back_children_once():
    # forward [1,2] then backward [2,3] starting at the instant forward ends
    own = self_times([1, 1, 1], [0.0, 1.0, 2.0], [4.0, 2.0, 3.0])
    assert own == pytest.approx([2.0, 1.0, 1.0])


def test_tracer_aggregates_by_name_and_writes_chrome_trace(tmp_path):
    tr = Tracer()
    tr.add("outer", 0.0, 1.0, tid=1)
    tr.add("inner", 0.25, 0.75, tid=1)
    tr.add("inner", 2.0, 2.5, tid=1)
    table = tr.self_time_by_name()
    assert table["outer"] == pytest.approx((1, 1.0, 0.5))
    assert table["inner"] == pytest.approx((2, 1.0, 1.0))
    path = tmp_path / "t.json"
    assert write_chrome_trace(path, tr, [("request", 7, 0.5, 2.5)]) == 5
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X", "b", "e"}
    outer = next(e for e in events if e["name"] == "outer")
    assert outer["ts"] == 0.0 and outer["dur"] == 1e6


# ---------------------------------------------------------------------- #
# percentile support
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("n, expect", [
    (10_000, 99.9),  # 10 samples beyond p99.9
    (9_999, 99.0),
    (1_000, 99.0),  # exactly 10 beyond p99
    (999, 90.0),
    (100, 90.0),
    (20, 50.0),
    (19, None),
])
def test_highest_percentile_with_ten_samples_beyond(n, expect):
    assert supported_percentile(n) == expect


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every size the workloads read, for seconds-long runs.

    Also gives each test its own grad-mode flag: ``repro.tensor.no_grad``
    saves and restores one process-wide flag, so two serving workers
    leaving it in overlapping order can leave gradients off for whatever
    runs next in the process.  The benchmark runs each workload in a fresh
    process; the tests share one.
    """
    monkeypatch.setattr(tensor_module, "_GRAD_ENABLED", [True])
    monkeypatch.setattr(inputs, "MNIST_TRAIN", 256)
    monkeypatch.setattr(inputs, "MNIST_VAL", 64)
    monkeypatch.setattr(inputs, "CIFAR_TRAIN", 32)
    monkeypatch.setattr(inputs, "CIFAR_VAL", 16)
    monkeypatch.setattr(inputs, "N_CHECKPOINTS", 8)
    monkeypatch.setattr(inputs, "CKPT_STEPS", 2)
    monkeypatch.setattr(train_bench, "REPLICAS", 2)
    cfgs = train_bench.CONFIGS
    monkeypatch.setitem(cfgs, "train-mlp", dataclasses.replace(cfgs["train-mlp"], epochs=2))
    monkeypatch.setitem(cfgs, "train-conv", dataclasses.replace(cfgs["train-conv"], epochs=2))
    monkeypatch.setitem(cfgs, "train-mlp-2w", dataclasses.replace(
        cfgs["train-mlp-2w"], epochs=2, batch=128, microbatch=64))
    monkeypatch.setattr(serve_bench, "CONFIG", dataclasses.replace(
        serve_bench.CONFIG, online_rate=500.0, bulk_requests=64, min_bursts=1, setups=1,
        cold_dense=1))


def test_same_seed_gives_identical_inputs(tiny, tmp_path):
    a, b = inputs.Cache(tmp_path / "a"), inputs.Cache(tmp_path / "b")
    (ta, va), (tb, vb) = inputs.mnist(a, 5), inputs.mnist(b, 5)
    assert np.array_equal(ta.images, tb.images) and np.array_equal(ta.labels, tb.labels)
    assert np.array_equal(va.images, vb.images)
    other, _ = inputs.mnist(a, 6)
    assert not np.array_equal(ta.images, other.images)

    sa = inputs.serving_set(a, 5, serve_bench.FACTORY)
    sb = inputs.serving_set(b, 5, serve_bench.FACTORY)
    assert np.array_equal(sa.reference, sb.reference)
    for pa, pb in zip(sa.paths, sb.paths):
        xa, xb = read_sparse_payload(str(pa)), read_sparse_payload(str(pb))
        assert xa.seed == xb.seed and np.array_equal(xa.indices, xb.indices)
        assert np.array_equal(xa.values, xb.values)


def test_same_seed_gives_identical_schedule():
    for make in (lambda s: inputs.online_schedule(s, 1000.0, 500, 64, 32),
                 lambda s: inputs.bulk_schedule(s, 500, 64, 32)):
        x, y, z = make(3), make(3), make(4)
        for f in ("due", "rank", "image"):
            assert np.array_equal(getattr(x, f), getattr(y, f))
        assert not np.array_equal(x.rank, z.rank)
    sched = inputs.online_schedule(3, 1000.0, 5000, 64, 32)
    assert np.all(np.diff(sched.due) >= 0)
    assert 4.0 < sched.due[-1] < 6.0  # ~1000 req/s
    # Zipf: the hottest checkpoint draws the largest share.
    counts = np.bincount(sched.rank, minlength=32)
    assert counts.argmax() == 0 and counts[0] > counts[1] > counts[3]


# ---------------------------------------------------------------------- #
# response checker
# ---------------------------------------------------------------------- #


def test_response_checker_flags_a_corrupted_logit_row():
    rng = np.random.default_rng(0)
    ref = rng.normal(0, 5, size=(6, 10))
    rows = ref.astype(np.float32) + np.float32(8.9e-8)  # packed-path scale error
    cfg = serve_bench.CONFIG
    assert serve_bench.check_rows(rows, ref, cfg.rtol, cfg.atol).all()
    rows[4, 7] += 0.01
    ok = serve_bench.check_rows(rows, ref, cfg.rtol, cfg.atol)
    assert ok.tolist() == [True, True, True, True, False, True]


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


def test_two_ranks_train_the_same_plane_as_one(tiny, tmp_path):
    cfg = train_bench.CONFIGS["train-mlp-2w"]
    data = train_bench.load_data(cfg, inputs.Cache(tmp_path), 2)
    one = train_bench.train_once(cfg, data, 2, workers=1, keep_plane=True)
    two = train_bench.train_once(cfg, data, 2, keep_plane=True)
    assert two.plane.tobytes() == one.plane.tobytes()
    assert two.final_loss == one.final_loss


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_every_workload(tiny, tmp_path, monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path / "state")
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = run.load_spec()
    section = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    # No process of the run outlives it (train-mlp-2w starts ranks and the
    # shared-memory resource tracker).
    assert hostenv.child_pids() == []
    # A second run of the same seed compares against the recorded loss.
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True
