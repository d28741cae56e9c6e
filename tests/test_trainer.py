"""Tests for the training loop, metrics, and callbacks."""

import numpy as np
import pytest

from repro.data import DataLoader, Dataset
from repro.models import mlp, mnist_100_100
from repro.optim import SGD, ConstantLR, StepDecay
from repro.train import (
    LambdaCallback,
    Trainer,
    WeightSnapshotCallback,
    accuracy,
    error_rate,
    evaluate,
)


def _toy_data(n=200, seed=0):
    """Linearly separable 2-class blobs — trivially learnable."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y, name="blobs")


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_error_rate_complements(self):
        logits = np.array([[1.0, 0.0]])
        assert error_rate(logits, np.array([0])) == 0.0
        assert error_rate(logits, np.array([1])) == 1.0

    def test_evaluate_runs_in_eval_mode(self):
        m = mlp(4, (8,), 2).finalize(1)
        ds = _toy_data()
        m.train()
        evaluate(m, ds)
        assert m.training  # mode restored

    def test_evaluate_accepts_loader(self):
        m = mlp(4, (8,), 2).finalize(1)
        ds = _toy_data()
        acc_ds = evaluate(m, ds)
        acc_dl = evaluate(m, DataLoader(ds, 32, shuffle=False))
        assert acc_ds == pytest.approx(acc_dl)


class TestTrainerBasics:
    def _trainer(self, patience=None, schedule=None, callbacks=None, seed=1):
        m = mlp(4, (16,), 2).finalize(seed)
        opt = SGD(m, lr=0.3)
        return m, Trainer(
            m, opt, schedule=schedule or ConstantLR(0.3), callbacks=callbacks, patience=patience
        )

    def test_learns_separable_data(self):
        ds = _toy_data()
        m, tr = self._trainer()
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=15)
        assert h.best_val_accuracy > 0.9

    def test_history_lengths(self):
        ds = _toy_data()
        _, tr = self._trainer()
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=4)
        assert len(h.train_loss) == len(h.val_accuracy) == len(h.lr) == 4
        assert len(h.epoch_seconds) == 4
        assert all(s > 0 for s in h.epoch_seconds)

    def test_best_epoch_tracked(self):
        ds = _toy_data()
        _, tr = self._trainer()
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=6)
        assert 0 <= h.best_epoch < 6
        assert h.best_val_accuracy == max(h.val_accuracy)
        assert h.best_val_error == pytest.approx(1 - max(h.val_accuracy))

    def test_invalid_epochs(self):
        ds = _toy_data()
        _, tr = self._trainer()
        with pytest.raises(ValueError):
            tr.fit(DataLoader(ds, 32), ds, epochs=0)

    def test_early_stopping(self):
        ds = _toy_data(n=60)
        _, tr = self._trainer(patience=2)
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=100)
        assert h.stopped_early
        assert h.epochs_run < 100

    def test_schedule_applied(self):
        ds = _toy_data(n=60)
        _, tr = self._trainer(schedule=StepDecay(0.4, 0.5, period=2))
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=4)
        assert h.lr == [0.4, 0.4, 0.2, 0.2]

    def test_global_step_advances(self):
        ds = _toy_data(n=64)
        _, tr = self._trainer()
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=3)
        assert tr.global_step == 3 * 2  # 2 batches per epoch


class TestCallbacks:
    def test_lambda_callback_hooks(self):
        ds = _toy_data(n=64)
        events = []
        cb = LambdaCallback(
            on_train_begin=lambda t: events.append("begin"),
            on_step_end=lambda t, s, l: events.append(f"step{s}"),
            on_epoch_end=lambda t, e, logs: events.append(f"epoch{e}"),
        )
        m = mlp(4, (8,), 2).finalize(1)
        tr = Trainer(m, SGD(m, lr=0.1), callbacks=[cb])
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=2)
        assert events[0] == "begin"
        assert "epoch0" in events and "epoch1" in events
        assert "step0" in events

    def test_weight_snapshots_linear(self):
        ds = _toy_data(n=96)
        cb = WeightSnapshotCallback(every=1)
        m = mlp(4, (8,), 2).finalize(1)
        tr = Trainer(m, SGD(m, lr=0.1), callbacks=[cb])
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=2)
        steps, snaps = cb.stacked()
        assert snaps.shape == (7, m.num_parameters())  # init + 6 steps
        assert steps[0] == 0

    def test_weight_snapshots_log_spaced(self):
        ds = _toy_data(n=640)
        cb = WeightSnapshotCallback(log_spaced=True)
        m = mlp(4, (8,), 2).finalize(1)
        tr = Trainer(m, SGD(m, lr=0.1), callbacks=[cb])
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=2)
        steps, _ = cb.stacked()
        gaps = np.diff(steps)
        assert (gaps[-1] > gaps[1]) or len(steps) < 5  # spacing grows

    def test_max_snapshots_respected(self):
        ds = _toy_data(n=640)
        cb = WeightSnapshotCallback(every=1, max_snapshots=3)
        m = mlp(4, (8,), 2).finalize(1)
        tr = Trainer(m, SGD(m, lr=0.1), callbacks=[cb])
        tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=1)
        assert len(cb.snapshots) == 3

    def test_weight_snapshots_copy_the_plane(self):
        ds = _toy_data(n=64)
        cb = WeightSnapshotCallback(every=1)
        m = mlp(4, (8,), 2).finalize(1)
        Trainer(m, SGD(m, lr=0.1), callbacks=[cb]).fit(DataLoader(ds, 32, seed=0), ds, epochs=1)
        flat = np.concatenate([p.data.reshape(-1) for p in m.parameters()])
        last = cb.snapshots[-1]
        assert last.dtype == flat.dtype and last.tobytes() == flat.tobytes()
        m.weight_plane[:] = 0.0  # a snapshot is a copy, not a view
        assert last.tobytes() == flat.tobytes()

    def test_snapshot_validation(self):
        with pytest.raises(ValueError):
            WeightSnapshotCallback(every=0)


class TestEndToEndMnist:
    def test_baseline_mlp_learns_synth_mnist(self, tiny_mnist):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(7)
        tr = Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4))
        h = tr.fit(DataLoader(train, 64, seed=1), test, epochs=6)
        assert h.best_val_accuracy > 0.85
