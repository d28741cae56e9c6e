"""Runtime sanitizer tests: seeded faults must be caught loudly.

Each sanitizer exists because a real failure mode is silent without it:
a parameter that no longer aliases the flat weight plane, a workspace buffer
written after release, a NaN reaching the tracked-set selection.  These
tests *inject* those faults and assert the sanitizers trip.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro.analyze.sanitize import (
    ArenaFenceError,
    ArenaWriteFence,
    GradientTripwireError,
    GradTripwireCallback,
    LockOrderError,
    LockOrderWatchdog,
    PlaneIntegrityError,
    TrackedLock,
    check_finite_gradients,
    check_plane_integrity,
    sanitize_enabled,
    sanitizer_callbacks,
    tracked_lock,
    verify_model,
)
from repro.data import DataLoader, Dataset
from repro.models import mlp
from repro.nn import BatchNorm1d, Linear, ReLU, Sequential
from repro.core.dropback import DropBack
from repro.optim import SGD
from repro.prune.slimming import bn_gammas, prune_channels
from repro.tensor import conv
from repro.train import Trainer


@pytest.fixture(autouse=True)
def _clean_pool():
    """Every test starts and ends without poisoned buffers."""
    conv.clear_workspace_cache()
    yield
    conv.clear_workspace_cache()


def _toy_data(n=128, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y, name="blobs")


class TestSanitizeEnabled:
    @pytest.mark.parametrize("value", ["1", "true", "ON", " yes "])
    def test_truthy_values(self, value):
        assert sanitize_enabled({"REPRO_SANITIZE": value})

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "nope"])
    def test_falsy_values(self, value):
        assert not sanitize_enabled({"REPRO_SANITIZE": value})


class TestPlaneIntegrity:
    def test_finalized_model_passes(self):
        m = mlp(6, (8,), 3).finalize(1)
        assert check_plane_integrity(m) == []

    def test_unfinalized_model_fails(self):
        m = mlp(6, (8,), 3)
        with pytest.raises(PlaneIntegrityError, match="not finalized"):
            check_plane_integrity(m)

    def test_round_trip_restores_weights(self):
        m = mlp(6, (8,), 3).finalize(1)
        before = m.weight_plane.copy()
        check_plane_integrity(m)
        np.testing.assert_array_equal(m.weight_plane, before)

    def test_detached_copy_fault_is_caught(self):
        # Seeded fault: a parameter's storage is silently replaced by a
        # copy while the plane_backed flag still claims aliasing — exactly
        # what a stray `p.data = p.data.copy()` through __dict__ poking
        # would produce.  The base-address check must see through it.
        m = mlp(6, (8,), 3).finalize(1)
        p = m.parameters()[0]
        p._data = p._data.copy()
        with pytest.raises(PlaneIntegrityError, match="alias"):
            check_plane_integrity(m)
        problems = check_plane_integrity(m, strict=False)
        assert len(problems) == 1

    def test_plane_backed_flag_fault_is_caught(self):
        # Seeded fault: the setter refuses to detach, so reach past it.
        m = mlp(6, (8,), 3).finalize(1)
        p = m.parameters()[0]
        p._plane_backed = False
        p._data = np.zeros((99,), dtype=np.float32)
        with pytest.raises(PlaneIntegrityError, match="detached"):
            check_plane_integrity(m)

    def test_float64_fault_is_caught(self):
        m = mlp(6, (8,), 3).finalize(1)
        p = m.parameters()[0]
        p._data = p._data.astype(np.float64)  # keeps plane_backed claim
        with pytest.raises(PlaneIntegrityError, match="float64"):
            check_plane_integrity(m)


class TestDetachGuard:
    """The ``Parameter.data`` setter is the detach guard: it is always on,
    and the integrity check agrees with what it lets through."""

    def test_guard_turns_silent_detach_into_error(self):
        m = mlp(6, (8,), 3).finalize(1)
        p = m.parameters()[0]
        with pytest.raises(ValueError, match="does not broadcast"):
            p.data = np.zeros((p.size + 1,), dtype=np.float32)
        check_plane_integrity(m)

    def test_broadcastable_assignment_still_fine_under_guard(self):
        m = mlp(6, (8,), 3).finalize(1)
        p = m.parameters()[0]
        p.data = np.ones(p.shape, dtype=np.float32)
        assert p.plane_backed
        check_plane_integrity(m)


class TestWorkspacePoisoning:
    SHAPE = (4, 4)

    def _free_buffer(self) -> tuple:
        """Put one released float32 buffer in the pool, return its key."""
        buf = conv._acquire_workspace(self.SHAPE, np.float32)
        key = (self.SHAPE, np.dtype(np.float32).str)
        assert any(b is buf for b in conv._WORKSPACE[key])
        del buf  # release: pool holds the only reference now
        return key

    def test_poison_fills_free_buffers_with_nan(self):
        key = self._free_buffer()
        assert conv.poison_free_workspaces() >= 1
        assert np.isnan(conv._WORKSPACE[key][0]).all()

    def test_clean_reacquire_after_poison_passes(self):
        self._free_buffer()
        conv.poison_free_workspaces()
        buf = conv._acquire_workspace(self.SHAPE, np.float32)
        assert not np.isnan(buf).any()  # zeroed on hand-out

    def test_use_after_release_write_is_caught(self):
        key = self._free_buffer()
        conv.poison_free_workspaces()
        # Seeded fault: a stale reference writes into the released buffer.
        conv._WORKSPACE[key][0][0, 0] = 1.0
        with pytest.raises(conv.WorkspaceUseAfterReleaseError, match="after release"):
            conv._acquire_workspace(self.SHAPE, np.float32)

    def test_held_buffers_are_not_poisoned(self):
        held = conv._acquire_workspace(self.SHAPE, np.float32)
        conv.poison_free_workspaces()
        assert not np.isnan(held).any()

    def test_clear_cache_discards_poison_state(self):
        self._free_buffer()
        conv.poison_free_workspaces()
        conv.clear_workspace_cache()
        buf = conv._acquire_workspace(self.SHAPE, np.float32)
        assert not np.isnan(buf).any()

    def test_use_after_release_caught_through_pooled_conv_path(self):
        """The fault travels the public kernel path: a conv forward pools
        its workspaces, a stale holder scribbles on one after release, and
        the *next* conv forward trips on acquire."""
        from repro.tensor.kernels import fast

        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        out, ctx = fast.conv2d_forward(x, w, None, 1, 1, 6, 6)
        del out, ctx
        gc.collect()
        assert conv.poison_free_workspaces() >= 1
        # Seeded fault: overwrite one element of every free poisoned buffer.
        for pool in conv._WORKSPACE.values():
            for buf in pool:
                if np.isnan(buf).all():
                    buf.reshape(-1)[0] = 1.0
        with pytest.raises(conv.WorkspaceUseAfterReleaseError, match="after release"):
            fast.conv2d_forward(x, w, None, 1, 1, 6, 6)


class TestAdoptPlaneIntegrity:
    """Re-homing the weight plane (the parallel trainer's pre-fork move)
    must keep every sanitizer invariant on the *new* buffer."""

    def test_integrity_holds_on_adopted_plane(self):
        from repro.parallel.shm import adopt_plane

        m = mlp(6, (8,), 3).finalize(1)
        before = m.weight_plane.copy()
        fresh = np.empty(m.num_parameters(), dtype=np.float32)
        adopt_plane(m, fresh)
        assert m.weight_plane is fresh
        np.testing.assert_array_equal(fresh, before)  # values carried over
        check_plane_integrity(m)

    def test_round_trip_back_to_private_buffer(self):
        from repro.parallel.shm import adopt_plane

        m = mlp(6, (8,), 3).finalize(1)
        original = m.weight_plane
        shared = np.empty(m.num_parameters(), dtype=np.float32)
        adopt_plane(m, shared)
        adopt_plane(m, original)
        assert m.weight_plane is original
        check_plane_integrity(m)

    def test_wrong_geometry_rejected_without_detaching(self):
        from repro.parallel.shm import adopt_plane

        m = mlp(6, (8,), 3).finalize(1)
        with pytest.raises(ValueError, match="float32"):
            adopt_plane(m, np.empty(m.num_parameters() + 1, dtype=np.float32))
        check_plane_integrity(m)  # still on the old plane, still coherent


class TestLockOrderWatchdog:
    def _pair(self):
        wd = LockOrderWatchdog()
        a = TrackedLock(threading.Lock(), "A", watchdog=wd)
        b = TrackedLock(threading.Lock(), "B", watchdog=wd)
        return wd, a, b

    def test_consistent_order_passes(self):
        _, a, b = self._pair()
        for _ in range(3):
            with a:
                with b:
                    pass

    def test_inverted_order_raises(self):
        _, a, b = self._pair()
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError, match="lock-order cycle"):
                a.acquire()

    def test_failed_acquire_releases_inner_lock(self):
        _, a, b = self._pair()
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()
        # the inversion attempt must not leave A held
        assert a.acquire(blocking=False)
        a.release()

    def test_reentrant_acquire_records_no_self_edge(self):
        wd = LockOrderWatchdog()
        r = TrackedLock(threading.RLock(), "R", watchdog=wd)
        with r:
            with r:
                pass
        assert wd.edges() == {}

    def test_three_lock_cycle_detected(self):
        wd = LockOrderWatchdog()
        a, b, c = (
            TrackedLock(threading.Lock(), n, watchdog=wd) for n in "ABC"
        )
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_reset_forgets_history(self):
        wd, a, b = self._pair()
        with a:
            with b:
                pass
        wd.reset()
        with b:
            with a:  # would raise without the reset
                pass

    def test_condition_wait_notify_through_tracked_rlock(self):
        wd = LockOrderWatchdog()
        cond = threading.Condition(
            TrackedLock(threading.RLock(), "C", watchdog=wd)
        )
        hits = []

        def waiter():
            with cond:
                while not hits:
                    cond.wait(timeout=5.0)
                hits.append("woke")

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        with cond:
            hits.append("set")
            cond.notify()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert hits == ["set", "woke"]


class TestTrackedLockFactory:
    def test_disabled_returns_same_object(self):
        raw = threading.Lock()
        assert tracked_lock(raw, "X", enabled=False) is raw

    def test_enabled_wraps(self):
        raw = threading.Lock()
        wrapped = tracked_lock(raw, "X", enabled=True)
        assert isinstance(wrapped, TrackedLock)
        assert wrapped._lock is raw

    def test_no_double_wrap(self):
        wrapped = tracked_lock(threading.Lock(), "X", enabled=True)
        assert tracked_lock(wrapped, "X", enabled=True) is wrapped

    def test_env_default_is_identity_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        raw = threading.Lock()
        assert tracked_lock(raw, "X") is raw


class _FakeArena:
    """plane/grads/losses shaped like SharedArena, on private memory."""

    def __init__(self, plane_size=8, workers=2):
        self.plane = np.zeros(plane_size, dtype=np.float32)
        self.grads = np.zeros((workers, plane_size), dtype=np.float32)
        self.losses = np.zeros(workers, dtype=np.float64)


class TestArenaWriteFence:
    def test_correct_phase_sequence_passes(self):
        arena = _FakeArena()
        fence = ArenaWriteFence(arena, rank=1)
        for step in range(3):
            arena.grads[1] = step  # compute phase: own partials
            arena.losses[1] = step
            fence.seal_compute()
            arena.plane += 1.0  # update phase: plane
            fence.open_compute()

    def test_plane_write_during_compute_raises(self):
        arena = _FakeArena()
        fence = ArenaWriteFence(arena, rank=1)
        fence.open_compute()  # stamp the plane entering compute
        arena.plane[0] = 7.0  # seeded bug: out-of-phase plane write
        with pytest.raises(ArenaFenceError, match="plane"):
            fence.seal_compute()

    def test_partial_write_during_update_raises(self):
        arena = _FakeArena()
        fence = ArenaWriteFence(arena, rank=1)
        arena.grads[1] = 1.0
        fence.seal_compute()
        arena.grads[1, 0] = 9.0  # seeded bug: partial mutated mid-update
        with pytest.raises(ArenaFenceError, match=r"grads\[1\]"):
            fence.open_compute()

    def test_other_ranks_partials_are_not_this_fences_business(self):
        arena = _FakeArena()
        fence = ArenaWriteFence(arena, rank=0)
        arena.grads[0] = 1.0
        fence.seal_compute()
        arena.grads[1] = 5.0  # rank 1's row; rank 0's fence must not care
        fence.open_compute()

    def test_first_seal_has_no_plane_stamp(self):
        arena = _FakeArena()
        fence = ArenaWriteFence(arena, rank=0)
        arena.plane[0] = 3.0  # pre-step init writes are fine
        fence.seal_compute()


class TestGradientTripwire:
    def test_finite_grads_pass(self):
        m = mlp(6, (8,), 3).finalize(1)
        for p in m.parameters():
            p.grad = np.zeros(p.shape, dtype=np.float32)
        check_finite_gradients(m.named_parameters())

    def test_none_grads_are_skipped(self):
        m = mlp(6, (8,), 3).finalize(1)
        check_finite_gradients(m.named_parameters())

    def test_nan_grad_raises_with_parameter_name(self):
        m = mlp(6, (8,), 3).finalize(1)
        name, p = next(iter(m.named_parameters()))
        p.grad = np.full(p.shape, np.nan, dtype=np.float32)
        with pytest.raises(GradientTripwireError, match=name):
            check_finite_gradients(m.named_parameters())

    def test_inf_grad_raises(self):
        m = mlp(6, (8,), 3).finalize(1)
        p = m.parameters()[-1]
        p.grad = np.zeros(p.shape, dtype=np.float32)
        p.grad.reshape(-1)[0] = np.inf
        with pytest.raises(GradientTripwireError):
            check_finite_gradients(m.named_parameters())

    def test_callback_trips_mid_training(self):
        m = mlp(4, (8,), 2).finalize(1)
        ds = _toy_data()
        class PoisonGrad(GradTripwireCallback):
            """Corrupt one gradient right before the tripwire scan."""

            def on_backward_end(self, tr, step):
                tr.model.parameters()[0].grad[..., 0] = np.nan
                super().on_backward_end(tr, step)

        tr = Trainer(m, SGD(m, lr=0.1), callbacks=[PoisonGrad()])
        with pytest.raises(GradientTripwireError, match="at step"):
            tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=1)


class TestVerifyModel:
    def test_pass_with_sample(self):
        m = mlp(4, (8,), 2).finalize(1)
        ds = _toy_data(32)
        summary = verify_model(m, sample=(ds.images, ds.labels))
        assert summary["plane_ok"] and summary["grads_ok"]
        assert summary["parameters"] == len(m.parameters())


class TestSanitizedTraining:
    def test_trainer_installs_sanitizer_callbacks(self):
        m = mlp(4, (8,), 2).finalize(1)
        tr = Trainer(m, SGD(m, lr=0.1), sanitize=True)
        names = {type(cb).__name__ for cb in tr.callbacks}
        assert {
            "PlaneCheckCallback",
            "GradTripwireCallback",
            "WorkspacePoisonCallback",
        } <= names

    def test_env_var_enables_sanitize(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        m = mlp(4, (8,), 2).finalize(1)
        assert Trainer(m, SGD(m, lr=0.1)).sanitize

    def test_sanitized_smoke_train_passes(self):
        # The acceptance criterion: a short DropBack run under all three
        # sanitizers completes and still learns.
        m = mlp(4, (16,), 2).finalize(3)
        ds = _toy_data(192, seed=3)
        opt = DropBack(m, lr=0.3, k=m.num_parameters() // 2)
        tr = Trainer(m, opt, sanitize=True)
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=3)
        assert h.epochs_run == 3
        assert h.best_val_accuracy > 0.6
        check_plane_integrity(m)

    def test_sanitizer_callbacks_factory(self):
        assert len(sanitizer_callbacks()) == 3


class TestSlimmingPreservesPlane:
    """Satellite regression: prune_channels used to rebind γ/β ``.data``,
    detaching them from the plane; it must mask in place."""

    def _bn_model(self, seed=0):
        return Sequential(
            Linear(6, 8), BatchNorm1d(8), ReLU(), Linear(8, 3)
        ).finalize(seed)

    def test_all_params_stay_plane_backed_after_slimming(self):
        m = self._bn_model()
        for i, bn in enumerate(bn_gammas(m)):
            bn.gamma.data[...] = np.linspace(0.01, 1.0, bn.num_features) + i
        prune_channels(m, 0.5)
        assert all(p.plane_backed for p in m.parameters())
        check_plane_integrity(m)

    def test_slimming_under_detach_guard_does_not_trip(self):
        m = self._bn_model()
        prune_channels(m, 0.3)  # the setter would raise on a reshaping rebind
        check_plane_integrity(m)

    def test_pruned_channels_are_dead(self):
        m = self._bn_model()
        (bn,) = bn_gammas(m)
        bn.gamma.data[...] = np.linspace(0.01, 1.0, bn.num_features)
        masks = prune_channels(m, 0.5)
        dead = ~masks["bn0"]
        assert dead.any()
        np.testing.assert_array_equal(bn.gamma.data[dead], 0.0)
        np.testing.assert_array_equal(bn.beta.data[dead], 0.0)
