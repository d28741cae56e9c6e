"""Tests for the data-parallel training subsystem (``repro.parallel``).

The determinism contract is the headline: with the same microbatch size
``m``, training is bit-identical across repeats AND across worker counts
(1, 2, 4), because gradient summation always follows the same canonical
mid-split reduction tree regardless of how its leaves are distributed
over ranks.  All trainer-level identity tests run with ``sanitize=True``
so the plane/pool/determinism tripwires are armed throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyze.sanitize import check_plane_integrity
from repro.core import DropBack
from repro.data import DataLoader, Dataset
from repro.models import mlp
from repro.optim import SGD
from repro.parallel import (
    ParallelTrainer,
    PrefetchLoader,
    SharedArena,
    adopt_plane,
    parallel_supported,
    tree_sum,
    tree_sum_range,
    tree_sum_scalars,
)
from repro.train import FreezeCallback, ProfilerCallback

pytestmark = pytest.mark.skipif(
    not parallel_supported(), reason="requires the POSIX fork start method"
)


def _toy_data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4)).astype(np.float32)
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    return Dataset(x, y, name="blobs")


def _leaves(rng, count, size=17):
    return [rng.standard_normal(size).astype(np.float32) for _ in range(count)]


class TestTreeSum:
    def test_matches_numpy_sum_values(self):
        leaves = _leaves(np.random.default_rng(0), 9)
        out = tree_sum(leaves)
        np.testing.assert_allclose(out, np.sum(leaves, axis=0), rtol=1e-5)

    def test_does_not_mutate_inputs(self):
        leaves = _leaves(np.random.default_rng(1), 5)
        copies = [a.copy() for a in leaves]
        tree_sum(leaves)
        for a, c in zip(leaves, copies):
            assert np.array_equal(a, c)

    def test_single_leaf_is_a_copy(self):
        a = np.ones(4, dtype=np.float32)
        out = tree_sum([a])
        assert out is not a
        assert np.array_equal(out, a)

    def test_out_parameter(self):
        leaves = _leaves(np.random.default_rng(2), 4)
        out = np.empty(17, dtype=np.float32)
        ret = tree_sum(leaves, out=out)
        assert ret is out
        assert np.array_equal(out, tree_sum(leaves))

    @pytest.mark.parametrize("m, n", [(8, 2), (8, 4), (6, 2), (16, 4)])
    def test_rank_partials_compose_bitwise(self, m, n):
        # Alignment theorem: when N divides M, the top levels of the
        # mid-split tree cut exactly on rank boundaries, so rank-local
        # trees combined in rank order reproduce the single-sequence
        # tree bit-for-bit — the property the trainer's reduce relies on.
        leaves = _leaves(np.random.default_rng(3), m)
        whole = tree_sum(leaves)
        q = m // n
        partials = [tree_sum(leaves[r * q : (r + 1) * q]) for r in range(n)]
        assert np.array_equal(tree_sum(partials), whole)

    def test_tree_sum_range_streams_in_index_order(self):
        leaves = _leaves(np.random.default_rng(4), 7)
        seen = []

        def leaf(i):
            seen.append(i)
            return leaves[i].copy()  # leaf-owned buffer, may be reduced in place

        out = np.empty(17, dtype=np.float32)
        tree_sum_range(7, leaf, out=out)
        assert seen == list(range(7))
        assert np.array_equal(out, tree_sum(leaves))

    def test_tree_sum_scalars_matches_array_tree(self):
        vals = [0.1, 0.7, -0.3, 2.5, 0.9, -1.1]
        arrs = [np.array([v], dtype=np.float64) for v in vals]
        assert tree_sum_scalars(vals) == tree_sum(arrs)[0]


class TestSharedArena:
    def test_regions_shapes_and_dtypes(self):
        arena = SharedArena(plane_size=33, workers=4)
        try:
            assert arena.plane.shape == (33,) and arena.plane.dtype == np.float32
            assert arena.grads.shape == (4, 33) and arena.grads.dtype == np.float32
            assert arena.losses.shape == (4,) and arena.losses.dtype == np.float64
            assert arena.timers.shape == (4, 2) and arena.timers.dtype == np.float64
        finally:
            arena.destroy()

    def test_regions_do_not_alias(self):
        arena = SharedArena(plane_size=8, workers=2)
        try:
            arena.plane[:] = 1.0
            arena.grads[:] = 2.0
            arena.losses[:] = 3.0
            assert np.all(arena.plane == 1.0)
            assert np.all(arena.grads == 2.0)
            assert np.all(arena.losses == 3.0)
        finally:
            arena.destroy()

    def test_control_flags(self):
        arena = SharedArena(plane_size=4, workers=2)
        try:
            assert not arena.flag(SharedArena.CTRL_STOP)
            arena.set_flag(SharedArena.CTRL_STOP)
            assert arena.flag(SharedArena.CTRL_STOP)
            assert not arena.flag(SharedArena.CTRL_ABORT)
        finally:
            arena.destroy()


class TestAdoptPlane:
    def test_round_trip_preserves_values_and_views(self):
        model = mlp(4, (8,), 2).finalize(0)
        before = model.weight_plane.copy()
        shared = np.zeros(model.num_parameters(), dtype=np.float32)

        adopt_plane(model, shared)
        assert model.weight_plane is shared
        np.testing.assert_array_equal(shared, before)  # values carried over
        for p in model.parameters():
            assert p.data.base is shared or p.data is shared
        assert check_plane_integrity(model) == []

        # Re-home back to a fresh heap buffer (what teardown does).
        heap = np.empty_like(shared)
        adopt_plane(model, heap)
        np.testing.assert_array_equal(heap, before)
        assert check_plane_integrity(model) == []

    def test_rejects_wrong_size_or_dtype(self):
        model = mlp(4, (8,), 2).finalize(0)
        with pytest.raises(ValueError):
            adopt_plane(model, np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError):
            adopt_plane(model, np.zeros(model.num_parameters(), dtype=np.float64))


class TestPrefetchLoader:
    def test_yields_identical_batches(self):
        ds = _toy_data(48)
        sync = list(DataLoader(ds, 16, seed=5))
        pre = list(PrefetchLoader(DataLoader(ds, 16, seed=5), depth=2))
        assert len(sync) == len(pre)
        for (xs, ys), (xp, yp) in zip(sync, pre):
            assert np.array_equal(xs, xp) and np.array_equal(ys, yp)

    def test_len_passthrough(self):
        loader = DataLoader(_toy_data(48), 16)
        assert len(PrefetchLoader(loader)) == len(loader)

    def test_propagates_producer_exception(self):
        def boom():
            yield 1
            raise RuntimeError("producer failed")

        it = iter(PrefetchLoader(boom()))
        assert next(it) == 1
        with pytest.raises(RuntimeError, match="producer failed"):
            for _ in it:
                pass

    def test_early_abandon_does_not_hang(self):
        # Break mid-iteration with a full queue; generator close must
        # stop the producer thread promptly.
        loader = DataLoader(_toy_data(64), 4, seed=2)
        for i, _ in enumerate(PrefetchLoader(loader, depth=2)):
            if i == 1:
                break


def _fit(
    workers, opt="dropback", seed=3, freeze=None, prefetch=2, epochs=2,
    sanitize=True,
):
    """Train a tiny MLP; return (plane copy, history, trainer)."""
    ds = _toy_data(64, seed=0)
    model = mlp(4, (16,), 2).finalize(seed)
    if opt == "dropback":
        optimizer = DropBack(model, k=max(1, model.num_parameters() // 5), lr=0.2)
    else:
        optimizer = SGD(model, lr=0.2)
    callbacks = [FreezeCallback(freeze)] if freeze else None
    trainer = ParallelTrainer(
        model,
        optimizer,
        workers=workers,
        microbatch=4,
        prefetch=prefetch,
        callbacks=callbacks,
        sanitize=sanitize,
    )
    history = trainer.fit(
        DataLoader(ds, 16, seed=1, drop_last=True), ds, epochs=epochs
    )
    return model.weight_plane.copy(), history, trainer


class TestParallelTrainerDeterminism:
    def test_two_worker_repeat_is_bit_identical(self):
        plane_a, hist_a, _ = _fit(2)
        plane_b, hist_b, _ = _fit(2)
        assert plane_a.tobytes() == plane_b.tobytes()
        assert hist_a.train_loss == hist_b.train_loss

    def test_identical_across_worker_counts(self):
        # Same microbatch m=4 in every run: 1, 2, and 4 ranks must all
        # produce byte-identical planes and loss histories.
        plane_1, hist_1, _ = _fit(1)
        plane_2, hist_2, _ = _fit(2)
        plane_4, hist_4, _ = _fit(4)
        assert plane_1.tobytes() == plane_2.tobytes() == plane_4.tobytes()
        assert hist_1.train_loss == hist_2.train_loss == hist_4.train_loss
        assert hist_1.val_accuracy == hist_2.val_accuracy == hist_4.val_accuracy

    def test_sgd_path_identical_across_worker_counts(self):
        plane_1, hist_1, _ = _fit(1, opt="sgd")
        plane_2, hist_2, _ = _fit(2, opt="sgd")
        assert plane_1.tobytes() == plane_2.tobytes()
        assert hist_1.train_loss == hist_2.train_loss

    def test_frozen_dropback_identical_across_worker_counts(self):
        plane_1, _, _ = _fit(1, freeze=1, epochs=3)
        plane_2, _, _ = _fit(2, freeze=1, epochs=3)
        assert plane_1.tobytes() == plane_2.tobytes()

    def test_sanitized_run_is_byte_identical_to_unsanitized(self):
        # The watchdog and arena fence must be pure observers: arming them
        # (REPRO_SANITIZE semantics) cannot perturb a single bit of the
        # trained plane or the loss history.
        plane_s, hist_s, _ = _fit(2, sanitize=True)
        plane_u, hist_u, _ = _fit(2, sanitize=False)
        assert plane_s.tobytes() == plane_u.tobytes()
        assert hist_s.train_loss == hist_u.train_loss
        assert hist_s.val_accuracy == hist_u.val_accuracy

    def test_prefetch_depth_does_not_change_results(self):
        plane_on, _, _ = _fit(2, prefetch=2)
        plane_off, _, _ = _fit(2, prefetch=0)
        assert plane_on.tobytes() == plane_off.tobytes()


class TestParallelTrainerMechanics:
    def test_plane_restored_to_heap_after_fit(self):
        _, _, trainer = _fit(2)
        assert check_plane_integrity(trainer.model) == []
        # Shared segment is gone; the live plane must be a plain heap array.
        assert trainer.model.weight_plane.flags.owndata

    def test_rank_timers_populated(self):
        _, _, trainer = _fit(2)
        assert len(trainer.rank_compute_seconds) == 2
        assert len(trainer.rank_wait_seconds) == 2
        assert all(t >= 0.0 for t in trainer.rank_compute_seconds)

    def test_profiler_callback_records_worker_count(self):
        ds = _toy_data(64, seed=0)
        model = mlp(4, (16,), 2).finalize(7)
        prof = ProfilerCallback(report_name="par")
        trainer = ParallelTrainer(
            model, SGD(model, lr=0.2), workers=2, microbatch=4, callbacks=[prof]
        )
        trainer.fit(DataLoader(ds, 16, seed=1, drop_last=True), ds, epochs=1)
        assert prof.report is not None
        assert prof.report.meta["workers"] == 2
        # Rank compute/wait gauges flow through the profile registry.
        assert any(n.startswith("parallel.rank") for n in prof.report.ops)

    def test_training_learns(self):
        _, hist, _ = _fit(2, epochs=6)
        assert hist.best_val_accuracy > 0.8


class TestParallelTrainerValidation:
    def test_rejects_non_power_of_two_workers(self):
        model = mlp(4, (8,), 2).finalize(0)
        with pytest.raises(ValueError, match="power of two"):
            ParallelTrainer(model, SGD(model, lr=0.1), workers=3)

    def test_rejects_indivisible_microbatch(self):
        ds = _toy_data(64)
        model = mlp(4, (8,), 2).finalize(0)
        trainer = ParallelTrainer(model, SGD(model, lr=0.1), workers=2, microbatch=5)
        with pytest.raises(ValueError):
            trainer.fit(DataLoader(ds, 16, seed=1, drop_last=True), ds, epochs=1)

    def test_rejects_bad_epochs(self):
        ds = _toy_data(64)
        model = mlp(4, (8,), 2).finalize(0)
        trainer = ParallelTrainer(model, SGD(model, lr=0.1), workers=2)
        with pytest.raises(ValueError):
            trainer.fit(DataLoader(ds, 16, seed=1, drop_last=True), ds, epochs=0)
