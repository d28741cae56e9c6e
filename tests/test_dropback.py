"""Tests for the DropBack optimizer — the paper's core contribution."""

import numpy as np
import pytest

from repro.core import DropBack, HeapSelector
from repro.data import DataLoader
from repro.models import mlp, mnist_100_100
from repro.nn import Linear, Sequential
from repro.optim import SGD, ConstantLR
from repro.tensor import Tensor, cross_entropy
from repro.train import FreezeCallback, Trainer


def _small_model(seed=1):
    return mlp(6, (8,), 3).finalize(seed)


def _step(model, opt, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(16, 6)).astype(np.float32))
    y = rng.integers(0, 3, size=16)
    model.zero_grad()
    loss = cross_entropy(model(x), y)
    loss.backward()
    opt.step()
    return loss.item()


class TestConstruction:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DropBack(_small_model(), k=0, lr=0.1)

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            DropBack(_small_model(), k=5, lr=0.1, criterion="nope")

    def test_compression_ratio(self):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=20_000, lr=0.4)
        assert opt.compression_ratio == pytest.approx(89_610 / 20_000)

    def test_storage_is_budget(self):
        m = mnist_100_100().finalize(1)
        assert DropBack(m, k=5_000, lr=0.4).storage_floats() == 5_000

    def test_requires_finalized_model(self):
        with pytest.raises(RuntimeError):
            DropBack(mlp(4, (4,), 2), k=5, lr=0.1)


class TestBudgetInvariant:
    def test_at_most_k_weights_differ_from_init(self):
        m = _small_model()
        opt = DropBack(m, k=10, lr=0.2)
        seed = m.seed
        for step in range(5):
            _step(m, opt, seed=step)
            diffs = 0
            for p in m.parameters():
                diffs += int(np.count_nonzero(p.data != p.initial_values(seed)))
            assert diffs <= 10

    def test_exactly_k_tracked_in_mask(self):
        m = _small_model()
        opt = DropBack(m, k=13, lr=0.2)
        _step(m, opt)
        assert opt.tracked_mask.sum() == 13

    def test_k_larger_than_model_tracks_all(self):
        m = _small_model()
        total = m.num_parameters()
        opt = DropBack(m, k=total * 2, lr=0.2)
        _step(m, opt)
        assert opt.tracked_mask.sum() == total

    def test_untracked_regenerate_exactly(self):
        m = _small_model()
        opt = DropBack(m, k=7, lr=0.3)
        for s in range(4):
            _step(m, opt, seed=s)
        assert opt.untracked_values_match_init()


class TestEquivalenceToSGDWhenUnconstrained:
    def test_k_total_matches_sgd(self):
        """With k >= total params DropBack degenerates to plain SGD."""
        m1 = _small_model(seed=3)
        m2 = _small_model(seed=3)
        total = m1.num_parameters()
        sgd = SGD(m1, lr=0.1)
        db = DropBack(m2, k=total, lr=0.1)
        for s in range(5):
            _step(m1, sgd, seed=s)
            _step(m2, db, seed=s)
        for pa, pb in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-5, atol=1e-7)


class TestRegenerationPaths:
    def test_strict_regeneration_matches_cached(self):
        """Regenerating W(0) from xorshift every step gives bit-identical
        training to the cached-array fast path (paper: values are
        recomputable at every access)."""
        m1 = _small_model(seed=5)
        m2 = _small_model(seed=5)
        fast = DropBack(m1, k=9, lr=0.2, strict_regeneration=False)
        strict = DropBack(m2, k=9, lr=0.2, strict_regeneration=True)
        for s in range(6):
            _step(m1, fast, seed=s)
            _step(m2, strict, seed=s)
        for pa, pb in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_zero_untracked_ablation(self):
        m = _small_model()
        opt = DropBack(m, k=5, lr=0.2, zero_untracked=True)
        _step(m, opt)
        mask = opt.tracked_mask
        flat = np.concatenate([p.data.reshape(-1) for p in m.parameters()])
        np.testing.assert_array_equal(flat[~mask], 0.0)


class TestCriteria:
    def test_accumulated_is_default(self):
        assert DropBack(_small_model(), k=5, lr=0.1).criterion == "accumulated"

    @pytest.mark.parametrize("crit", ["accumulated", "magnitude", "current"])
    def test_all_criteria_run(self, crit):
        m = _small_model()
        opt = DropBack(m, k=8, lr=0.2, criterion=crit)
        for s in range(3):
            _step(m, opt, seed=s)
        assert opt.tracked_mask.sum() == 8

    def test_magnitude_selects_by_weight_value(self):
        # With lr ~ 0 the candidate equals the current weight, so the
        # magnitude criterion must select the largest |w0| entries.
        m = _small_model()
        opt = DropBack(m, k=6, lr=1e-12, criterion="magnitude")
        _step(m, opt)
        w0 = np.concatenate([p.initial_values(m.seed).reshape(-1) for p in m.parameters()])
        expect = np.zeros(w0.size, bool)
        expect[np.argsort(np.abs(w0))[-6:]] = True
        np.testing.assert_array_equal(opt.tracked_mask, expect)

    def test_accumulated_differs_from_magnitude_selection(self):
        m1, m2 = _small_model(seed=7), _small_model(seed=7)
        acc = DropBack(m1, k=10, lr=0.3, criterion="accumulated")
        mag = DropBack(m2, k=10, lr=0.3, criterion="magnitude")
        for s in range(5):
            _step(m1, acc, seed=s)
            _step(m2, mag, seed=s)
        assert not np.array_equal(acc.tracked_mask, mag.tracked_mask)


class TestFreezing:
    def test_freeze_before_step_raises(self):
        opt = DropBack(_small_model(), k=5, lr=0.1)
        with pytest.raises(RuntimeError):
            opt.freeze()

    def test_frozen_mask_is_stable(self):
        m = _small_model()
        opt = DropBack(m, k=8, lr=0.3)
        _step(m, opt, seed=0)
        opt.freeze()
        mask = opt.tracked_mask
        for s in range(1, 6):
            _step(m, opt, seed=s)
        np.testing.assert_array_equal(opt.tracked_mask, mask)

    def test_frozen_untracked_never_move(self):
        m = _small_model()
        opt = DropBack(m, k=8, lr=0.3)
        _step(m, opt, seed=0)
        opt.freeze()
        mask = opt.tracked_mask
        for s in range(1, 6):
            _step(m, opt, seed=s)
        assert opt.untracked_values_match_init()

    def test_unfreeze_resumes_selection(self):
        m = _small_model()
        opt = DropBack(m, k=8, lr=0.5)
        _step(m, opt, seed=0)
        opt.freeze()
        opt.unfreeze()
        swaps_before = len(opt.swap_history)
        _step(m, opt, seed=1)
        assert len(opt.swap_history) == swaps_before + 1

    def test_freeze_callback_fires_at_epoch(self, tiny_mnist):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(2)
        opt = DropBack(m, k=5_000, lr=0.4)
        tr = Trainer(m, opt, schedule=ConstantLR(0.4), callbacks=[FreezeCallback(2)])
        tr.fit(DataLoader(train, 64, seed=0), test, epochs=3)
        assert opt.frozen

    def test_freeze_callback_validation(self):
        with pytest.raises(ValueError):
            FreezeCallback(0)


class TestChurnTracking:
    def test_first_step_swaps_equals_k(self):
        m = _small_model()
        opt = DropBack(m, k=9, lr=0.2)
        _step(m, opt)
        assert opt.swap_history[0] == 9

    def test_churn_decreases_over_training(self, tiny_mnist):
        """Paper Fig. 2: the top-k set stabilizes after a few iterations."""
        train, test = tiny_mnist
        m = mnist_100_100().finalize(4)
        opt = DropBack(m, k=2_000, lr=0.4)
        tr = Trainer(m, opt, schedule=ConstantLR(0.4))
        tr.fit(DataLoader(train, 50, seed=0), test, epochs=3)
        early = np.mean(opt.swap_history[1:4])
        late = np.mean(opt.swap_history[-10:])
        assert late < early / 3

    def test_no_swaps_recorded_when_frozen(self):
        m = _small_model()
        opt = DropBack(m, k=8, lr=0.2)
        _step(m, opt, seed=0)
        opt.freeze()
        n = len(opt.swap_history)
        _step(m, opt, seed=1)
        assert len(opt.swap_history) == n


class TestInstrumentation:
    def test_tracked_counts_sum_to_k(self):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=3_000, lr=0.4)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(32, 784)).astype(np.float32))
        y = rng.integers(0, 10, size=32)
        loss = cross_entropy(m(x), y)
        loss.backward()
        opt.step()
        assert sum(opt.tracked_counts().values()) == 3_000

    def test_tracked_counts_before_step_raises(self):
        opt = DropBack(_small_model(), k=5, lr=0.1)
        with pytest.raises(RuntimeError):
            opt.tracked_counts()

    def test_layer_aggregation(self):
        m = _small_model()
        opt = DropBack(m, k=10, lr=0.2)
        _step(m, opt)
        by_layer = opt.tracked_counts_by_layer()
        assert sum(by_layer.values()) == 10
        # layer keys strip the weight/bias leaf
        assert all(not k.endswith(("weight", "bias")) for k in by_layer)

    def test_access_counters(self):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=1_000, lr=0.4)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 784)).astype(np.float32))
        y = rng.integers(0, 10, size=8)
        loss = cross_entropy(m(x), y)
        loss.backward()
        opt.step()
        assert opt.counter.weight_reads == 1_000
        assert opt.counter.weight_writes == 1_000
        assert opt.counter.regenerations == 89_610 - 1_000


class TestSelectorIntegration:
    def test_heap_selector_trains_equivalently(self):
        m1, m2 = _small_model(seed=9), _small_model(seed=9)
        a = DropBack(m1, k=11, lr=0.2)
        b = DropBack(m2, k=11, lr=0.2, selector=HeapSelector())
        for s in range(4):
            _step(m1, a, seed=s)
            _step(m2, b, seed=s)
        # Scores are continuous floats: ties are measure-zero, so the two
        # selectors pick identical sets and training is identical.
        for pa, pb in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestNonPrunable:
    def test_exclude_nonprunable_params(self):
        m = Sequential(Linear(4, 3), Linear(3, 2))
        m[1].weight.prunable = False
        m[1].bias.prunable = False
        m.finalize(1)
        opt = DropBack(m, k=3, lr=0.2, include_nonprunable=False)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 4)).astype(np.float32))
        y = rng.integers(0, 2, size=8)
        loss = cross_entropy(m(x), y)
        loss.backward()
        opt.step()
        # The non-prunable layer's weights all moved (plain SGD, no budget).
        assert np.count_nonzero(m[1].weight.data != m[1].weight.initial_values(1)) > 3
        # The prunable pool respects the budget.
        assert opt.tracked_mask.sum() == 3
        assert opt.total_prunable == m[0].weight.size + m[0].bias.size

    def test_prunable_set_must_be_one_plane_run(self):
        m = Sequential(Linear(4, 3), Linear(3, 3), Linear(3, 2))
        m[1].weight.prunable = False
        m.finalize(1)
        with pytest.raises(ValueError, match=r"contiguous run.*'layers\.1\.bias'"):
            DropBack(m, k=3, lr=0.2, include_nonprunable=False)
        DropBack(m, k=3, lr=0.2)  # the default prunes everything: one run
