"""Tests for DropBack variants and trainer divergence handling."""

import numpy as np
import pytest

from repro.core import DropBack, UniformBudgetDropBack
from repro.data import DataLoader, Dataset
from repro.models import mlp, mnist_100_100
from repro.optim import SGD, ConstantLR
from repro.tensor import Tensor, cross_entropy
from repro.train import Trainer


def _step(model, opt, seed=0, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(16, in_dim)).astype(np.float32))
    y = rng.integers(0, classes, size=16)
    model.zero_grad()
    cross_entropy(model(x), y).backward()
    opt.step()


class TestUniformBudgetDropBack:
    def test_total_budget_honoured(self):
        m = mnist_100_100().finalize(1)
        opt = UniformBudgetDropBack(m, k=9_000, lr=0.4)
        assert sum(opt._layer_budgets) == 9_000

    def test_per_layer_budget_enforced(self):
        m = mlp(6, (8,), 3).finalize(1)
        opt = UniformBudgetDropBack(m, k=20, lr=0.3)
        _step(m, opt)
        counts = opt.tracked_counts()
        budgets = dict(zip([n for n, _ in opt._named], opt._layer_budgets))
        for name, count in counts.items():
            assert count == min(budgets[name], dict(m.named_parameters())[name].size)

    def test_every_layer_gets_at_least_one(self):
        m = mnist_100_100().finalize(1)
        opt = UniformBudgetDropBack(m, k=10, lr=0.4)
        assert all(b >= 1 for b in opt._layer_budgets)

    def test_untracked_regenerate(self):
        m = mlp(6, (8,), 3).finalize(1)
        opt = UniformBudgetDropBack(m, k=15, lr=0.3)
        for s in range(3):
            _step(m, opt, seed=s)
        assert opt.untracked_values_match_init()

    def test_allocation_differs_from_global(self, tiny_mnist):
        """Global selection concentrates budget; uniform spreads it — so
        the tracked sets differ by construction."""
        train, test = tiny_mnist
        results = {}
        for cls in (DropBack, UniformBudgetDropBack):
            m = mnist_100_100().finalize(9)
            opt = cls(m, k=2_000, lr=0.4)
            Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
                DataLoader(train, 64, seed=0), test, epochs=2
            )
            results[cls.__name__] = opt.tracked_counts()
        global_fc1 = results["DropBack"]["layers.1.weight"]
        uniform_fc1 = results["UniformBudgetDropBack"]["layers.1.weight"]
        assert global_fc1 != uniform_fc1

    def test_freeze_works(self):
        m = mlp(6, (8,), 3).finalize(1)
        opt = UniformBudgetDropBack(m, k=15, lr=0.3)
        _step(m, opt, seed=0)
        opt.freeze()
        mask = opt.tracked_mask
        _step(m, opt, seed=1)
        np.testing.assert_array_equal(opt.tracked_mask, mask)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestDivergenceGuard:
    def _diverging_setup(self):
        """A learning rate large enough to blow up float32 quickly."""
        rng = np.random.default_rng(0)
        x = (rng.normal(size=(64, 8)) * 50).astype(np.float32)
        y = rng.integers(0, 3, size=64)
        ds = Dataset(x, y)
        m = mlp(8, (16,), 3).finalize(1)
        opt = SGD(m, lr=1e6)
        return m, opt, ds

    def test_divergence_detected_and_stopped(self):
        m, opt, ds = self._diverging_setup()
        tr = Trainer(m, opt, schedule=ConstantLR(1e6))
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=50)
        assert h.diverged
        assert h.epochs_run < 50

    def test_guard_can_be_disabled(self):
        m, opt, ds = self._diverging_setup()
        tr = Trainer(m, opt, schedule=ConstantLR(1e6), stop_on_divergence=False)
        h = tr.fit(DataLoader(ds, 32, seed=0), ds, epochs=2)
        assert not h.diverged
        assert h.epochs_run == 2

    def test_healthy_run_not_flagged(self, tiny_mnist):
        train, test = tiny_mnist
        m = mnist_100_100().finalize(1)
        tr = Trainer(m, SGD(m, lr=0.4), schedule=ConstantLR(0.4))
        h = tr.fit(DataLoader(train, 64, seed=0), test, epochs=2)
        assert not h.diverged
