"""End-to-end workflow integration: the full train-to-deploy path.

Chains every subsystem the way a user would: train with DropBack +
freezing, save the sparse checkpoint, reload on a fresh architecture, serve
through the regenerating engine, and account the energy — asserting
consistency at each hand-off.
"""

import os

import numpy as np
import pytest

from repro.core import DropBack
from repro.data import DataLoader
from repro.energy import EnergyModel
from repro.infer import RegeneratingInferenceEngine
from repro.io import load_sparse, read_sparse_payload, save_sparse
from repro.models import lenet5_bn, mnist_100_100
from repro.optim import BoundedStepDecay
from repro.tensor import Tensor, no_grad
from repro.train import FreezeCallback, Trainer, evaluate
from repro.utils.determinism import weights_digest


class TestTrainToDeployWorkflow:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory, tiny_mnist):
        train, test = tiny_mnist
        model = mnist_100_100().finalize(77)
        opt = DropBack(model, k=6_000, lr=0.4)
        trainer = Trainer(
            model,
            opt,
            schedule=BoundedStepDecay(0.4, period=2),
            callbacks=[FreezeCallback(2)],
            patience=5,
        )
        hist = trainer.fit(DataLoader(train, 64, seed=1), test, epochs=4)
        path = str(tmp_path_factory.mktemp("wf") / "model.npz")
        save_sparse(model, opt, path)
        return model, opt, hist, path, test

    def test_training_learned_and_froze(self, pipeline):
        model, opt, hist, path, test = pipeline
        assert hist.best_val_accuracy > 0.7
        assert opt.frozen
        assert opt.untracked_values_match_init()

    def test_checkpoint_reload_digest_identical(self, pipeline):
        model, opt, hist, path, test = pipeline
        restored = load_sparse(mnist_100_100(), path)
        assert weights_digest(restored, include_buffers=False) == weights_digest(
            model, include_buffers=False
        )

    def test_engine_serves_identical_predictions(self, pipeline):
        model, opt, hist, path, test = pipeline
        device = mnist_100_100().finalize(model.seed)
        engine = RegeneratingInferenceEngine(device, read_sparse_payload(path))

        model.eval()
        with no_grad():
            dense = model(Tensor(test.images[:64])).numpy().argmax(axis=-1)
        model.train()
        np.testing.assert_array_equal(engine.predict(test.images[:64]), dense)

    def test_energy_accounting_consistent(self, pipeline):
        model, opt, hist, path, test = pipeline
        em = EnergyModel()
        rep = em.report(opt.counter)
        # Steps recorded match what training actually ran.
        assert opt.counter.steps == hist.epochs_run * 10  # 600/64 -> 10 batches
        # Per-step traffic is exactly the budget.
        assert opt.counter.weight_reads == opt.counter.steps * 6_000
        assert rep.total_pj > 0

    def test_checkpoint_compact(self, pipeline):
        model, opt, hist, path, test = pipeline
        dense_bytes = model.num_parameters() * 4
        assert os.path.getsize(path) < dense_bytes / 3


class TestBatchNormModelWorkflow:
    def test_bn_model_full_cycle(self, tmp_path, tiny_mnist):
        """BatchNorm running stats survive the sparse round-trip, so eval
        behaviour is preserved exactly."""
        train, test = tiny_mnist
        model = lenet5_bn().finalize(5)
        opt = DropBack(model, k=model.num_parameters() // 5, lr=0.1)
        Trainer(model, opt, schedule=BoundedStepDecay(0.1, period=2)).fit(
            DataLoader(train, 64, seed=0), test, epochs=2
        )
        acc_before = evaluate(model, test)
        path = str(tmp_path / "bn.npz")
        save_sparse(model, opt, path)
        restored = load_sparse(lenet5_bn(), path)
        assert evaluate(restored, test) == pytest.approx(acc_before)
        assert weights_digest(restored) == weights_digest(model)
