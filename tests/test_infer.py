"""Tests for the regenerating inference engine."""

import numpy as np
import pytest

from repro.core import DropBack
from repro.data import DataLoader
from repro.energy import EnergyModel
from repro.infer import RegeneratingInferenceEngine
from repro.io import SparsePayload, sparse_payload
from repro.models import lenet5_bn, mlp, mnist_100_100, wrn_10_1
from repro.optim import ConstantLR
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.train import Trainer


def _engine(model, opt):
    return RegeneratingInferenceEngine(model, sparse_payload(model, opt))


def _eval_out(model, x):
    """The model's eval-mode output, leaving it in train mode."""
    model.eval()
    with no_grad():
        out = model(Tensor(x)).numpy().copy()
    model.train()
    return out


@pytest.fixture(scope="module")
def trained(tiny_mnist):
    train, test = tiny_mnist
    model = mnist_100_100().finalize(3)
    opt = DropBack(model, k=5_000, lr=0.4)
    Trainer(model, opt, schedule=ConstantLR(0.4)).fit(
        DataLoader(train, 64, seed=0), test, epochs=2
    )
    return model, opt, test


def _one_tracked_weight(seed=1):
    return SparsePayload(seed, np.array([0], np.int64), np.array([1.0], np.float32))


class TestConstruction:
    def test_requires_finalized(self):
        with pytest.raises(RuntimeError):
            RegeneratingInferenceEngine(mnist_100_100(), _one_tracked_weight())

    def test_shape_mismatch(self):
        # The payload validates itself, so a mismatch never reaches the engine.
        with pytest.raises(ValueError, match="shape"):
            SparsePayload(1, np.array([0, 1], np.int64), np.array([1.0], np.float32))

    def test_index_out_of_range(self):
        m = mnist_100_100().finalize(1)
        payload = SparsePayload(1, np.array([10**9], np.int64), np.array([1.0], np.float32))
        with pytest.raises(ValueError, match="out of range"):
            RegeneratingInferenceEngine(m, payload)

    def test_payload_requires_step(self):
        m = mnist_100_100().finalize(1)
        opt = DropBack(m, k=10, lr=0.4)
        with pytest.raises(RuntimeError):
            sparse_payload(m, opt)


class TestExactness:
    def test_outputs_bit_identical_to_dense_model(self, trained):
        model, opt, test = trained
        x = test.images[:32]
        dense_out = _eval_out(model, x)
        np.testing.assert_array_equal(_engine(model, opt).forward(x), dense_out)

    def test_engine_on_fresh_architecture(self, trained):
        """The engine needs only the architecture + sparse data, not the
        trained weights: a freshly built model gives identical outputs."""
        model, opt, test = trained
        fresh = mnist_100_100().finalize(model.seed)
        engine = RegeneratingInferenceEngine(fresh, sparse_payload(model, opt))
        x = test.images[:16]
        np.testing.assert_array_equal(engine.forward(x), _eval_out(model, x))

    def test_predictions_match_evaluate(self, trained):
        model, opt, test = trained
        preds = _engine(model, opt).predict(test.images)
        np.testing.assert_array_equal(preds, _eval_out(model, test.images).argmax(axis=-1))

    def test_zero_untracked_keeps_untracked_weights_at_zero(self):
        model = mlp(6, (8,), 3).finalize(11)
        opt = DropBack(model, k=9, lr=0.3, zero_untracked=True)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 6)).astype(np.float32)
        cross_entropy(model(Tensor(x)), rng.integers(0, 3, size=16)).backward()
        opt.step()
        engine = RegeneratingInferenceEngine(
            mlp(6, (8,), 3).finalize(11), sparse_payload(model, opt)
        )
        np.testing.assert_array_equal(engine.forward(x), _eval_out(model, x))

    def test_batchnorm_statistics_carried_to_fresh_architecture(self):
        model = lenet5_bn().finalize(4)
        opt = DropBack(model, k=2_000, lr=0.1)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.normal(size=(8, 1, 28, 28)).astype(np.float32)
            model.zero_grad()
            cross_entropy(model(Tensor(x)), rng.integers(0, 10, size=8)).backward()
            opt.step()
        engine = RegeneratingInferenceEngine(
            lenet5_bn().finalize(4), sparse_payload(model, opt)
        )
        np.testing.assert_array_equal(engine.forward(x), _eval_out(model, x))


class TestTraffic:
    def test_traffic_recorded(self, trained):
        model, opt, test = trained
        engine = _engine(model, opt)
        engine.forward(test.images[:8])
        t = engine.last_traffic
        assert t is not None
        assert t.tracked_fetches == 5_000
        assert t.regenerations == model.num_parameters() - 5_000

    def test_peak_resident_below_total_for_sequential(self, trained):
        model, opt, test = trained
        engine = _engine(model, opt)
        engine.forward(test.images[:8])
        # Streaming layer-by-layer keeps peak below the full model size.
        assert engine.last_traffic.peak_resident_weights < model.num_parameters()

    def test_storage_is_tracked_only(self, trained):
        model, opt, _ = trained
        engine = _engine(model, opt)
        assert engine.storage_floats() == 5_000

    def test_energy_model_integration(self, trained):
        model, opt, test = trained
        engine = _engine(model, opt)
        engine.forward(test.images[:8])
        rep = EnergyModel().report(engine.last_traffic.as_counter())
        dense_pj = model.num_parameters() * 640.0
        assert rep.total_pj < dense_pj / 5  # big inference energy saving


class TestNonSequentialModels:
    def test_wrn_engine_matches_dense(self, tiny_cifar):
        train, test = tiny_cifar
        model = wrn_10_1().finalize(5)
        opt = DropBack(model, k=30_000, lr=0.1)
        Trainer(model, opt, schedule=ConstantLR(0.1)).fit(
            DataLoader(train, 32, seed=0), test, epochs=1
        )
        x = test.images[:8]
        dense_out = _eval_out(model, x)
        np.testing.assert_array_equal(_engine(model, opt).forward(x), dense_out)
