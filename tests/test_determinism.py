"""Golden-value determinism tests.

These pin exact digests of seeded initializations.  If any of them change,
initialization numerics changed — which silently invalidates every
regenerated untracked weight in every existing sparse checkpoint, so this
must be a conscious, versioned decision.
"""

import numpy as np

from repro import profile
from repro.core import DropBack
from repro.data import DataLoader
from repro.models import lenet_300_100, mnist_100_100, wrn_10_1
from repro.optim import ConstantLR
from repro.train import Trainer
from repro.utils.determinism import array_digest, training_fingerprint, weights_digest

GOLDEN = {
    "lenet_300_100/seed42": "59d9e4cec15572088681f58a0565a4b3fcb0b16b20d6b583297b01ea57e189a3",
    "mnist_100_100/seed7": "f3540ecef44f5f15707eee76731709f53fb46ced41ec3dda92548878c472b9c2",
    "wrn_10_1/seed3": "7c081a7feb59d1b65d02fc67cb89e3273849892e51ab4100d6aade8735f275dc",
}


class TestArrayDigest:
    def test_stable(self):
        a = np.arange(10, dtype=np.float32)
        assert array_digest(a) == array_digest(a.copy())

    def test_sensitive_to_values(self):
        a = np.zeros(4, np.float32)
        b = a.copy()
        b[0] = 1e-20
        assert array_digest(a) != array_digest(b)

    def test_sensitive_to_shape(self):
        a = np.zeros(4, np.float32)
        assert array_digest(a) != array_digest(a.reshape(2, 2))

    def test_sensitive_to_dtype(self):
        a = np.zeros(4, np.float32)
        assert array_digest(a) != array_digest(a.astype(np.float64))

    def test_noncontiguous_handled(self):
        a = np.arange(16, dtype=np.float32).reshape(4, 4)
        assert array_digest(a[:, ::2]) == array_digest(np.ascontiguousarray(a[:, ::2]))


class TestGoldenInitializations:
    def test_lenet_300_100_seed42(self):
        assert weights_digest(lenet_300_100().finalize(42)) == GOLDEN["lenet_300_100/seed42"]

    def test_mnist_100_100_seed7(self):
        assert weights_digest(mnist_100_100().finalize(7)) == GOLDEN["mnist_100_100/seed7"]

    def test_wrn_10_1_seed3(self):
        assert weights_digest(wrn_10_1().finalize(3)) == GOLDEN["wrn_10_1/seed3"]

    def test_different_seed_different_digest(self):
        assert (
            weights_digest(mnist_100_100().finalize(8))
            != GOLDEN["mnist_100_100/seed7"]
        )


class TestGoldenDatasets:
    """Dataset generation is part of the reproducibility surface too."""

    def test_synth_mnist_digest(self):
        from repro.data import synth_mnist

        train, _ = synth_mnist(n_train=20, n_test=10, seed=0)
        assert (
            array_digest(train.images)
            == "ba5718f753d7e8fe156e8993789a0d7c24e24d332aa7c1ba287c0ecf98b8dc0a"
        )

    def test_synth_cifar_digest(self):
        from repro.data import synth_cifar

        train, _ = synth_cifar(n_train=20, n_test=10, seed=0, size=16)
        assert (
            array_digest(train.images)
            == "aa3c805b0d2b856770661047d5c357ea3ff94d739882a7b14e71a18e2c42b465"
        )


class TestTrainingDeterminism:
    def test_dropback_training_digest_reproducible(self, tiny_mnist):
        """Whole-pipeline determinism: same seeds -> bit-identical weights."""
        train, test = tiny_mnist

        def run():
            m = mnist_100_100().finalize(11)
            opt = DropBack(m, k=4_000, lr=0.4)
            Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
                DataLoader(train, 64, seed=5), test, epochs=2
            )
            return weights_digest(m)

        assert run() == run()

    def test_loader_seed_changes_digest(self, tiny_mnist):
        train, test = tiny_mnist

        def run(loader_seed):
            m = mnist_100_100().finalize(11)
            opt = DropBack(m, k=4_000, lr=0.4)
            Trainer(m, opt, schedule=ConstantLR(0.4)).fit(
                DataLoader(train, 64, seed=loader_seed), test, epochs=1
            )
            return weights_digest(m)

        assert run(1) != run(2)


class TestTrainingFingerprint:
    MODELS = ("lenet5_bn", "mnist_100_100")

    def test_covers_every_step_and_tensor(self):
        fp = training_fingerprint(self.MODELS[1:])
        run = "mnist_100_100/current/zero_untracked=True"
        assert f"{run}/step3/mask" in fp and f"{run}/eval_logits" in fp
        assert len(fp) == 3 * 2 * (4 * (3 + 6) + 1)  # criteria x zero x steps x tensors

    def test_same_with_profiling_on_and_off(self):
        off = training_fingerprint(self.MODELS)
        profile.enable()
        try:
            on = training_fingerprint(self.MODELS)
        finally:
            profile.disable()
            profile.reset()
        assert on == off
