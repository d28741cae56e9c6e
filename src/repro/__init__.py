"""DropBack: continuous pruning during training.

A full reproduction of "Full Deep Neural Network Training on a Pruned
Weight Budget" (Golub, Lemieux, Lis — MLSys 2019), built from scratch on
numpy: autograd engine, layer/model zoo, synthetic datasets, the DropBack
optimizer, three baseline pruning techniques, and the paper's analysis and
energy tooling.

Quickstart::

    from repro import DropBack, Trainer, DataLoader
    from repro.models import lenet_300_100
    from repro.data import synth_mnist
    from repro.optim import BoundedStepDecay

    train, test = synth_mnist()
    model = lenet_300_100().finalize(seed=42)
    opt = DropBack(model, k=20_000, lr=0.4)
    trainer = Trainer(model, opt, schedule=BoundedStepDecay(0.4), patience=5)
    history = trainer.fit(DataLoader(train, batch_size=64), test, epochs=100)
    print(history.best_val_error, opt.compression_ratio)
"""

from repro import profile
from repro.core import DropBack
from repro.data import DataLoader, Dataset, synth_cifar, synth_mnist
from repro.energy import EnergyModel
from repro.nn import Module, Parameter
from repro.optim import SGD, BoundedStepDecay, ConstantLR, StepDecay
from repro.profile import PerfReport
from repro.tensor import Tensor, no_grad
from repro.train import FreezeCallback, ProfilerCallback, Trainer, evaluate

__version__ = "1.0.0"

__all__ = [
    "DropBack",
    "SGD",
    "ConstantLR",
    "StepDecay",
    "BoundedStepDecay",
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Dataset",
    "DataLoader",
    "synth_mnist",
    "synth_cifar",
    "Trainer",
    "FreezeCallback",
    "ProfilerCallback",
    "evaluate",
    "EnergyModel",
    "profile",
    "PerfReport",
    "__version__",
]
