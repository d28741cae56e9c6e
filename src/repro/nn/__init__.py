"""Neural-network layers with regenerable initialization."""

from repro.nn.layers import (
    ELU,
    GELU,
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    PReLU,
    ReLU,
    Sequential,
    Softplus,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.module import Module, Parameter

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "ELU",
    "GELU",
    "Softplus",
    "PReLU",
    "Dropout",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Sequential",
    "CrossEntropyLoss",
    "MSELoss",
]
