"""Standard layers built on the autograd engine.

Every trainable tensor is a :class:`~repro.nn.module.Parameter` carrying a
regenerable initializer: LeCun scaled normal for weight matrices and kernels
(the paper's choice), constants for biases, BatchNorm scale/shift, and PReLU
slopes.  That makes *every* layer prunable by DropBack, including the
normalization layers that post-hoc pruning methods cannot touch.
"""

from __future__ import annotations

import numpy as np

from repro import tensor as F
from repro.init import ConstantInit, HeNormalInit, ScaledNormalInit, lecun_std
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor

__all__ = [
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
    "Sequential",
    "Identity",
]


class Linear(Module):
    """Affine layer ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    bias:
        Include a bias vector (constant-0 initialized).
    init:
        ``"lecun"`` (paper default) or ``"he"`` weight initialization.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, init: str = "lecun"):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        weight_init = (
            HeNormalInit(in_features) if init == "he" else ScaledNormalInit(lecun_std(in_features))
        )
        self.weight = Parameter((out_features, in_features), weight_init)
        self.bias = Parameter((out_features,), ConstantInit(0.0)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution layer (NCHW).

    Kernel initialized from a scaled normal with fan-in ``C_in * KH * KW``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        init: str = "lecun",
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        weight_init = HeNormalInit(fan_in) if init == "he" else ScaledNormalInit(lecun_std(fan_in))
        self.weight = Parameter((out_channels, in_channels, kernel_size, kernel_size), weight_init)
        self.bias = Parameter((out_channels,), ConstantInit(0.0)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class _BatchNorm(Module):
    """Shared batch-norm implementation; γ and β are prunable Parameters.

    γ regenerates to 1.0 and β to 0.0 when untracked — the paper highlights
    that constant-initialized layers are prunable by DropBack "out of the
    box", unlike with magnitude or slimming approaches.
    """

    _buffers = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter((num_features,), ConstantInit(1.0))
        self.beta = Parameter((num_features,), ConstantInit(0.0))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)

    def forward(self, x: Tensor) -> Tensor:
        self._check_ndim(x)
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def _check_ndim(self, x: Tensor) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (N, C) activations."""

    def _check_ndim(self, x: Tensor) -> None:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C), got shape {x.shape}")


class BatchNorm2d(_BatchNorm):
    """Batch normalization over (N, C, H, W) activations (per channel)."""

    def _check_ndim(self, x: Tensor) -> None:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W), got shape {x.shape}")


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class LeakyReLU(Module):
    """Leaky ReLU with a fixed negative slope."""

    def __init__(self, slope: float = 0.01):
        super().__init__()
        self.slope = float(slope)

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.slope)

    def __repr__(self) -> str:
        return f"LeakyReLU(slope={self.slope})"


class ELU(Module):
    """Exponential linear unit."""

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = float(alpha)

    def forward(self, x: Tensor) -> Tensor:
        return F.elu(x, self.alpha)

    def __repr__(self) -> str:
        return f"ELU(alpha={self.alpha})"


class GELU(Module):
    """Gaussian error linear unit (tanh approximation)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)

    def __repr__(self) -> str:
        return "GELU()"


class Softplus(Module):
    """Softplus activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.softplus(x)

    def __repr__(self) -> str:
        return "Softplus()"


class PReLU(Module):
    """Parametric ReLU with trainable (and prunable) slope, init 0.25."""

    def __init__(self, num_parameters: int = 1, init_slope: float = 0.25):
        super().__init__()
        self.slope = Parameter((num_parameters,), ConstantInit(init_slope))

    def forward(self, x: Tensor) -> Tensor:
        return F.prelu(x, self.slope)

    def __repr__(self) -> str:
        return f"PReLU({self.slope.shape[0]})"


class Dropout(Module):
    """Inverted dropout (active only in training mode)."""

    def __init__(self, p: float = 0.5, seed: int = 0xD06):
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class MaxPool2d(Module):
    """Max pooling."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    """Average pooling."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Global average pooling: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    """Flatten all but the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def __repr__(self) -> str:
        return "Flatten()"


class Identity(Module):
    """No-op module (useful as a placeholder in skip connections)."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Sequential(Module):
    """Compose modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def append(self, module: Module) -> "Sequential":
        self.layers.append(module)
        return self

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.layers)
        return f"Sequential({inner})"
