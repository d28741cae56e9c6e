"""Input transforms and augmentation.

The paper trains CIFAR *without* augmentation ("No data augmentation of
CIFAR-10 was performed"), so the reproduction benches don't use these —
but a training library needs them, and the augmentation ablation bench
uses them to show DropBack composes with standard pipelines.

Transforms are pure functions over image batches (N, C, H, W) driven by an
explicit generator, so augmented runs stay reproducible.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Compose",
    "Normalize",
    "RandomHorizontalFlip",
    "RandomCrop",
    "GaussianNoise",
    "AugmentedLoader",
]


class Compose:
    """Apply transforms in order."""

    def __init__(self, transforms: Sequence[Callable]):
        self.transforms = list(transforms)

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for t in self.transforms:
            x = t(x, rng)
        return x

    def __repr__(self) -> str:
        return f"Compose({', '.join(repr(t) for t in self.transforms)})"


class Normalize:
    """Per-channel standardization ``(x - mean) / std``."""

    def __init__(self, mean: Sequence[float], std: Sequence[float]):
        self.mean = np.asarray(mean, np.float32).reshape(1, -1, 1, 1)
        self.std = np.asarray(std, np.float32).reshape(1, -1, 1, 1)
        if np.any(self.std <= 0):
            raise ValueError("std must be positive")

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return ((x - self.mean) / self.std).astype(np.float32)

    def __repr__(self) -> str:
        return "Normalize()"


class RandomHorizontalFlip:
    """Flip each image left-right with probability ``p``."""

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = float(p)

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        flip = rng.random(len(x)) < self.p
        out = x.copy()
        out[flip] = out[flip, :, :, ::-1]
        return out

    def __repr__(self) -> str:
        return f"RandomHorizontalFlip(p={self.p})"


class RandomCrop:
    """Zero-pad by ``padding`` and crop back to the original size."""

    def __init__(self, padding: int = 4):
        if padding < 1:
            raise ValueError(f"padding must be >= 1, got {padding}")
        self.padding = int(padding)

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, c, h, w = x.shape
        p = self.padding
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        out = np.empty_like(x)
        ys = rng.integers(0, 2 * p + 1, size=n)
        xs = rng.integers(0, 2 * p + 1, size=n)
        for i in range(n):
            out[i] = padded[i, :, ys[i] : ys[i] + h, xs[i] : xs[i] + w]
        return out

    def __repr__(self) -> str:
        return f"RandomCrop(padding={self.padding})"


class GaussianNoise:
    """Add N(0, sigma^2) pixel noise."""

    def __init__(self, sigma: float = 0.02):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.sigma == 0:
            return x
        return (x + rng.normal(0, self.sigma, size=x.shape)).astype(np.float32)

    def __repr__(self) -> str:
        return f"GaussianNoise(sigma={self.sigma})"


class AugmentedLoader:
    """Wrap a DataLoader, applying a transform to each training batch.

    Parameters
    ----------
    loader:
        The underlying :class:`repro.data.DataLoader`.
    transform:
        Callable ``(images, rng) -> images``.
    seed:
        Seed for the augmentation generator.  Like
        :meth:`repro.data.DataLoader.epoch_order`, the draw stream for epoch
        ``e`` is a pure function of ``(seed, e)`` rather than shared
        generator state, so a fresh loader over the same data, in this
        process or another, applies bit-identical augmentations.
    """

    def __init__(self, loader, transform: Callable, seed: int = 0):
        self.loader = loader
        self.transform = transform
        self.seed = int(seed)
        self._epoch = 0

    def __len__(self) -> int:
        return len(self.loader)

    def epoch_rng(self, epoch: int) -> np.random.Generator:
        """The augmentation generator for ``epoch`` (pure in ``(seed, epoch)``)."""
        return np.random.default_rng((self.seed, int(epoch)))

    def set_epoch(self, epoch: int) -> None:
        """Position the wrapper (and its loader, if it supports it)."""
        self._epoch = int(epoch)
        if hasattr(self.loader, "set_epoch"):
            self.loader.set_epoch(epoch)

    def __iter__(self):
        rng = self.epoch_rng(self._epoch)
        self._epoch += 1
        for x, y in self.loader:
            yield self.transform(x, rng), y
