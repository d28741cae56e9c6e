"""Dataset and DataLoader primitives.

Minimal but complete equivalents of the loading machinery the original
Chainer implementation used: an array-backed :class:`Dataset` with
deterministic splits, and a :class:`DataLoader` that shuffles with its own
seeded generator so experiment runs are exactly reproducible.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Dataset", "DataLoader", "train_val_split"]


class Dataset:
    """An in-memory supervised dataset.

    Parameters
    ----------
    images:
        Float array, ``(N, C, H, W)`` or ``(N, D)``.
    labels:
        Integer class labels, ``(N,)``.
    name:
        Human-readable tag used in experiment reports.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, name: str = "dataset"):
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if len(images) != len(labels):
            raise ValueError(f"images/labels length mismatch: {len(images)} vs {len(labels)}")
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        self.images = images
        self.labels = labels
        self.name = name

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, idx) -> tuple[np.ndarray, np.ndarray]:
        return self.images[idx], self.labels[idx]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    @property
    def sample_shape(self) -> tuple[int, ...]:
        return self.images.shape[1:]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset restricted to the given indices."""
        return Dataset(self.images[indices], self.labels[indices], name=self.name)

    def __repr__(self) -> str:
        return f"Dataset({self.name}, n={len(self)}, shape={self.sample_shape})"


def train_val_split(
    ds: Dataset, val_fraction: float = 0.2, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split into train and validation subsets."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ds))
    n_val = int(round(len(ds) * val_fraction))
    if n_val == 0 or n_val == len(ds):
        raise ValueError("split produces an empty subset")
    return ds.subset(perm[n_val:]), ds.subset(perm[:n_val])


class DataLoader:
    """Iterate a dataset in (optionally shuffled) mini-batches.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Batch size; the final partial batch is kept unless ``drop_last``.
    shuffle:
        Reshuffle example order each epoch.
    seed:
        Seed for the shuffle generator.  The order for epoch ``e`` is a pure
        function of ``(seed, e)`` — see :meth:`epoch_order` — so any number
        of independent iterators (per-rank loaders in data-parallel
        training, a fresh loader in a new process) derive the exact same
        batch sequence without sharing generator state.
    drop_last:
        Drop a trailing batch smaller than ``batch_size``.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self.seed = int(seed)
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def epoch_order(self, epoch: int) -> np.ndarray:
        """Example order for ``epoch`` — a pure function of ``(seed, epoch)``.

        Unlike a stateful generator advanced by each ``__iter__``, this
        derivation is independent of how many times (or in what
        interleaving) the loader has been consumed, which is what makes N
        data-parallel ranks, each reading its own microbatches, agree
        bit-for-bit on the same sequence.
        """
        n = len(self.dataset)
        if not self.shuffle:
            return np.arange(n)
        return np.random.default_rng((self.seed, int(epoch))).permutation(n)

    def set_epoch(self, epoch: int) -> None:
        """Position the loader so the next ``__iter__`` yields ``epoch``'s order."""
        self._epoch = int(epoch)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        # Batches feed Parameter planes directly; a float64 batch would
        # silently promote activations and break bit-determinism (RPA004).
        if self.dataset.images.dtype != np.float32:
            raise TypeError(
                f"dataset {self.dataset.name!r} images are "
                f"{self.dataset.images.dtype}; the model boundary is float32"
            )
        order = self.epoch_order(self._epoch)
        self._epoch += 1
        end = n - (n % self.batch_size) if self.drop_last else n
        for start in range(0, end, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset[idx]
