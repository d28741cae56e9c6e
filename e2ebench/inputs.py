"""Workload inputs, generated from the workload seed and cached on disk.

Every input a workload consumes is a pure function of ``--seed``: the
synthetic MNIST and CIFAR arrays, the 32 serving checkpoints with their
reference weights, and the serving schedule.  The expensive parts
(rendering images, training the serving checkpoints) are generated once
per seed and kept under ``.e2ebench/cache/`` in the checkout, so they stay
outside every timed region and outside ``setup_s``.  Schedules cost
milliseconds and are drawn fresh.

Structure that sets cost (sizes, the Zipf ranks that are packed, the
budget) is fixed; the seed only moves values (pixels, initial weights,
trained weights, arrival times, which checkpoint and image a request
names), so figures from different seeds are comparable.  The validation
images are one fixed held-out bank per dataset, shared by every seed the
way a real test split is, so ``val_error`` moves with what training did
rather than with which validation images were drawn.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "derive_seed",
    "Cache",
    "mnist",
    "cifar",
    "ServingSet",
    "serving_set",
    "Schedule",
    "online_schedule",
    "bulk_schedule",
    "reference_logits",
    "mlp_layers",
]

# Bump when the generated content for a given seed changes.
INPUT_VERSION = 1

MNIST_TRAIN = 4096
MNIST_VAL = 4096
CIFAR_TRAIN = 256
CIFAR_VAL = 256
CIFAR_SIZE = 32
VAL_SEED = 0  # the held-out banks do not depend on the workload seed

N_CHECKPOINTS = 32
DENSE_DENSITY = 0.10  # regenerating checkpoints: tracked share of weights
PACKED_DENSITY = 0.05  # zero_untracked checkpoints, registered packed=True
CKPT_STEPS = 32  # DropBack steps (batch 64) per serving checkpoint
CKPT_LR = 0.4
ZIPF_S = 2.0

# Sub-stream tags for derive_seed (fixed integers; str hashing is salted).
_TAGS = {
    "mnist": 1,
    "cifar": 2,
    "ckpt": 3,
    "online": 4,
    "bulk": 5,
    "model": 6,
    "loader": 7,
}


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """A 31-bit seed for one named sub-stream of the workload seed."""
    ss = np.random.SeedSequence((int(seed), _TAGS[tag], int(index)))
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)


def packed_rank(rank: int) -> bool:
    """Whether the checkpoint at popularity ``rank`` is zero_untracked/packed.

    Every fourth rank, starting at the second most popular, so packed
    entries see hot, warm and cold traffic alike.
    """
    return rank % 4 == 1


class Cache:
    """Seed-keyed ``.npz`` files under one directory, written atomically."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path(self, name: str) -> Path:
        return self.root / f"{name}-v{INPUT_VERSION}.npz"

    def load(self, name: str) -> dict[str, np.ndarray] | None:
        p = self.path(name)
        if not p.exists():
            return None
        with np.load(p) as data:
            return {k: data[k] for k in data.files}

    def store(self, name: str, arrays: dict[str, np.ndarray]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        p = self.path(name)
        tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, p)

    def get(self, name: str, make) -> dict[str, np.ndarray]:
        hit = self.load(name)
        if hit is None:
            hit = make()
            self.store(name, hit)
        return hit


def _split(cache: Cache, name: str, render, n: int, seed: int, val: bool):
    """One split from ``render(n_train, n_test, seed)``, cached under ``name``.

    The generators render the train split first from one stream, so a
    split is drawn as the used half of a call whose other half is one
    image.
    """
    from repro.data import Dataset

    def make():
        train, test = render(1, n, seed) if val else render(n, 1, seed)
        ds = test if val else train
        return {"x": ds.images, "y": ds.labels}

    arrays = cache.get(name, make)
    return Dataset(arrays["x"], arrays["y"], name=name)


def mnist(cache: Cache, seed: int):
    """Synthetic MNIST: ``seed``'s training split and the fixed validation bank."""
    from repro.data import synth_mnist

    def render(n_tr, n_te, s):
        return synth_mnist(n_train=n_tr, n_test=n_te, seed=s)

    return (_split(cache, f"mnist-train{MNIST_TRAIN}-s{seed}", render, MNIST_TRAIN,
                   derive_seed(seed, "mnist"), val=False),
            _split(cache, f"mnist-val{MNIST_VAL}", render, MNIST_VAL,
                   derive_seed(VAL_SEED, "mnist"), val=True))


def cifar(cache: Cache, seed: int):
    """Synthetic 32x32 CIFAR: ``seed``'s training split and the fixed bank."""
    from repro.data import synth_cifar

    def render(n_tr, n_te, s):
        return synth_cifar(n_train=n_tr, n_test=n_te, seed=s, size=CIFAR_SIZE)

    return (_split(cache, f"cifar-train{CIFAR_TRAIN}-s{seed}", render, CIFAR_TRAIN,
                   derive_seed(seed, "cifar"), val=False),
            _split(cache, f"cifar-val{CIFAR_VAL}", render, CIFAR_VAL,
                   derive_seed(VAL_SEED, "cifar"), val=True))


# ---------------------------------------------------------------------- #
# serving: checkpoints, references, schedules
# ---------------------------------------------------------------------- #


def mlp_layers(plane: np.ndarray, factory) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(weight, bias)`` per Linear layer of an MLP, sliced from its plane."""
    model = factory()
    shapes = [p.shape for _, p in model.named_parameters()]
    layers, offset, pending = [], 0, None
    for shape in shapes:
        size = int(np.prod(shape))
        arr = plane[offset:offset + size].reshape(shape)
        offset += size
        if len(shape) == 2:
            pending = arr
        else:
            layers.append((pending, arr))
    return layers


def reference_logits(layers, x: np.ndarray) -> np.ndarray:
    """Float64 numpy forward of a ReLU MLP: the oracle for served rows."""
    h = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    for i, (w, b) in enumerate(layers):
        h = h @ w.astype(np.float64).T + b.astype(np.float64)
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
    return h


@dataclass
class ServingSet:
    """The 32 checkpoints of serve-zipf, in popularity-rank order."""

    paths: list[Path]
    packed: list[bool]
    images: np.ndarray  # request input pool (MNIST validation split)
    labels: np.ndarray
    reference: np.ndarray  # (checkpoints, pool, classes) float64 logits


def serving_set(cache: Cache, seed: int, factory) -> ServingSet:
    """Train, save and reference the serving checkpoints for ``seed``.

    Checkpoint ``r`` is a ``factory`` model with its own xorshift seed,
    trained for :data:`CKPT_STEPS` DropBack steps on the seed's MNIST
    training split and saved with :func:`repro.io.save_sparse`.  Its
    reference is the trained weight plane itself, taken before the
    checkpoint is written, so it is independent of every load path.
    """
    train, val = mnist(cache, seed)
    tag = f"n{N_CHECKPOINTS}-t{CKPT_STEPS}-m{MNIST_TRAIN}-s{seed}"
    ckpt_dir = cache.root / f"ckpt-{tag}-v{INPUT_VERSION}"
    paths = [ckpt_dir / f"rank{r:02d}.npz" for r in range(N_CHECKPOINTS)]
    packed = [packed_rank(r) for r in range(N_CHECKPOINTS)]

    def make():
        from repro.core import DropBack
        from repro.data import DataLoader
        from repro.io import save_sparse
        from repro.tensor import Tensor, cross_entropy

        ckpt_dir.mkdir(parents=True, exist_ok=True)
        refs = []
        for r, path in enumerate(paths):
            model = factory().finalize(derive_seed(seed, "ckpt", r))
            density = PACKED_DENSITY if packed[r] else DENSE_DENSITY
            k = max(1, round(model.num_parameters() * density))
            opt = DropBack(model, k=k, lr=CKPT_LR, zero_untracked=packed[r])
            loader = DataLoader(train, 64, seed=derive_seed(seed, "loader", r),
                                drop_last=True)
            epochs = itertools.chain.from_iterable(itertools.repeat(loader))
            for xb, yb in itertools.islice(epochs, CKPT_STEPS):
                opt.zero_grad()
                cross_entropy(model(Tensor(xb)), yb).backward()
                opt.step()
            if not opt.untracked_values_match_init():
                raise RuntimeError(f"checkpoint {r}: untracked weights drifted from init")
            plane = np.array(model.weight_plane, copy=True)
            refs.append(reference_logits(mlp_layers(plane, factory), val.images))
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(tmp, "wb") as f:
                save_sparse(model, opt, f)
            os.replace(tmp, path)
        return {"reference": np.stack(refs)}

    name = f"serve-refs-{tag}"
    arrays = cache.load(name) if all(p.exists() for p in paths) else None
    if arrays is None:
        arrays = make()
        cache.store(name, arrays)
    return ServingSet(paths=paths, packed=packed, images=val.images,
                      labels=val.labels, reference=arrays["reference"])


@dataclass
class Schedule:
    """One phase's requests: due offsets (s), checkpoint rank, pool index."""

    due: np.ndarray
    rank: np.ndarray
    image: np.ndarray

    def __len__(self) -> int:
        return len(self.rank)


def zipf_ranks(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``n`` draws from a Zipf(:data:`ZIPF_S`) law truncated to ranks ``0..k-1``."""
    p = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** ZIPF_S
    return rng.choice(k, size=n, p=p / p.sum())


def online_schedule(seed: int, rate: float, n: int, pool: int, k: int) -> Schedule:
    """Open-loop Poisson arrivals at ``rate`` req/s over ``k`` checkpoints."""
    rng = np.random.default_rng(derive_seed(seed, "online"))
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return Schedule(due=due, rank=zipf_ranks(rng, n, k), image=rng.integers(0, pool, n))


def bulk_schedule(seed: int, n: int, pool: int, k: int, burst: int = 0) -> Schedule:
    """One burst over ``k`` checkpoints: every request due at offset 0."""
    rng = np.random.default_rng(derive_seed(seed, "bulk", burst))
    return Schedule(due=np.zeros(n), rank=zipf_ranks(rng, n, k),
                    image=rng.integers(0, pool, n))
