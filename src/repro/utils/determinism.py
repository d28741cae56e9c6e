"""Determinism helpers: stable digests of model state.

Everything in this reproduction is deterministic given its seeds — the
xorshift initialization, the data generators, the shuffle order, even the
dropout masks.  :func:`weights_digest` turns a model's full parameter state
into a short stable hash so tests can pin golden values and catch any
change to initialization or training numerics, and experiment logs can
record exactly which weights produced a number.

:func:`training_fingerprint` digests short DropBack runs step by step, so
two revisions can be checked for the same training bits
(``scripts/bits.py --against REV``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro import models as zoo
from repro.core import DropBack
from repro.nn import Module
from repro.tensor import Tensor, cross_entropy, no_grad

__all__ = ["weights_digest", "array_digest", "training_fingerprint", "FINGERPRINT_MODELS"]

# name -> (constructor, shape of one input example)
FINGERPRINT_MODELS = {
    "vgg_s(width_mult=0.125)": (lambda: zoo.vgg_s(width_mult=0.125), (3, 32, 32)),
    "vgg_s(width_mult=0.25)": (lambda: zoo.vgg_s(width_mult=0.25), (3, 32, 32)),
    "densenet_tiny": (zoo.densenet_tiny, (3, 32, 32)),
    "wrn_10_1": (zoo.wrn_10_1, (3, 32, 32)),
    "lenet5_bn": (zoo.lenet5_bn, (1, 28, 28)),
    "lenet5_prelu": (zoo.lenet5_prelu, (1, 28, 28)),
    "mnist_100_100": (zoo.mnist_100_100, (784,)),
}


def array_digest(arr: np.ndarray) -> str:
    """Hex digest of an array's dtype, shape, and exact bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def weights_digest(model: Module, include_buffers: bool = True) -> str:
    """Hex digest of all parameters (and, optionally, buffers) of a model.

    Parameters are folded in named order, so two models agree iff their
    architectures and every stored value agree bit-for-bit.
    """
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(array_digest(p.data).encode())
    if include_buffers:
        for mod_name, buf_name, buf in model._named_buffers():
            h.update(f"{mod_name}{buf_name}".encode())
            h.update(array_digest(buf).encode())
    return h.hexdigest()


def training_fingerprint(models: Iterable[str] = FINGERPRINT_MODELS) -> dict[str, str]:
    """Per-step digests of short DropBack runs, keyed in run order.

    Per model (keys of :data:`FINGERPRINT_MODELS`), criterion and
    ``zero_untracked``: four steps on fixed batches of 8, ``freeze()`` after
    the second, recording the loss, every gradient (with its dtype), the
    plane and the tracked mask, then the eval logits.  It uses only API
    that older revisions share, so it can run against an older ``repro``.
    """
    out: dict[str, str] = {}
    for name in models:
        make, shape = FINGERPRINT_MODELS[name]
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(5, 8, *shape)).astype(np.float32)
        ys = rng.integers(0, 10, size=(5, 8))
        for criterion in ("accumulated", "magnitude", "current"):
            for zero_untracked in (False, True):
                model = make().finalize(7)
                opt = DropBack(model, k=max(1, model.num_parameters() // 10), lr=0.05,
                               criterion=criterion, zero_untracked=zero_untracked)
                run = f"{name}/{criterion}/zero_untracked={zero_untracked}"
                for step in range(4):
                    opt.zero_grad()
                    loss = cross_entropy(model(Tensor(xs[step])), ys[step])
                    loss.backward()
                    opt.step()
                    key = f"{run}/step{step}"
                    out[f"{key}/loss"] = array_digest(loss.data)
                    for pname, p in model.named_parameters():
                        g = "None" if p.grad is None else array_digest(p.grad)
                        out[f"{key}/grad:{pname}"] = g
                    out[f"{key}/plane"] = array_digest(model.weight_plane)
                    out[f"{key}/mask"] = array_digest(opt.tracked_mask)
                    if step == 1:
                        opt.freeze()
                model.eval()
                with no_grad():
                    out[f"{run}/eval_logits"] = array_digest(model(Tensor(xs[4])).data)
    return out
