#!/usr/bin/env python
"""Deploying a DropBack model: streaming inference with weight regeneration.

Shows the full deployment path the paper's accelerator implies:

1. train with DropBack (only k weights ever stored);
2. export the sparse checkpoint (seed + tracked indices/values);
3. on the "device", rebuild ONLY the architecture, read the sparse data,
   and serve predictions through the regenerating inference engine —
   weights are materialized layer by layer from the xorshift PRNG plus the
   tracked values, and never held all at once;
4. verify bit-exactness against the dense model and report the weight
   traffic and energy per forward pass;
5. stand the same checkpoint up behind the serving layer: the
   ModelRegistry materializes the weight plane from the sparse payload on
   demand (digest-keyed, LRU-evicted under a byte budget) and the
   InferenceServer coalesces concurrent single-sample requests into
   batched forwards — same bits, now with p50/p99 under load.

Run:
    python examples/streaming_inference.py [--compression 10] [--epochs 6]
"""

from __future__ import annotations

import argparse
import os
import tempfile

import numpy as np

from repro import DataLoader, DropBack, Tensor, Trainer, no_grad
from repro.data import synth_mnist
from repro.energy import EnergyModel
from repro.infer import RegeneratingInferenceEngine
from repro.io import read_sparse_payload, save_sparse
from repro.models import lenet_300_100
from repro.optim import BoundedStepDecay
from repro.optim.base import AccessCounter
from repro.serve import InferenceServer, ModelRegistry
from repro.utils import format_ratio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compression", type=float, default=10.0)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    train, test = synth_mnist(n_train=2_000, n_test=500, seed=0)

    model = lenet_300_100().finalize(args.seed)
    k = max(1, int(model.num_parameters() / args.compression))
    opt = DropBack(model, k=k, lr=0.4)
    print(f"training LeNet-300-100 with k={k:,} "
          f"({format_ratio(model.num_parameters() / k)} compression) ...")
    Trainer(model, opt, schedule=BoundedStepDecay(0.4, period=2), patience=5).fit(
        DataLoader(train, 64, seed=1), test, epochs=args.epochs, verbose=True
    )

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "model.npz")
        save_sparse(model, opt, ckpt)
        print(f"\nexported sparse checkpoint: {os.path.getsize(ckpt):,} bytes")

        # --- "device side": architecture + checkpoint only -------------
        payload = read_sparse_payload(ckpt)
        device_model = lenet_300_100().finalize(payload.seed)
        engine = RegeneratingInferenceEngine(device_model, payload)

        # --- "server side": registry + dynamic batching ----------------
        registry = ModelRegistry(byte_budget=4 << 20)
        digest = registry.register("lenet-300-100", lenet_300_100, ckpt)

    x = test.images[:256]
    preds = engine.predict(x)
    acc = float((preds == test.labels[:256]).mean())
    traffic = engine.last_traffic

    model.eval()
    with no_grad():
        dense_logits = model(Tensor(x[: traffic and 256])).numpy()
    dense_preds = dense_logits.argmax(axis=-1)
    print(f"\ndevice accuracy on 256 samples: {acc:.4f} "
          f"(matches dense model: {bool(np.array_equal(preds, dense_preds))})")

    em = EnergyModel()
    engine_pj = em.report(traffic.as_counter()).total_pj
    dense_pj = em.report(
        AccessCounter(weight_reads=model.num_parameters(), steps=1)
    ).total_pj
    print(f"stored weights on device: {engine.storage_floats():,} of "
          f"{model.num_parameters():,}")
    print(f"per-pass weight traffic: {traffic.tracked_fetches:,} fetches + "
          f"{traffic.regenerations:,} regenerations")
    print(f"peak resident weights (streaming): {traffic.peak_resident_weights:,}")
    print(f"weight energy per pass: {engine_pj / 1e6:.1f} uJ vs dense "
          f"{dense_pj / 1e6:.1f} uJ ({format_ratio(dense_pj / engine_pj)} less)")

    # --- serving: concurrent clients, batched forwards -----------------
    print(f"\nserving checkpoint {digest[:12]} through the dynamic batcher ...")
    with InferenceServer(registry, max_batch_size=8, max_wait_ms=2.0) as server:
        futures = [server.submit(digest, x[i]) for i in range(64)]
        served = np.stack([f.result(timeout=30.0) for f in futures])
        stats = server.stats
    served_preds = served.argmax(axis=-1)
    info = registry.describe(digest)
    print(f"64 concurrent requests -> {stats.batches} batched forward(s), "
          f"mean batch size {stats.mean_batch_size:.1f}")
    print(f"served predictions match dense model: "
          f"{bool(np.array_equal(served_preds, dense_preds[:64]))}")
    print(f"registry: sparse payload {info['sparse_bytes']:,} B pinned, "
          f"plane {info['plane_bytes']:,} B resident (LRU-evictable)")


if __name__ == "__main__":
    main()
