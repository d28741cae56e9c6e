"""Extension — inference with on-the-fly regeneration.

The accelerator story behind the paper's Section 1 claims, measured: run
the trained DropBack model through the streaming inference engine and
compare weight traffic and energy per forward pass against dense inference,
verifying bit-exactness along the way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DropBack
from repro.energy import EnergyModel
from repro.infer import RegeneratingInferenceEngine
from repro.io import sparse_payload
from repro.models import mnist_100_100
from repro.optim.base import AccessCounter
from repro.tensor import Tensor, no_grad
from repro.utils import format_ratio, format_table

from common import SCALE, budget_for_ratio, emit_report, mnist_data, train_run


@pytest.fixture(scope="module")
def engine_setup():
    data = mnist_data()
    model = mnist_100_100().finalize(42)
    opt = DropBack(model, k=budget_for_ratio(model, 10.0), lr=SCALE.lr)
    train_run(model, opt, data, epochs=max(2, SCALE.mnist_epochs // 2), lr=SCALE.lr)
    engine = RegeneratingInferenceEngine(model, sparse_payload(model, opt))
    return model, opt, engine, data[1]


def test_ext_inference_report(engine_setup, benchmark):
    model, opt, engine, test = engine_setup
    em = EnergyModel()
    x = test.images[:64]

    out = engine.forward(x)
    t = engine.last_traffic
    dense_counter = AccessCounter(weight_reads=model.num_parameters(), steps=1)
    dense_pj = em.report(dense_counter).total_pj
    engine_pj = em.report(t.as_counter()).total_pj

    model.eval()
    with no_grad():
        dense_out = model(Tensor(x)).numpy().copy()
    model.train()
    exact = bool(np.array_equal(out, dense_out))

    table = format_table(
        ["metric", "dense inference", "regenerating engine"],
        [
            ["stored weights", f"{model.num_parameters():,}", f"{engine.storage_floats():,}"],
            ["weight fetches / pass", f"{model.num_parameters():,}", f"{t.tracked_fetches:,}"],
            ["regenerations / pass", "0", f"{t.regenerations:,}"],
            [
                "peak resident weights",
                f"{model.num_parameters():,}",
                f"{t.peak_resident_weights:,}",
            ],
            ["weight energy / pass", f"{dense_pj / 1e6:.1f} uJ", f"{engine_pj / 1e6:.1f} uJ"],
            ["energy saving", "-", format_ratio(dense_pj / engine_pj)],
            ["outputs bit-exact", "-", str(exact)],
        ],
    )
    emit_report("ext_inference", "Regenerating inference engine\n" + table)

    benchmark.pedantic(lambda: engine.forward(x), rounds=3, iterations=1, warmup_rounds=1)

    assert exact
    assert engine_pj < dense_pj / 3
