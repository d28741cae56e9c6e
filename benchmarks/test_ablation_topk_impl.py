"""Ablation — top-k implementation: argpartition sort vs priority queue.

Paper Section 2.2: the listing sorts for clarity, but "in a practical
implementation the tracked accumulated gradient set is stored [in] a
priority queue of size k".  Both are implemented (``top_k_mask`` and the
pure-Python ``select_scan``); they select identical sets on distinct
scores, and this bench compares their software cost (the vectorized
argpartition wins on CPU; the scan models the streaming hardware access
pattern).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import select_scan, top_k_mask
from repro.utils import format_table

from common import emit_report, profiled_run

N = 89_610  # MNIST-100-100 size
K = 2_000


@pytest.fixture(scope="module")
def scores():
    return np.random.default_rng(0).normal(size=N)


def test_selectors_agree(scores, benchmark):
    sort_mask = top_k_mask(scores, K)
    heap_mask = select_scan(scores, K)
    np.testing.assert_array_equal(sort_mask, heap_mask)

    emit_report(
        "ablation_topk_impl",
        "Top-k selector equivalence (paper Section 2.2)\n"
        + format_table(
            ["selector", "selected", "agrees"],
            [
                ["argpartition (sort)", int(sort_mask.sum()), "-"],
                ["size-k priority queue", int(heap_mask.sum()), "yes"],
            ],
        ),
    )
    benchmark.pedantic(lambda: top_k_mask(scores, K), rounds=10, iterations=1)


def test_benchmark_sort_selector(scores, benchmark):
    benchmark.pedantic(lambda: top_k_mask(scores, K), rounds=10, iterations=1)


def test_perf_report_emitted(scores):
    """Profile a selector sweep and emit the machine-readable perf JSON.

    This is the artifact the CI bench-smoke job uploads and that
    ``scripts/check_perf_report.py`` diffs against a baseline.
    """
    from repro import profile

    def sweep():
        with profile.profiled("selector.sort"):
            top_k_mask(scores, K)
        with profile.profiled("selector.heap"):
            select_scan(scores, K)

    report = profiled_run(
        "ablation_topk_impl", sweep, meta={"n": N, "k": K, "bench": "ablation_topk_impl"}
    )
    assert report.ops["selector.sort"].calls == 1
    assert report.ops["selector.heap"].calls == 1


def test_benchmark_heap_selector(scores, benchmark):
    benchmark.pedantic(lambda: select_scan(scores, K), rounds=3, iterations=1)
