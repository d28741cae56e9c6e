"""Tests for top-k selection."""

import numpy as np
import pytest

from repro.core import select_scan, top_k_mask


class TestTopKMask:
    def test_selects_largest(self):
        scores = np.array([0.1, 5.0, 0.3, 4.0, 0.2])
        mask = top_k_mask(scores, 2)
        np.testing.assert_array_equal(mask, [False, True, False, True, False])

    def test_k_zero(self):
        assert not top_k_mask(np.arange(5.0), 0).any()

    def test_k_equals_n(self):
        assert top_k_mask(np.arange(5.0), 5).all()

    def test_k_exceeds_n(self):
        assert top_k_mask(np.arange(5.0), 50).all()

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            top_k_mask(np.arange(3.0), -1)

    def test_exactly_k_selected(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=1000)
        for k in (1, 10, 500, 999):
            assert top_k_mask(scores, k).sum() == k

    def test_threshold_property(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=200)
        mask = top_k_mask(scores, 50)
        assert scores[mask].min() >= scores[~mask].max()


class TestSelectors:
    """select_scan is the paper's streaming queue; on distinct scores it
    selects the same set as top_k_mask."""

    def test_heap_selector_basic(self):
        scores = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(select_scan(scores, 2), [True, False, True])

    def test_heap_matches_sort_on_distinct_scores(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            scores = rng.permutation(np.linspace(0, 1, 300))  # all distinct
            k = int(rng.integers(1, 299))
            np.testing.assert_array_equal(select_scan(scores, k), top_k_mask(scores, k))

    def test_heap_edge_cases(self):
        scores = np.arange(5.0)
        assert not select_scan(scores, 0).any()
        assert select_scan(scores, 5).all()
        assert select_scan(scores, 10).all()

    def test_both_select_exactly_k(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=100)
        assert top_k_mask(scores, 17).sum() == 17
        assert select_scan(scores, 17).sum() == 17

    def test_scan_tie_rule(self):
        # A tie never evicts (index 5 stays out); a larger score evicts the
        # lowest-index tie in the heap (index 1 leaves for index 6).
        scores = np.array([1.0, 2.0, 2.0, 2.0, 0.5, 2.0, 3.0])
        np.testing.assert_array_equal(
            select_scan(scores, 3), [False, False, True, True, False, False, True]
        )


class TestFloat32Selection:
    """DropBack selects on its float32 scores; the float64 reference step
    selects on float64 ones.  The upcast is exact and keeps the order, but
    which tied entries argpartition keeps at the cut is numpy's choice, so
    training keeps its bits only while that choice does not depend on the
    dtype.  Heavy-tie vectors, where ties straddle the cut, check it."""

    def test_float32_mask_equals_float64_mask_under_heavy_ties(self):
        rng = np.random.default_rng(6)
        straddled = 0
        for trial in range(300):
            n = int(np.exp(rng.uniform(np.log(1_000), np.log(300_000))))
            levels = int(rng.integers(2, max(3, n // 8)))
            s32 = (rng.integers(0, levels, size=n) * np.float32(0.37)).astype(np.float32)
            k = int(rng.integers(1, n))
            m32 = top_k_mask(s32, k)
            m64 = top_k_mask(s32.astype(np.float64), k)
            np.testing.assert_array_equal(m32, m64, err_msg=f"trial={trial} n={n} k={k}")
            cut = s32[m32].min()
            straddled += bool((s32[~m32] == cut).any())
        assert straddled > 250  # the ties really do fall on both sides


class TestSelectInto:
    def test_top_k_mask_out(self):
        scores = np.array([0.1, 5.0, 0.3, 4.0, 0.2])
        out = np.ones(5, dtype=bool)
        result = top_k_mask(scores, 2, out=out)
        assert result is out
        np.testing.assert_array_equal(out, [False, True, False, True, False])

    def test_top_k_mask_out_edge_k(self):
        out = np.zeros(5, dtype=bool)
        assert top_k_mask(np.arange(5.0), 7, out=out).all()
        assert not top_k_mask(np.arange(5.0), 0, out=out).any()
