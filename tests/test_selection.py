"""Tests for top-k selection strategies."""

import numpy as np
import pytest

from repro.core import HeapSelector, top_k_mask


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
    def test_heap_selector_basic(self):
        scores = np.array([3.0, 1.0, 2.0])
        mask = HeapSelector().select(scores, 2)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_heap_matches_sort_on_distinct_scores(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            scores = rng.permutation(np.linspace(0, 1, 300))  # all distinct
            k = int(rng.integers(1, 299))
            np.testing.assert_array_equal(
                HeapSelector().select(scores, k), top_k_mask(scores, k)
            )

    def test_heap_edge_cases(self):
        scores = np.arange(5.0)
        assert not HeapSelector().select(scores, 0).any()
        assert HeapSelector().select(scores, 5).all()
        assert HeapSelector().select(scores, 10).all()

    def test_both_select_exactly_k(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=100)
        assert top_k_mask(scores, 17).sum() == 17
        assert HeapSelector().select(scores, 17).sum() == 17


class TestHeapFastPath:
    """HeapSelector.select (argpartition + threshold scan) must reproduce
    the streaming scan exactly, index-order tie-breaking included."""

    def test_matches_scan_on_crafted_ties(self):
        sel = HeapSelector()
        cases = [
            (np.array([1.0, 2.0, 2.0, 2.0, 0.5, 2.0, 3.0]), 3),
            (np.zeros(10), 4),  # all tied
            (np.array([5.0, 1.0, 1.0, 1.0, 1.0, 5.0]), 4),
            (np.array([1.0, 1.0, 1.0]), 2),
        ]
        for scores, k in cases:
            np.testing.assert_array_equal(
                sel.select(scores, k), sel.select_scan(scores, k), err_msg=f"k={k}"
            )

    @pytest.mark.parametrize("chunk_size", [7, 64, 1 << 16])
    def test_matches_scan_fuzzed(self, chunk_size):
        sel = HeapSelector(chunk_size=chunk_size)
        rng = np.random.default_rng(4)
        for trial in range(40):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(1, n + 1))
            if trial % 2:
                scores = rng.integers(0, 5, size=n).astype(float)  # heavy ties
            else:
                scores = rng.normal(size=n)
            np.testing.assert_array_equal(
                sel.select(scores, k),
                sel.select_scan(scores, k),
                err_msg=f"n={n} k={k} chunk={chunk_size}",
            )

    def test_chunked_threshold_exact(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=1000)
        chunked = HeapSelector(chunk_size=100)
        np.testing.assert_array_equal(
            chunked.select(scores, 123), HeapSelector().select(scores, 123)
        )

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            HeapSelector(chunk_size=0)


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
