"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import select_scan, top_k_mask
from repro.init import ConstantInit, ScaledNormalInit
from repro.init.xorshift import normal_at, uniform_at, xorshift_at
from repro.tensor import Tensor, log_softmax, unbroadcast


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


class TestTopKProperties:
    @given(
        scores=arrays(np.float64, st.integers(1, 200), elements=finite_floats),
        k=st.integers(0, 250),
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_cardinality(self, scores, k):
        mask = top_k_mask(scores, k)
        assert mask.sum() == min(k, scores.size)

    @given(
        scores=arrays(np.float64, st.integers(2, 100), elements=finite_floats),
        k=st.integers(1, 99),
    )
    @settings(max_examples=60, deadline=None)
    def test_selected_dominate_unselected(self, scores, k):
        k = min(k, scores.size)
        mask = top_k_mask(scores, k)
        if mask.all():
            return
        assert scores[mask].min() >= scores[~mask].max()

    @given(seed=st.integers(0, 2**31), n=st.integers(1, 150), k=st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_heap_equals_sort_for_distinct_scores(self, seed, n, k):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(np.arange(n, dtype=np.float64))
        np.testing.assert_array_equal(select_scan(scores, k), top_k_mask(scores, k))


class TestXorshiftProperties:
    @given(seed=st.integers(0, 2**62), idx=st.integers(0, 2**40))
    @settings(max_examples=80, deadline=None)
    def test_stateless_purity(self, seed, idx):
        a = xorshift_at(seed, np.array([idx]))
        b = xorshift_at(seed, np.array([idx]))
        assert a[0] == b[0]

    @given(seed=st.integers(0, 2**32), start=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_block_decomposition(self, seed, start):
        """Regenerating [start, start+20) equals regenerating the two halves."""
        whole = normal_at(seed, np.arange(start, start + 20))
        left = normal_at(seed, np.arange(start, start + 10))
        right = normal_at(seed, np.arange(start + 10, start + 20))
        np.testing.assert_array_equal(whole, np.concatenate([left, right]))

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_uniform_bounds(self, seed):
        u = uniform_at(seed, np.arange(500))
        assert u.min() >= 0.0 and u.max() < 1.0


class TestInitializerProperties:
    @given(
        seed=st.integers(0, 2**32),
        base=st.integers(0, 10**6),
        std=st.floats(min_value=1e-3, max_value=10, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_regenerate_is_idempotent(self, seed, base, std):
        init = ScaledNormalInit(std)
        a = init.regenerate(seed, base, (7, 3))
        b = init.regenerate(seed, base, (7, 3))
        np.testing.assert_array_equal(a, b)

    @given(value=st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_constant_everywhere(self, value):
        out = ConstantInit(value).regenerate(0, 0, (11,))
        assert np.all(out == np.float32(value))


class TestUnbroadcastProperties:
    @given(
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        batch=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_gradient_sum_preserved(self, rows, cols, batch):
        """Unbroadcasting preserves the total gradient mass."""
        g = np.ones((batch, rows, cols))
        out = unbroadcast(g, (rows, cols))
        assert out.sum() == g.sum()

    @given(shape=st.sampled_from([(3,), (2, 3), (1, 3), (2, 1), (1, 1), ()]))
    @settings(max_examples=20, deadline=None)
    def test_output_shape_contract(self, shape):
        g = np.ones((4, 2, 3)) if shape != () else np.ones((2, 2))
        try:
            out = unbroadcast(g, shape)
        except Exception:
            # only shapes broadcastable to g are valid inputs
            np.broadcast_shapes(shape, g.shape)
            raise
        assert out.shape == shape


class TestAutogradProperties:
    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(2, 5)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_rows_normalize(self, data):
        out = log_softmax(Tensor(data)).numpy()
        np.testing.assert_allclose(np.exp(out).sum(axis=-1), 1.0, rtol=1e-8)

    @given(
        data=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 5)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_relu_grad_is_indicator(self, data):
        t = Tensor(data, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_array_equal(t.grad, (data > 0).astype(np.float64))

    @given(
        a=arrays(np.float64, (3, 4), elements=finite_floats),
        b=arrays(np.float64, (3, 4), elements=finite_floats),
    )
    @settings(max_examples=40, deadline=None)
    def test_addition_gradient_distributes(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        np.testing.assert_array_equal(ta.grad, np.ones_like(a))
        np.testing.assert_array_equal(tb.grad, np.ones_like(b))


class TestDropBackProperties:
    @given(k=st.integers(1, 120), seed=st.integers(0, 1000), lr=st.floats(0.01, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_budget_never_exceeded(self, k, seed, lr):
        from repro.core import DropBack
        from repro.models import mlp
        from repro.tensor import cross_entropy

        m = mlp(5, (6,), 3).finalize(seed)
        opt = DropBack(m, k=k, lr=lr)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = Tensor(rng.normal(size=(8, 5)).astype(np.float32))
            y = rng.integers(0, 3, size=8)
            m.zero_grad()
            cross_entropy(m(x), y).backward()
            opt.step()
            diff = 0
            for p in m.parameters():
                diff += int(np.count_nonzero(p.data != p.initial_values(seed)))
            assert diff <= k
