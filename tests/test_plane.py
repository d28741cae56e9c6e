"""Properties of the flat weight plane built by ``Module.finalize``.

Every parameter's ``data`` must be a zero-copy view into the model's
``weight_plane``; assignments write *through* the view, and one that
cannot broadcast raises instead of breaking the aliasing invariant; and
the invariant must survive optimizer steps, plane re-homing and checkpoint
save/load round trips without silent copies.  Once ``grad_plane`` is in
use, every ``grad`` is a write-through view of it in the same way.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DropBack
from repro.io import (
    apply_sparse_payload,
    load_dense,
    load_sparse,
    save_dense,
    save_sparse,
    sparse_payload,
)
from repro.models import lenet_300_100, mlp
from repro.optim import SGD
from repro.parallel import adopt_plane
from repro.tensor import Tensor, cross_entropy, no_grad


def _model(seed=3):
    return mlp(6, (8,), 3).finalize(seed)


def _assert_plane_aliased(model):
    plane = model.weight_plane
    assert plane is not None
    assert plane.size == model.num_parameters()
    for name, p in model.named_parameters():
        assert p.plane_backed, name
        assert np.shares_memory(p.data, plane), name
        np.testing.assert_array_equal(
            plane[p.base_index : p.base_index + p.size], p.data.reshape(-1), err_msg=name
        )


def _backward(model, step_seed=0):
    rng = np.random.default_rng(step_seed)
    x = Tensor(rng.normal(size=(16, 6)).astype(np.float32))
    y = rng.integers(0, 3, size=16)
    model.zero_grad()
    cross_entropy(model(x), y).backward()


class TestPlaneConstruction:
    def test_finalize_builds_aliased_plane(self):
        _assert_plane_aliased(_model())

    def test_plane_mutation_visible_in_views(self):
        m = _model()
        p = m.parameters()[0]
        m.weight_plane[p.base_index] = 42.0
        assert p.data.reshape(-1)[0] == 42.0

    def test_view_mutation_visible_in_plane(self):
        m = _model()
        p = m.parameters()[-1]
        p.data[...] = 7.0
        np.testing.assert_array_equal(
            m.weight_plane[p.base_index : p.base_index + p.size], 7.0
        )

    def test_refinalize_rebuilds_plane(self):
        m = _model(seed=3)
        old_plane = m.weight_plane
        m.finalize(4)
        assert m.weight_plane is not old_plane
        _assert_plane_aliased(m)


class TestWriteThrough:
    def test_assignment_writes_through(self):
        m = _model()
        p = m.parameters()[0]
        view = p.data
        p.data = np.full(p.shape, 1.5, dtype=np.float32)
        assert p.data is view  # still the same plane view
        np.testing.assert_array_equal(
            m.weight_plane[p.base_index : p.base_index + p.size], 1.5
        )

    def test_scalar_broadcast_writes_through(self):
        m = _model()
        p = m.parameters()[0]
        view = p.data
        p.data = 0.0
        assert p.data is view
        assert not p.data.any()

    def test_incompatible_shape_raises(self):
        m = _model()
        p = m.parameters()[0]
        view = p.data
        plane_before = m.weight_plane.tobytes()
        with pytest.raises(ValueError, match=r"shape \(49,\).*base_index=0.*\(8, 6\)"):
            p.data = np.ones(p.size + 1, dtype=np.float32)
        assert p.data is view and p.plane_backed
        assert m.weight_plane.tobytes() == plane_before

    def test_state_dict_does_not_alias_plane(self):
        m = _model()
        for name, arr in m.state_dict().items():
            assert not np.shares_memory(arr, m.weight_plane), name

    def test_load_state_dict_keeps_views(self):
        m1, m2 = _model(seed=3), _model(seed=9)
        m2.load_state_dict(m1.state_dict())
        _assert_plane_aliased(m2)
        np.testing.assert_array_equal(m2.weight_plane, m1.weight_plane)


class TestGradientPlane:
    def test_backward_writes_into_the_plane(self):
        m, fresh = _model(), _model()
        plane = m.grad_plane
        _backward(m)
        _backward(fresh)  # no gradient plane: plain per-parameter arrays
        for (name, p), q in zip(m.named_parameters(), fresh.parameters()):
            span = plane[p.base_index : p.base_index + p.size]
            assert np.shares_memory(p.grad, span), name
            assert span.tobytes() == q.grad.tobytes(), name

    def test_assignment_writes_through_and_none_zeroes(self):
        m = _model()
        plane = m.grad_plane
        _backward(m)
        p = m.parameters()[0]
        span = plane[p.base_index : p.base_index + p.size]
        p.grad = np.full(p.shape, 2.5, dtype=np.float32)
        assert np.shares_memory(p.grad, span)
        np.testing.assert_array_equal(span, 2.5)
        p.grad = None
        assert p.grad is None
        assert not span.any()

    def test_negative_zero_leaf_gradient_keeps_its_sign(self):
        m = _model()
        plane = m.grad_plane
        p = m.parameters()[0]
        (p * np.float32(-0.0)).sum().backward()
        span = plane[p.base_index : p.base_index + p.size]
        assert not span.any() and np.signbit(span).all()

    def test_gradient_set_before_first_use_is_carried_in(self):
        m = _model()
        _backward(m)
        first, last = m.parameters()[0], m.parameters()[-1]
        expect = first.grad.copy()
        last.grad = None
        plane = m.grad_plane
        span = plane[first.base_index : first.base_index + first.size]
        assert np.shares_memory(first.grad, span)
        np.testing.assert_array_equal(span, expect.reshape(-1))
        assert last.grad is None
        assert not plane[last.base_index : last.base_index + last.size].any()

    def test_serving_model_never_allocates_a_gradient_plane(self):
        m = _model()
        opt = DropBack(m, k=9, lr=0.3)
        _backward(m)
        opt.step()
        served = apply_sparse_payload(mlp(6, (8,), 3), sparse_payload(m, opt))
        with no_grad():
            served(Tensor(np.ones((2, 6), dtype=np.float32)))
        assert served._grad_plane is None

    def test_dropback_state_at_most_16_bytes_per_weight(self):
        """DropBack keeps W(0), the candidates, float32 scores and three
        masks over the plane: 15 bytes per weight, gradients not included
        (they are the model's ``grad_plane``)."""
        m = lenet_300_100().finalize(0)
        m.grad_plane
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt = DropBack(m, k=20_000, lr=0.4)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert opt.k == 20_000
        assert held / m.num_parameters() <= 16.0


class TestOptimizersPreserveAliasing:
    def test_sgd_steps_keep_views(self):
        m = _model()
        opt = SGD(m, lr=0.1, momentum=0.5)
        views = [p.data for p in m.parameters()]
        for s in range(3):
            _backward(m, s)
            opt.step()
        assert all(p.data is v for p, v in zip(m.parameters(), views))
        _assert_plane_aliased(m)

    def test_dropback_steps_keep_views(self):
        m = _model()
        opt = DropBack(m, k=9, lr=0.3)
        views = [p.data for p in m.parameters()]
        for s in range(4):
            _backward(m, s)
            if s == 2:
                opt.freeze()
            opt.step()
        assert all(p.data is v for p, v in zip(m.parameters(), views))
        _assert_plane_aliased(m)

    def test_optimizer_exposes_plane(self):
        m = _model()
        assert SGD(m, lr=0.1).weight_plane is m.weight_plane

    def test_dropback_follows_adopted_plane(self):
        """The step reads ``model.weight_plane`` on each call, so it writes
        to the buffer the plane was moved to, with no further call."""
        m1, m2 = _model(seed=5), _model(seed=5)
        o1, o2 = DropBack(m1, k=9, lr=0.3), DropBack(m2, k=9, lr=0.3)
        moved = m2.weight_plane.copy()
        adopt_plane(m2, moved)
        for s in range(4):
            _backward(m1, s)
            _backward(m2, s)
            if s == 2:
                o1.freeze()
                o2.freeze()
            o1.step()
            o2.step()
        assert m2.weight_plane is moved
        np.testing.assert_array_equal(moved, m1.weight_plane)
        _assert_plane_aliased(m2)


class TestCheckpointRoundTrips:
    def test_dense_round_trip_keeps_views(self, tmp_path):
        m = _model()
        _backward(m)
        SGD(m, lr=0.1).step()
        path = str(tmp_path / "dense.npz")
        save_dense(m, path)
        m2 = load_dense(mlp(6, (8,), 3).finalize(0), path)
        _assert_plane_aliased(m2)
        for pa, pb in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    @given(seed=st.integers(0, 2**16), k=st.integers(1, 40), steps=st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_sparse_round_trip_keeps_views(self, tmp_path_factory, seed, k, steps):
        m = mlp(6, (8,), 3).finalize(seed)
        opt = DropBack(m, k=k, lr=0.3)
        for s in range(steps):
            _backward(m, s)
            opt.step()
        path = str(tmp_path_factory.mktemp("ckpt") / "sparse.npz")
        save_sparse(m, opt, path)
        m2 = load_sparse(mlp(6, (8,), 3), path)
        _assert_plane_aliased(m2)
        for (name, pa), (_, pb) in zip(m.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestHistoryBounding:
    def test_default_keeps_full_history(self):
        """``swap_history`` keeps every step's churn (Fig. 2 reads all of it)."""
        m = _model()
        opt = DropBack(m, k=9, lr=0.3)
        for s in range(5):
            _backward(m, s)
            opt.step()
        assert len(opt.swap_history) == 5
