"""Properties of the flat weight plane built by ``Module.finalize``.

Every parameter's ``data`` must be a zero-copy view into the model's
``weight_plane``; assignments write *through* the view, and one that
cannot broadcast raises instead of breaking the aliasing invariant; and
the invariant must survive optimizer steps, plane re-homing and checkpoint
save/load round trips without silent copies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DropBack
from repro.io import load_dense, load_sparse, save_dense, save_sparse
from repro.models import mlp
from repro.optim import SGD
from repro.parallel import adopt_plane
from repro.tensor import Tensor, cross_entropy


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
        """The step slices ``model.weight_plane`` each call, so it writes
        to the buffer the plane was moved to, with no ``rebind_plane``."""
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
    def test_invalid_history_limit(self):
        with pytest.raises(ValueError):
            DropBack(_model(), k=5, lr=0.1, history_limit=0)

    def test_default_keeps_full_history(self):
        m = _model()
        opt = DropBack(m, k=9, lr=0.3)
        for s in range(5):
            _backward(m, s)
            opt.step()
        assert len(opt.swap_history) == 5

    def test_limit_keeps_most_recent_and_total(self):
        m1, m2 = _model(seed=5), _model(seed=5)
        full = DropBack(m1, k=9, lr=0.3)
        bounded = DropBack(m2, k=9, lr=0.3, history_limit=3)
        for s in range(6):
            _backward(m1, s)
            _backward(m2, s)
            full.step()
            bounded.step()
        assert bounded.swap_history == full.swap_history[-3:]
        assert bounded.total_swaps == sum(full.swap_history) == full.total_swaps
