"""Sparse backend: packing, dispatch, parity across densities, DropBack parity.

The contract under test (``docs/sparse.md``): registered or transiently
packed operands run through CSR and match ``reference`` to float
tolerance; anything above the density cutoff is delegated verbatim to
``fast`` and is therefore *bit-exact* with it; pack construction is
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DropBack
from repro.models import mlp
from repro.tensor import Tensor, cross_entropy, gradcheck, kernels
from repro.tensor.kernels import fast as fast_mod
from repro.tensor.kernels import registry
from repro.tensor.kernels import sparse

pytestmark = pytest.mark.skipif(
    not sparse.is_available(), reason="scipy.sparse unavailable"
)

RNG = np.random.default_rng(20260808)

#: The density sweep the issue gates on (benchmarks/common.py mirrors it).
DENSITIES = (0.01, 0.05, 0.25, 0.9)

GEMM_RTOL = 2e-5
GEMM_ATOL = 1e-6


def _sparse_matrix(shape, density, rng=RNG):
    mask = rng.random(shape) < density
    return (rng.standard_normal(shape) * mask).astype(np.float32)


@pytest.fixture(autouse=True)
def _clean_sparse_state():
    """No pack or cutoff state may leak between tests."""
    yield
    sparse.invalidate_all()
    sparse.set_density_cutoff(None)


# --------------------------------------------------------------------- #
# pack construction
# --------------------------------------------------------------------- #


class TestPackConstruction:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_pack_from_indices_bitwise_matches_pack_dense(self, transpose):
        w = _sparse_matrix((12, 9), 0.2)
        flat = np.flatnonzero(w.ravel())
        from_idx = sparse.pack_from_indices(
            w.shape, flat, w.ravel()[flat], transpose=transpose
        )
        from_dense = sparse.pack_dense(w, transpose=transpose)
        np.testing.assert_array_equal(from_idx.matrix.indptr, from_dense.matrix.indptr)
        np.testing.assert_array_equal(from_idx.matrix.indices, from_dense.matrix.indices)
        np.testing.assert_array_equal(from_idx.matrix.data, from_dense.matrix.data)
        assert from_idx.shape == from_dense.shape

    def test_pack_properties(self):
        w = _sparse_matrix((10, 10), 0.1)
        pack = sparse.pack_dense(w)
        assert pack.nnz == np.count_nonzero(w)
        assert pack.density == pytest.approx(pack.nnz / 100)
        assert pack.nbytes > 0

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            sparse.pack_from_indices((4, 4), np.array([16]), np.array([1.0]))

    def test_misaligned_values_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            sparse.pack_from_indices((4, 4), np.array([0, 1]), np.array([1.0]))

    def test_values_or_base_required(self):
        with pytest.raises(ValueError, match="values or a base"):
            sparse.pack_from_indices((4, 4), np.array([0]))

    def test_pack_dense_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            sparse.pack_dense(np.zeros((2, 2, 2), dtype=np.float32))


# --------------------------------------------------------------------- #
# density cutoff + auto-dispatch
# --------------------------------------------------------------------- #


class TestDensityCutoff:
    def test_default(self):
        sparse.set_density_cutoff(None)
        assert sparse.density_cutoff() == sparse.DEFAULT_DENSITY_CUTOFF

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_DENSITY_CUTOFF", "0.5")
        sparse.set_density_cutoff(None)  # drop the cached value, re-read env
        assert sparse.density_cutoff() == 0.5

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_DENSITY_CUTOFF", "nope")
        sparse.set_density_cutoff(None)
        with pytest.raises(ValueError, match="DENSITY_CUTOFF"):
            sparse.density_cutoff()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sparse.set_density_cutoff(1.5)

    def test_above_cutoff_matmul_bit_exact_with_fast(self):
        # The fallback literally runs the fast kernel: bitwise equality.
        a = RNG.standard_normal((32, 24)).astype(np.float32)
        b = RNG.standard_normal((24, 16)).astype(np.float32)  # density 1.0
        np.testing.assert_array_equal(sparse.matmul(a, b), fast_mod.matmul(a, b))

    def test_above_cutoff_conv_bit_exact_with_fast(self):
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = RNG.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = RNG.standard_normal(4).astype(np.float32)
        g = RNG.standard_normal((2, 4, 6, 6)).astype(np.float32)
        out_s, ctx_s = sparse.conv2d_forward(x, w, b, 1, 1, 6, 6)
        out_f, ctx_f = fast_mod.conv2d_forward(x, w, b, 1, 1, 6, 6)
        np.testing.assert_array_equal(out_s, out_f)
        # The fallback ctx is fast-layout; the sparse backward must route it
        # to the fast backward, bitwise.
        for got, want in zip(
            sparse.conv2d_backward(g, ctx_s, True, True, True),
            fast_mod.conv2d_backward(g, ctx_f, True, True, True),
        ):
            np.testing.assert_array_equal(got, want)

    def test_cutoff_moves_the_dispatch_boundary(self):
        b = _sparse_matrix((40, 30), 0.5)
        a = RNG.standard_normal((8, 40)).astype(np.float32)
        sparse.set_density_cutoff(0.0)  # nothing auto-packs
        np.testing.assert_array_equal(sparse.matmul(a, b), fast_mod.matmul(a, b))
        sparse.set_density_cutoff(1.0)  # everything auto-packs
        np.testing.assert_allclose(
            sparse.matmul(a, b), fast_mod.matmul(a, b), rtol=GEMM_RTOL, atol=GEMM_ATOL
        )


# --------------------------------------------------------------------- #
# parity + gradcheck across the density grid (sanitized)
# --------------------------------------------------------------------- #


class TestParityAcrossDensities:
    @pytest.mark.parametrize("density", DENSITIES)
    def test_matmul_matches_reference(self, density, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ref = registry._KERNELS["matmul"]["reference"]
        b = _sparse_matrix((48, 32), density)
        a = RNG.standard_normal((8, 48)).astype(np.float32)
        np.testing.assert_allclose(
            sparse.matmul(a, b), ref(a, b), rtol=GEMM_RTOL, atol=GEMM_ATOL
        )

    @pytest.mark.parametrize("density", DENSITIES)
    def test_matvec_matches_reference(self, density):
        ref = registry._KERNELS["matmul"]["reference"]
        b = _sparse_matrix((48, 32), density)
        a = RNG.standard_normal(48).astype(np.float32)
        np.testing.assert_allclose(
            sparse.matmul(a, b), ref(a, b), rtol=GEMM_RTOL, atol=GEMM_ATOL
        )

    @pytest.mark.parametrize("density", DENSITIES)
    def test_conv_forward_backward_match_reference(self, density, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ref_fwd = registry._KERNELS["conv2d_forward"]["reference"]
        ref_bwd = registry._KERNELS["conv2d_backward"]["reference"]
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = _sparse_matrix((4, 3 * 3 * 3), density).reshape(4, 3, 3, 3)
        b = RNG.standard_normal(4).astype(np.float32)
        g = RNG.standard_normal((2, 4, 6, 6)).astype(np.float32)
        out_s, ctx_s = sparse.conv2d_forward(x, w, b, 1, 1, 6, 6)
        out_r, ctx_r = ref_fwd(x, w, b, 1, 1, 6, 6)
        np.testing.assert_allclose(out_s, out_r, rtol=GEMM_RTOL, atol=GEMM_ATOL)
        for got, want in zip(
            sparse.conv2d_backward(g, ctx_s, True, True, True),
            ref_bwd(g, ctx_r, True, True, True),
        ):
            np.testing.assert_allclose(got, want, rtol=GEMM_RTOL, atol=1e-4)

    @pytest.mark.parametrize("density", DENSITIES)
    def test_gradcheck_matmul(self, density, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        a = Tensor(RNG.standard_normal((4, 6)), requires_grad=True)
        b_data = _sparse_matrix((6, 3), density).astype(np.float64)
        b_data[0, 0] = 0.5  # at least one nonzero, so the loss has signal
        b = Tensor(b_data, requires_grad=True)
        with kernels.use_backend("sparse"):
            gradcheck(lambda: ((a @ b) ** 2).sum(), (a, b))

    def test_model_level_conv_net_forward_parity(self):
        from repro import nn

        def build():
            return nn.Sequential(
                nn.Conv2d(2, 4, 3, padding=1),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(4 * 3 * 3, 5),
            ).finalize(seed=11)

        x_data = RNG.standard_normal((3, 2, 6, 6)).astype(np.float32)
        outs = {}
        for backend in ("reference", "sparse"):
            model = build()
            # 95% of every weight at exactly zero: the frozen zero_untracked
            # regime's shape, reached here by masking instead of training.
            mask_rng = np.random.default_rng(3)
            for p in model.parameters():
                if p.data.ndim >= 2:
                    p.data *= (mask_rng.random(p.data.shape) < 0.05)
            model.eval()
            with kernels.use_backend(backend):
                outs[backend] = model(Tensor(x_data)).numpy()
        np.testing.assert_allclose(
            outs["sparse"], outs["reference"], rtol=GEMM_RTOL, atol=GEMM_ATOL
        )


# --------------------------------------------------------------------- #
# registered packs: keying, staleness, invalidation
# --------------------------------------------------------------------- #


class TestRegisteredPacks:
    def test_both_orientations_registered_for_2d(self):
        w = _sparse_matrix((8, 6), 0.2)
        keys = sparse.register_weight(w)
        assert len(keys) == 2
        assert sparse.registered_pack_count() == 2
        assert sparse.invalidate(keys) == 2
        assert sparse.registered_pack_count() == 0

    def test_registered_pack_wins_regardless_of_density(self):
        # A dense registered weight still runs packed: registration is the
        # caller asserting sparsity knowledge the per-call probe lacks.
        w = RNG.standard_normal((8, 6)).astype(np.float32)
        sparse.register_weight(w, np.arange(48, dtype=np.int64))
        out = sparse.matmul(np.eye(6, dtype=np.float32), w.T)
        np.testing.assert_allclose(out, w.T, rtol=GEMM_RTOL, atol=GEMM_ATOL)

    def test_registered_pack_is_a_snapshot(self):
        w = np.zeros((8, 6), dtype=np.float32)
        flat = np.array([0, 7, 13, 25, 41], dtype=np.int64)
        w.reshape(-1)[flat] = 1.0
        sparse.register_weight(w, flat)
        x = RNG.standard_normal((4, 6)).astype(np.float32)
        before = sparse.matmul(x, w.T)
        w.reshape(-1)[flat] = 2.0  # an in-place rewrite the pack does not see
        np.testing.assert_array_equal(sparse.matmul(x, w.T), before)

    def test_non_contiguous_weight_rejected(self):
        w = _sparse_matrix((8, 6), 0.2)
        with pytest.raises(ValueError, match="C-contiguous"):
            sparse.register_weight(w.T)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError, match="2-D/4-D"):
            sparse.register_weight(np.zeros(5, dtype=np.float32))

    def test_registered_4d_conv_pack_used(self):
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = _sparse_matrix((4, 3 * 3 * 3), 0.1).reshape(4, 3, 3, 3).copy()
        sparse.register_weight(w)
        ref_fwd = registry._KERNELS["conv2d_forward"]["reference"]
        out_s, _ = sparse.conv2d_forward(x, w, None, 1, 1, 6, 6)
        out_r, _ = ref_fwd(x, w, None, 1, 1, 6, 6)
        np.testing.assert_allclose(out_s, out_r, rtol=GEMM_RTOL, atol=GEMM_ATOL)


# --------------------------------------------------------------------- #
# DropBack: frozen zero_untracked training through transient packs
# --------------------------------------------------------------------- #


def _warm_opt():
    model = mlp(16, (12,), 4).finalize(7)
    opt = DropBack(model, k=24, lr=0.1, zero_untracked=True)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(32, 16)).astype(np.float32))
    y = rng.integers(0, 4, size=32)
    for _ in range(2):
        model.zero_grad()
        cross_entropy(model(x), y).backward()
        opt.step()
    return model, opt, (x, y)


class TestDropBackWiring:
    def test_frozen_training_parity_with_fast(self, monkeypatch):
        """Frozen steps on the sparse backend track the dense run.  DropBack
        registers no pack: every forward packs the current weights
        transiently, so no update can go stale."""
        packed = []
        pack_dense = sparse.pack_dense
        monkeypatch.setattr(
            sparse, "pack_dense", lambda *a, **kw: packed.append(1) or pack_dense(*a, **kw)
        )
        planes = {}
        for backend in ("fast", "sparse"):
            sparse.set_density_cutoff(1.0)
            model, opt, (x, y) = _warm_opt()
            opt.freeze()
            with kernels.use_backend(backend):
                for _ in range(3):
                    model.zero_grad()
                    cross_entropy(model(x), y).backward()
                    opt.step()
            planes[backend] = model.weight_plane.copy()
            assert sparse.registered_pack_count() == 0
        assert packed  # the sparse backend's forwards ran on packed weights
        np.testing.assert_allclose(
            planes["sparse"], planes["fast"], rtol=1e-4, atol=1e-6
        )
