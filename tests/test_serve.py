"""Tests for the serving layer: registry, eviction order, dynamic batching."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DropBack
from repro.data import DataLoader
from repro.io import (
    apply_sparse_payload,
    read_sparse_payload,
    save_sparse,
    save_sparse_quantized,
)
from repro.io.checkpoint import SparsePayload
from repro.models import mnist_100_100
from repro.nn import BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.optim import ConstantLR
from repro.serve import (
    BatchPolicy,
    DynamicBatcher,
    InferenceServer,
    ModelRegistry,
    build_report,
    checkpoint_digest,
    run_load,
)
from repro.serve.loadgen import LoadResult
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.train import Trainer


def _payload(
    seed: int, k: int = 500, rng_seed: int = 0, zero_untracked: bool = False
) -> SparsePayload:
    """A synthetic sparse payload for mnist-100-100 (no training needed)."""
    n = mnist_100_100().num_parameters()
    rng = np.random.default_rng(rng_seed + seed)
    indices = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    values = rng.normal(scale=0.1, size=k).astype(np.float32)
    return SparsePayload(
        seed=seed, indices=indices, values=values, zero_untracked=zero_untracked
    )


def _dense_forward(payload: SparsePayload, x: np.ndarray) -> np.ndarray:
    """Reference output: apply the payload to a fresh model, forward densely."""
    model = apply_sparse_payload(mnist_100_100(), payload)
    model.eval()
    with no_grad():
        return model(Tensor(x.astype(np.float32))).numpy().copy()


@pytest.fixture(scope="module")
def trained_ckpt(tiny_mnist, tmp_path_factory):
    """A genuinely trained sparse checkpoint (and its quantized twin)."""
    train, test = tiny_mnist
    model = mnist_100_100().finalize(11)
    opt = DropBack(model, k=5_000, lr=0.4)
    Trainer(model, opt, schedule=ConstantLR(0.4)).fit(
        DataLoader(train, 64, seed=0), test, epochs=1
    )
    tmp = tmp_path_factory.mktemp("serve_ckpt")
    sparse = str(tmp / "model.npz")
    quantized = str(tmp / "model_q8.npz")
    save_sparse(model, opt, sparse)
    save_sparse_quantized(model, opt, quantized, bits=8)
    return sparse, quantized, test


class TestRegistry:
    def test_register_is_digest_keyed_and_idempotent(self, trained_ckpt):
        sparse, _, _ = trained_ckpt
        registry = ModelRegistry()
        d1 = registry.register("a", mnist_100_100, sparse)
        d2 = registry.register("b", mnist_100_100, sparse)
        assert d1 == d2 == checkpoint_digest(sparse)
        assert len(registry) == 1

    def test_forward_matches_dense_application(self, trained_ckpt):
        sparse, _, test = trained_ckpt
        registry = ModelRegistry()
        digest = registry.register("m", mnist_100_100, sparse)
        x = test.images[:16]
        served = registry.acquire(digest).forward(x)
        expected = _dense_forward(read_sparse_payload(sparse), x)
        np.testing.assert_array_equal(served, expected)

    def test_quantized_checkpoint_serves(self, trained_ckpt):
        sparse, quantized, test = trained_ckpt
        registry = ModelRegistry()
        digest = registry.register("q8", mnist_100_100, quantized)
        assert registry.describe(digest)["kind"] == "quantized"
        x = test.images[:8]
        served = registry.acquire(digest).forward(x)
        expected = _dense_forward(read_sparse_payload(quantized), x)
        np.testing.assert_array_equal(served, expected)

    def test_unknown_digest_raises(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.acquire("deadbeef")

    def test_materialization_is_lazy(self):
        registry = ModelRegistry()
        digest = registry.register_payload("lazy", mnist_100_100, _payload(1))
        assert registry.resident_bytes == 0
        assert not registry.describe(digest)["resident"]
        registry.acquire(digest)
        assert registry.resident_bytes > 0
        assert registry.stats.materializations == 1


def _bn_net() -> Sequential:
    """A small conv net whose BatchNorm2d carries buffers into checkpoints."""
    return Sequential(
        Conv2d(1, 4, 3, padding=1), BatchNorm2d(4), ReLU(), MaxPool2d(2),
        Flatten(), Linear(4 * 4 * 4, 3),
    )


class TestServedWeightsEqualTrainedWeights:
    """The oracle is the trained model itself, not a second load path:
    what the registry serves must be the network DropBack trained."""

    @pytest.mark.parametrize("zero_untracked", [False, True])
    def test_served_forward_equals_trained_eval_forward(self, tmp_path, zero_untracked):
        rng = np.random.default_rng(0)
        model = _bn_net().finalize(5)
        opt = DropBack(model, k=60, lr=0.2, zero_untracked=zero_untracked)
        for _ in range(4):
            x = Tensor(rng.normal(size=(8, 1, 8, 8)).astype(np.float32))
            model.zero_grad()
            cross_entropy(model(x), rng.integers(0, 3, size=8)).backward()
            opt.step()
        path = str(tmp_path / "bn.npz")
        save_sparse(model, opt, path)

        x = rng.normal(size=(6, 1, 8, 8)).astype(np.float32)
        model.eval()
        with no_grad():
            expected = model(Tensor(x)).numpy()
        registry = ModelRegistry()
        digest = registry.register("bn", _bn_net, path, packed=False)
        assert read_sparse_payload(path).buffers  # BN statistics travel too
        np.testing.assert_array_equal(registry.acquire(digest).forward(x), expected)


class TestPayloadValidation:
    """A malformed tracked set is refused when it is registered, before
    any acquire could scatter it into a weight plane."""

    @pytest.mark.parametrize(
        "indices, values, packed, match",
        [
            ([-1, 4, 9], [0.1, 0.2, 0.3], False, "indices must be non-negative"),
            ([4, 9, 7], [0.1, 0.2, 0.3], False, "indices must be strictly increasing"),
            ([4, 4, 9], [0.1, 0.2, 0.3], False, "indices must be strictly increasing"),
            ([10**8, 4], [0.1, 0.2], True, "indices must be strictly increasing"),
            ([[1, 2], [3, 4]], [[0.1, 0.2], [0.3, 0.4]], False, "indices must be a 1-D"),
            ([4, 9, 11], [0.1, 0.2], False, "values has shape"),
        ],
        ids=["negative", "unsorted", "duplicated", "packed-unsorted-out-of-range",
             "not-1d", "length-mismatch"],
    )
    def test_register_rejects_malformed_checkpoint(
        self, tmp_path, indices, values, packed, match
    ):
        path = str(tmp_path / "bad.npz")
        np.savez(
            path, __format__=np.int64(1), seed=np.int64(1), k=np.int64(len(values)),
            zero_untracked=np.int64(int(packed)),  # packing needs zero_untracked
            indices=np.array(indices, dtype=np.int64),
            values=np.array(values, dtype=np.float32),
        )
        registry = ModelRegistry()
        with pytest.raises(ValueError, match=f"SparsePayload.{match}"):
            registry.register("bad", mnist_100_100, path, packed=packed)
        assert len(registry) == 0

    @pytest.mark.parametrize(
        "indices, values, match",
        [
            (np.array([1, 2], dtype=np.int32), np.zeros(2, dtype=np.float32),
             "indices must be a 1-D int64 array, got int32"),
            (np.array([1, 2], dtype=np.int64), np.zeros(2, dtype=np.float64),
             "values must be a float32 array, got float64"),
        ],
        ids=["indices-int32", "values-float64"],
    )
    def test_register_payload_rejects_wrong_dtype(self, indices, values, match):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match=f"SparsePayload.{match}"):
            registry.register_payload(
                "bad", mnist_100_100, SparsePayload(seed=1, indices=indices, values=values)
            )
        assert len(registry) == 0


class TestLRUEviction:
    def _plane_bytes(self) -> int:
        return mnist_100_100().finalize(0).weight_plane.nbytes

    def test_evicts_coldest_over_budget(self):
        plane = self._plane_bytes()
        payloads = [_payload(s) for s in (1, 2, 3)]
        # Pinned payload bytes count against the budget too; leave room for
        # them so the budget holds exactly two planes.
        registry = ModelRegistry(byte_budget=2 * plane + sum(p.nbytes for p in payloads))
        digests = [
            registry.register_payload(f"m{p.seed}", mnist_100_100, p) for p in payloads
        ]
        for d in digests:
            registry.acquire(d)
        # Budget holds two planes: the coldest (first acquired) was evicted.
        assert registry.resident_bytes == 2 * plane
        assert registry.resident_digests() == [digests[1], digests[2]]
        assert registry.stats.evictions == 1

    def test_recency_updates_on_acquire(self):
        plane = self._plane_bytes()
        payloads = [_payload(s) for s in (1, 2, 3)]
        registry = ModelRegistry(byte_budget=2 * plane + sum(p.nbytes for p in payloads))
        d1, d2, d3 = (
            registry.register_payload(f"m{p.seed}", mnist_100_100, p) for p in payloads
        )
        registry.acquire(d1)
        registry.acquire(d2)
        registry.acquire(d1)  # d1 is now hottest; d2 is the eviction victim
        registry.acquire(d3)
        assert set(registry.resident_digests()) == {d1, d3}

    def test_active_model_never_evicted(self):
        plane = self._plane_bytes()
        registry = ModelRegistry(byte_budget=plane // 2)  # smaller than one plane
        digest = registry.register_payload("big", mnist_100_100, _payload(4))
        handle = registry.acquire(digest)  # must still serve
        assert registry.resident_digests() == [digest]
        out = handle.forward(np.zeros((1, 28, 28), dtype=np.float32))
        assert out.shape == (1, 10)

    def test_evict_rematerialize_bit_exact(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")  # plane integrity checked on materialize
        plane = self._plane_bytes()
        registry = ModelRegistry(byte_budget=plane)
        d1 = registry.register_payload("m1", mnist_100_100, _payload(21))
        d2 = registry.register_payload("m2", mnist_100_100, _payload(22))
        first = registry.acquire(d1).model.weight_plane.copy()
        registry.acquire(d2)  # evicts d1 (budget = one plane)
        assert not registry.describe(d1)["resident"]
        again = registry.acquire(d1).model.weight_plane
        np.testing.assert_array_equal(first, again)
        assert registry.describe(d1)["materializations"] == 2

    def test_explicit_evict(self):
        registry = ModelRegistry()
        digest = registry.register_payload("m", mnist_100_100, _payload(5))
        assert registry.evict(digest) is False  # not resident yet
        registry.acquire(digest)
        assert registry.evict(digest) is True
        assert registry.resident_bytes == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ModelRegistry(byte_budget=0)


class TestEvictionOrder:
    """Planes not acquired again since they were materialized go first, so
    one-off requests for cold models cannot push out a model in steady use."""

    def _plane_bytes(self) -> int:
        return mnist_100_100().finalize(0).weight_plane.nbytes

    def _registry(self, seeds, planes: int):
        payloads = [_payload(s) for s in seeds]
        registry = ModelRegistry(
            byte_budget=planes * self._plane_bytes() + sum(p.nbytes for p in payloads)
        )
        digests = [registry.register_payload(f"m{p.seed}", mnist_100_100, p) for p in payloads]
        return registry, digests

    def test_never_reused_entry_goes_before_an_older_hit_entry(self):
        registry, (d1, d2, d3) = self._registry((1, 2, 3), planes=2)
        registry.acquire(d1)
        registry.acquire(d1)  # hit: d1 is in steady use
        registry.acquire(d2)  # materialized, never acquired again
        registry.acquire(d3)  # over budget: d2 goes, although d1 is older
        assert registry.resident_digests() == [d3, d1]
        assert registry.stats.evictions == 1

    def test_hot_model_stays_resident_while_cold_models_come_and_go(self):
        registry, (hot, *cold) = self._registry(range(30, 37), planes=2)
        registry.acquire(hot)
        registry.acquire(hot)
        for a, b in zip(cold[::2], cold[1::2]):
            registry.acquire(a)  # two one-off requests between hot ones
            registry.acquire(b)
            registry.acquire(hot)
        assert registry.describe(hot)["materializations"] == 1
        assert hot in registry.resident_digests()


def _tiny_net() -> Sequential:
    return Sequential(Flatten(), Linear(6, 3))


def _tiny_payload(seed: int, zero_untracked: bool) -> SparsePayload:
    indices = np.arange(seed % 5, 21, 4, dtype=np.int64)  # 21 parameters
    values = np.linspace(-1.0, 1.0, indices.size, dtype=np.float32)
    return SparsePayload(
        seed=seed, indices=indices, values=values, zero_untracked=zero_untracked
    )


_OPS = st.lists(
    st.tuples(st.sampled_from(["register", "acquire", "evict"]), st.integers(0, 5)),
    max_size=40,
)


class TestRegistryByteTotals:
    """The running byte totals match the entries after every operation, and
    every acquire leaves the budget held or only the acquired entry resident."""

    @given(ops=_OPS, budget=st.one_of(st.none(), st.integers(1, 1_200)))
    @settings(max_examples=60, deadline=None)
    def test_totals_and_budget_hold_after_every_step(self, ops, budget):
        payloads = [_tiny_payload(s, zero_untracked=s % 2 == 1) for s in range(6)]
        registry = ModelRegistry(byte_budget=budget)
        digests: dict[int, str] = {}
        for op, i in ops:
            if op == "register":
                digests[i] = registry.register_payload(
                    f"m{i}", _tiny_net, payloads[i], packed=i % 3 == 1
                )
            elif i in digests and op == "acquire":
                registry.acquire(digests[i])
                assert (
                    budget is None
                    or registry.pinned_bytes + registry.resident_bytes <= budget
                    or registry.resident_digests() == [digests[i]]
                )
            elif i in digests:
                registry.evict(digests[i])
            entries = [registry.describe(d) for d in registry.digests()]
            assert registry.pinned_bytes == sum(e["sparse_bytes"] for e in entries)
            assert registry.resident_bytes == sum(e["plane_bytes"] for e in entries)
            assert sorted(registry.resident_digests()) == sorted(
                e["digest"] for e in entries if e["resident"]
            )

    def test_totals_hold_under_concurrent_acquire_and_evict(self):
        # More threads than cores and a short switch interval, so a lost
        # update to a running total or a segment would show.
        payloads = [_tiny_payload(s, zero_untracked=False) for s in range(8)]
        pinned = sum(p.nbytes for p in payloads)
        plane = _tiny_net().finalize(0).weight_plane.nbytes
        registry = ModelRegistry(byte_budget=pinned + 3 * plane)
        digests = [
            registry.register_payload(f"m{i}", _tiny_net, p) for i, p in enumerate(payloads)
        ]
        errors: list[Exception] = []

        def work(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    d = digests[int(rng.integers(len(digests)))]
                    if rng.random() < 0.1:
                        registry.evict(d)
                    else:
                        registry.acquire(d)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        entries = [registry.describe(d) for d in digests]
        resident = [e["digest"] for e in entries if e["resident"]]
        assert registry.pinned_bytes == pinned
        assert registry.resident_bytes == plane * len(resident)
        assert sorted(registry.resident_digests()) == sorted(resident)
        assert registry.pinned_bytes + registry.resident_bytes <= registry.byte_budget
        stats = registry.stats
        assert stats.materializations - stats.evictions == len(resident)


class TestPackedServing:
    """packed=True entries: CSR serving, byte accounting, dense fallback."""

    def _plane_bytes(self) -> int:
        return mnist_100_100().finalize(0).weight_plane.nbytes

    def test_packed_forward_matches_dense(self):
        pytest.importorskip("scipy")
        payload = _payload(7, k=2_000, zero_untracked=True)
        dense = ModelRegistry()
        packed = ModelRegistry()
        dd = dense.register_payload("m", mnist_100_100, payload)
        pd = packed.register_payload("m", mnist_100_100, payload, packed=True)
        x = np.random.default_rng(0).normal(size=(16, 28, 28)).astype(np.float32)
        out_dense = dense.acquire(dd).forward(x)
        out_packed = packed.acquire(pd).forward(x)
        np.testing.assert_allclose(out_packed, out_dense, rtol=1e-5, atol=1e-6)

    def test_packed_entry_resident_cost_is_packed_bytes(self):
        pytest.importorskip("scipy")
        payload = _payload(8, k=2_000, zero_untracked=True)
        registry = ModelRegistry()
        digest = registry.register_payload("m", mnist_100_100, payload, packed=True)
        handle = registry.acquire(digest)
        # Packed servables carry no dense plane at all.
        assert getattr(handle.model, "weight_plane", None) is None
        assert registry.resident_bytes == handle.model.nbytes
        assert registry.resident_bytes < self._plane_bytes() // 2
        info = registry.describe(digest)
        assert info["packed"] is True
        assert info["plane_bytes"] == registry.resident_bytes
        assert info["sparse_bytes"] == payload.nbytes

    def test_regeneration_payload_falls_back_to_dense(self):
        # zero_untracked=False means untracked weights are W(0): packing is
        # invalid, so packed=True silently serves the dense path instead.
        payload = _payload(9, k=500)
        registry = ModelRegistry()
        digest = registry.register_payload("m", mnist_100_100, payload, packed=True)
        handle = registry.acquire(digest)
        assert getattr(handle.model, "weight_plane", None) is not None
        x = np.random.default_rng(1).normal(size=(4, 28, 28)).astype(np.float32)
        np.testing.assert_array_equal(handle.forward(x), _dense_forward(payload, x))

    def test_pinned_payload_bytes_counted_before_materialization(self):
        payloads = [_payload(s) for s in (1, 2)]
        registry = ModelRegistry()
        for p in payloads:
            registry.register_payload(f"m{p.seed}", mnist_100_100, p)
        assert registry.pinned_bytes == sum(p.nbytes for p in payloads)
        assert registry.resident_bytes == 0

    def test_mixed_packed_dense_eviction_order(self):
        """LRU recency — not entry size — picks the victim: a hot, cheap
        packed entry survives while the cold dense plane is evicted."""
        pytest.importorskip("scipy")
        plane = self._plane_bytes()
        dense_payloads = [_payload(s) for s in (1, 2)]
        packed_payload = _payload(3, k=2_000, zero_untracked=True)
        pinned = sum(p.nbytes for p in dense_payloads) + packed_payload.nbytes
        registry = ModelRegistry(byte_budget=plane + plane // 2 + pinned)
        d1 = registry.register_payload("dense1", mnist_100_100, dense_payloads[0])
        d2 = registry.register_payload("dense2", mnist_100_100, dense_payloads[1])
        p3 = registry.register_payload("packed3", mnist_100_100, packed_payload, packed=True)
        registry.acquire(d1)
        registry.acquire(p3)  # cheap packed servable, now hotter than d1
        registry.acquire(d2)  # second dense plane pushes over budget
        assert registry.resident_digests() == [p3, d2]
        assert registry.stats.evictions == 1


class TestDynamicBatcher:
    def test_coalesces_within_batch_bound(self):
        calls = []

        def forward(digest, xs):
            calls.append(xs.shape[0])
            return xs * 2.0

        batcher = DynamicBatcher(forward, max_batch_size=8, max_wait_ms=50.0)
        n = 40
        # Submit everything before starting the workers: coalescing is then
        # deterministic — full queues flush at max_batch_size.
        futures = [batcher.submit("m", np.array([float(i)])) for i in range(n)]
        batcher.start()
        results = [f.result(timeout=30.0) for f in futures]
        batcher.stop()
        assert len(calls) <= math.ceil(n / 8)
        assert sum(calls) == n
        for i, out in enumerate(results):
            np.testing.assert_array_equal(out, np.array([2.0 * i], dtype=np.float32))

    def test_routes_by_digest(self):
        offsets = {"a": 10.0, "b": 20.0}

        def forward(digest, xs):
            return xs + offsets[digest]

        batcher = DynamicBatcher(forward, max_batch_size=4, max_wait_ms=5.0)
        futures = [
            (d, i, batcher.submit(d, np.array([float(i)])))
            for i, d in enumerate(["a", "b"] * 8)
        ]
        batcher.start()
        for d, i, f in futures:
            np.testing.assert_array_equal(
                f.result(timeout=30.0), np.array([i + offsets[d]], dtype=np.float32)
            )
        batcher.stop()

    def test_exception_fans_out_to_batch(self):
        def forward(digest, xs):
            raise RuntimeError("model exploded")

        batcher = DynamicBatcher(forward, max_batch_size=4, max_wait_ms=5.0)
        futures = [batcher.submit("m", np.zeros(3)) for _ in range(4)]
        batcher.start()
        for f in futures:
            with pytest.raises(RuntimeError, match="model exploded"):
                f.result(timeout=30.0)
        batcher.stop()

    def test_wrong_row_count_is_an_error(self):
        def forward(digest, xs):
            return xs[:1]

        batcher = DynamicBatcher(forward, max_batch_size=4, max_wait_ms=5.0)
        futures = [batcher.submit("m", np.zeros(3)) for _ in range(4)]
        batcher.start()
        for f in futures:
            with pytest.raises(RuntimeError, match="rows"):
                f.result(timeout=30.0)
        batcher.stop()

    def test_wrong_shaped_request_fails_only_itself(self):
        payload = _payload(12)
        registry = ModelRegistry()
        digest = registry.register_payload("m", mnist_100_100, payload)
        server = InferenceServer(registry, max_batch_size=8, max_wait_ms=0.0)
        xs = np.random.default_rng(3).normal(size=(3, 1, 28, 28)).astype(np.float32)
        # All four are queued before the worker starts, so they coalesce
        # into one batch.
        good = [server.submit(digest, x) for x in xs]
        bad = server.submit(digest, np.zeros(5, dtype=np.float32))
        with server:
            rows = [f.result(timeout=30.0) for f in good]
            with pytest.raises(ValueError, match="784"):
                bad.result(timeout=30.0)
        np.testing.assert_array_equal(np.stack(rows), _dense_forward(payload, xs))

    def test_stop_fails_pending_requests(self):
        batcher = DynamicBatcher(lambda d, xs: xs, max_batch_size=8, max_wait_ms=1000.0)
        future = batcher.submit("m", np.zeros(3))  # never started
        batcher.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            future.result(timeout=5.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            DynamicBatcher(lambda d, xs: xs, workers=0)


class TestInferenceServer:
    def test_concurrent_serving_matches_dense(self, trained_ckpt):
        sparse, _, test = trained_ckpt
        registry = ModelRegistry()
        digest = registry.register("m", mnist_100_100, sparse)
        x = test.images[:32]
        expected = _dense_forward(read_sparse_payload(sparse), x)

        with InferenceServer(registry, max_batch_size=8, max_wait_ms=2.0) as server:
            futures = [server.submit(digest, x[i]) for i in range(32)]
            outs = np.stack([f.result(timeout=30.0) for f in futures])
            stats = server.stats
        # Logits agree up to BLAS blocking (batch shape differs from the
        # dense reference pass); bit-exactness at fixed batch shape is
        # covered by TestRegistry.test_forward_matches_dense_application.
        np.testing.assert_allclose(outs, expected, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(outs.argmax(axis=-1), expected.argmax(axis=-1))
        assert stats.requests == 32
        assert stats.samples == 32
        assert stats.batches <= math.ceil(32 / 8) + 4  # racing workers may split batches
        assert stats.by_digest[digest] == stats.batches

    def test_batching_uses_fewer_forwards_than_requests(self, trained_ckpt):
        sparse, _, test = trained_ckpt
        registry = ModelRegistry()
        digest = registry.register("m", mnist_100_100, sparse)
        n_clients, per_client = 8, 4

        with InferenceServer(registry, max_batch_size=8, max_wait_ms=20.0) as server:
            barrier = threading.Barrier(n_clients)
            outs = {}

            def client(ci):
                barrier.wait(timeout=10.0)
                for j in range(per_client):
                    outs[(ci, j)] = server.serve(digest, test.images[ci])

            threads = [threading.Thread(target=client, args=(ci,)) for ci in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            stats = server.stats
        assert stats.samples == n_clients * per_client
        assert stats.batches < stats.samples  # coalescing actually happened
        assert stats.batch_size_max > 1


class TestLoadgen:
    def test_run_load_and_report(self, trained_ckpt):
        sparse, _, test = trained_ckpt
        registry = ModelRegistry()
        digest = registry.register("m", mnist_100_100, sparse)
        with InferenceServer(registry, max_batch_size=4, max_wait_ms=2.0) as server:
            result = run_load(server, digest, test.images, clients=4,
                              requests_per_client=3, seed=0)
        assert result.requests == 12
        assert result.latencies.shape == (12,)
        assert 0 < result.p50 <= result.p99
        assert result.throughput_rps > 0

    def test_report_shape_and_meta(self):
        rng = np.random.default_rng(0)
        batched = LoadResult(100, 8, 1.0, rng.uniform(1e-4, 1e-3, 100))
        batch1 = LoadResult(100, 8, 2.0, rng.uniform(1e-3, 1e-2, 100))
        report = build_report("serve", batched, batch1, 5e-5, meta={"model": "x"})
        assert set(report.ops) == {
            "serve.latency.p50", "serve.latency.p99", "serve.latency.mean",
            "serve.single_forward",
        }
        assert report.ops["serve.latency.p50"].calls == 100
        assert report.meta["speedup_vs_batch1"] == pytest.approx(2.0)
        assert report.meta["model"] == "x"
        assert report.counters["serve.requests"] == 100
        # round-trips through the versioned wire format
        from repro.profile import PerfReport

        clone = PerfReport.from_json(report.to_json())
        assert clone.ops["serve.latency.p99"].total_seconds == pytest.approx(
            report.ops["serve.latency.p99"].total_seconds
        )

    def test_load_validation(self, trained_ckpt):
        sparse, _, test = trained_ckpt
        registry = ModelRegistry()
        digest = registry.register("m", mnist_100_100, sparse)
        with InferenceServer(registry) as server:
            with pytest.raises(ValueError):
                run_load(server, digest, test.images, clients=0)
