"""Tests for the xorshift PRNG and stateless regeneration."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.init.xorshift import (
    REGEN_FLOAT_OPS,
    REGEN_INT_OPS,
    Xorshift128,
    Xorshift32,
    normal_at,
    uniform_at,
    xorshift_at,
)
from repro.models import lenet_300_100, mnist_100_100, vgg_s


class TestXorshift32:
    def test_reference_sequence(self):
        # xorshift32 with seed 1: x ^= x<<13; x ^= x>>17; x ^= x<<5.
        g = Xorshift32(1)
        first = g.next_u32()
        # Manually computed reference: 1 -> 8193 -> 8193^(8193>>17)=8193 -> 8193^(8193<<5)
        x = 1
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        assert first == x

    def test_deterministic(self):
        a = [Xorshift32(42).next_u32() for _ in range(1)]
        b = [Xorshift32(42).next_u32() for _ in range(1)]
        assert a == b

    def test_sequence_advances(self):
        g = Xorshift32(7)
        vals = {g.next_u32() for _ in range(100)}
        assert len(vals) == 100  # no short cycles

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Xorshift32(0)

    def test_next_float_in_unit_interval(self):
        g = Xorshift32(9)
        for _ in range(100):
            f = g.next_float()
            assert 0.0 <= f < 1.0

    def test_full_32bit_range_used(self):
        g = Xorshift32(123)
        vals = [g.next_u32() for _ in range(2000)]
        assert max(vals) > 2**31  # top bit gets exercised
        assert min(vals) < 2**28


class TestXorshift128:
    def test_deterministic(self):
        g1, g2 = Xorshift128(5), Xorshift128(5)
        assert [g1.next_u32() for _ in range(10)] == [g2.next_u32() for _ in range(10)]

    def test_different_seeds_diverge(self):
        g1, g2 = Xorshift128(5), Xorshift128(6)
        a = [g1.next_u32() for _ in range(10)]
        b = [g2.next_u32() for _ in range(10)]
        assert a != b

    def test_no_short_cycle(self):
        g = Xorshift128(1)
        vals = [g.next_u32() for _ in range(1000)]
        assert len(set(vals)) == 1000

    def test_next_float_unit_interval(self):
        g = Xorshift128(3)
        fs = [g.next_float() for _ in range(500)]
        assert all(0.0 <= f < 1.0 for f in fs)
        assert 0.3 < np.mean(fs) < 0.7


class TestStatelessGeneration:
    def test_pure_function_of_seed_and_index(self):
        idx = np.arange(1000)
        a = xorshift_at(99, idx)
        b = xorshift_at(99, idx)
        np.testing.assert_array_equal(a, b)

    def test_single_index_matches_batch(self):
        idx = np.arange(100)
        batch = xorshift_at(7, idx)
        for i in (0, 13, 99):
            assert xorshift_at(7, np.array([i]))[0] == batch[i]

    def test_different_seeds_differ(self):
        idx = np.arange(256)
        assert not np.array_equal(xorshift_at(1, idx), xorshift_at(2, idx))

    def test_indices_decorrelated(self):
        # Consecutive indices should not produce correlated outputs.
        out = xorshift_at(5, np.arange(10000)).astype(np.float64)
        u = out / 2**32
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(corr) < 0.05

    def test_shape_preserved(self):
        idx = np.arange(24).reshape(2, 3, 4)
        assert xorshift_at(3, idx).shape == (2, 3, 4)

    def test_nonzero_everywhere(self):
        out = xorshift_at(0, np.arange(100000))
        assert np.all(out != 0) or np.count_nonzero(out == 0) < 3  # zero is astronomically rare


class TestUniformAt:
    def test_range(self):
        u = uniform_at(11, np.arange(10000))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_approximately_uniform(self):
        u = uniform_at(11, np.arange(50000))
        hist, _ = np.histogram(u, bins=10, range=(0, 1))
        # Each decile should hold ~5000 +- 10%.
        assert np.all(np.abs(hist - 5000) < 500)


class TestNormalAt:
    def test_deterministic(self):
        idx = np.arange(512)
        np.testing.assert_array_equal(normal_at(7, idx), normal_at(7, idx))

    def test_moments(self):
        z = normal_at(21, np.arange(200000), std=1.0).astype(np.float64)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_scaled_std(self):
        z = normal_at(21, np.arange(100000), std=0.05).astype(np.float64)
        assert abs(z.std() - 0.05) < 0.003

    def test_mean_shift(self):
        z = normal_at(21, np.arange(50000), std=0.1, mean=2.0).astype(np.float64)
        assert abs(z.mean() - 2.0) < 0.01

    def test_gaussian_shape(self):
        # Kolmogorov-ish check: central mass fractions of a standard normal.
        z = normal_at(4, np.arange(100000)).astype(np.float64)
        within1 = np.mean(np.abs(z) < 1.0)
        within2 = np.mean(np.abs(z) < 2.0)
        assert abs(within1 - 0.6827) < 0.02
        assert abs(within2 - 0.9545) < 0.01

    def test_dtype(self):
        assert normal_at(1, np.arange(8)).dtype == np.float32
        assert normal_at(1, np.arange(8), dtype=np.float64).dtype == np.float64

    def test_disjoint_index_blocks_are_independent_streams(self):
        a = normal_at(9, np.arange(0, 1000))
        b = normal_at(9, np.arange(1000, 2000))
        assert not np.array_equal(a, b)
        # regenerating block a later still matches
        np.testing.assert_array_equal(a, normal_at(9, np.arange(0, 1000)))


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestW0BitsArePinned:
    """A checkpoint stores only a seed for its untracked weights, so W(0) must
    come out bit-identical in every later build.  The digests were recorded
    before regeneration was chunked.  Only float32 output is pinned: float64
    output carries numpy's log, whose last bit differs between its SIMD and
    libm code paths, and float32 rounding hides that difference."""

    @pytest.mark.parametrize(
        "seed, lo, hi, std, mean, digest",
        [
            (0, 0, 1_000, 1.0, 0.0,
             "51b9c14636c5fb88d283d10edd7ce13255f1d9b11bad7bd38ab41329913bcd09"),
            (1234, 0, 78_400, 1 / 28, 0.0,
             "b628b02b15f8f9ab643a39a96b02b1e50f0ad0d217194bfe08904cc4ed3f4fc8"),
            (2**32 + 7, 5_000, 25_000, 0.05, 0.5,
             "873a702f491ed009d7166177bd4d3e13f04f740af011b1bac589341b4e81925a"),
            (42, 89_609, 89_610, 1.0, 0.0,
             "7fd8bb055ad208248999e61aebf24ce1af51dfa9432c15e1cb5e3354149ebef0"),
            (2**40 + 3, 2**33, 2**33 + 9_000, 0.1, 0.0,
             "57effaf208b41e062c09053efe2d8d3131b641ca21f53c6cb492a764154da8bf"),
        ],
    )
    def test_normal_at(self, seed, lo, hi, std, mean, digest):
        out = normal_at(seed, np.arange(lo, hi), std=std, mean=mean)
        assert out.dtype == np.float32 and out.shape == (hi - lo,)
        assert _sha256(out) == digest

    def test_normal_at_keeps_the_index_shape(self):
        out = normal_at(17, np.arange(600).reshape(20, 30), std=0.3)
        assert out.shape == (20, 30)
        assert _sha256(out) == "2bca2e5254eda24383ec95b358d7a05944e621369cc71b6f5d2de979612ce245"

    @pytest.mark.parametrize(
        "factory, seed, digest",
        [
            (mnist_100_100, 1,
             "77cd4d212cd6970cb1c008e51b0c98acabdf5f69be5174f08883a51a567257e2"),
            (mnist_100_100, 2**32 + 5,
             "e3137f5bf0df36f6bdca5b75f2467b4ea930eebe612e99ad63b041bd4570a8aa"),
            (lenet_300_100, 1,
             "d646f4dee896e415cda74e8c92797c7e8d6df5bdcd4ef9d5c024dd5be1018f7c"),
            (lenet_300_100, 2**32 + 5,
             "ad5ae4b6d5daa0022dafef03689fa1908a728d0f46c06e8338491844cb0e4f2d"),
            (lambda: vgg_s(width_mult=0.125), 1,
             "850e596b7fda6ab7d917d2b9315de7b83b49cd46646f2ca15a56962f09a91f33"),
            (lambda: vgg_s(width_mult=0.125), 2**32 + 5,
             "5f6990168c28e8313f11c5abe204fc1f323f68bb726d61889a621d9e40601c3a"),
        ],
        ids=["mnist_100_100-1", "mnist_100_100-2**32+5", "lenet_300_100-1",
             "lenet_300_100-2**32+5", "vgg_s_0.125-1", "vgg_s_0.125-2**32+5"],
    )
    def test_finalized_plane(self, factory, seed, digest):
        assert _sha256(factory().finalize(seed).weight_plane) == digest


def test_normal_at_memory_is_bounded_beyond_its_output():
    indices = np.arange(1_000_000)
    tracemalloc.start()
    try:
        out = normal_at(3, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + (1 << 20)


def test_regen_cost_constants_match_paper():
    # Six 32-bit integer ops plus one float op (Section 2.1).
    assert REGEN_INT_OPS == 6
    assert REGEN_FLOAT_OPS == 1
