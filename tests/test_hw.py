"""Tests for the accelerator hardware model."""

import pytest

from repro.hw import (
    DRAM,
    SRAM_1MB,
    SRAM_64KB,
    AcceleratorModel,
    MemoryHierarchy,
    RegenerationUnit,
)
from repro.models import mnist_100_100


class TestMemoryLevel:
    def test_holds_within_capacity(self):
        assert SRAM_64KB.holds(64 * 1024)
        assert not SRAM_64KB.holds(64 * 1024 + 1)

    def test_dram_unbounded(self):
        assert DRAM.holds(10**12)

    def test_energy_ordering(self):
        assert SRAM_64KB.pj_per_access < SRAM_1MB.pj_per_access < DRAM.pj_per_access


class TestMemoryHierarchy:
    def test_placement_picks_smallest_fitting(self):
        h = MemoryHierarchy()
        assert h.placement(10 * 1024).name == "sram-64KB"
        assert h.placement(500 * 1024).name == "sram-1MB"
        assert h.placement(10 * 1024 * 1024).name == "dram"

    def test_last_level_must_be_unbounded(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([SRAM_64KB])

    def test_levels_must_be_ordered(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([SRAM_1MB, SRAM_64KB, DRAM])

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy().placement(-1)

    def test_access_energy(self):
        h = MemoryHierarchy()
        # 10 accesses of a DRAM-resident set cost 10 * 640 pJ.
        assert h.access_energy_pj(10**9, 10) == pytest.approx(6400.0)

    def test_largest_on_chip(self):
        assert MemoryHierarchy().largest_fitting_on_chip() == 1024 * 1024


class TestRegenerationUnit:
    def test_paper_energy(self):
        assert RegenerationUnit().pj_per_value == pytest.approx(1.5)

    def test_energy_scales(self):
        u = RegenerationUnit()
        assert u.energy_pj(1000) == pytest.approx(1500.0)

    def test_latency_scales_with_lanes(self):
        slow = RegenerationUnit(lanes=1)
        fast = RegenerationUnit(lanes=8)
        assert fast.latency_us(8000) == pytest.approx(slow.latency_us(8000) / 8)

    def test_throughput(self):
        assert RegenerationUnit(lanes=2, clock_ghz=1.5).values_per_second() == 3e9

    @pytest.mark.parametrize("kw", [{"lanes": 0}, {"clock_ghz": 0.0}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RegenerationUnit(**kw)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            RegenerationUnit().energy_pj(-1)


class TestAcceleratorModel:
    def test_dense_large_model_spills_to_dram(self):
        am = AcceleratorModel()
        step = am.dense_step_energy(10**7)
        assert step.resident_level == "dram"
        assert step.regen_pj == 0.0

    def test_dropback_tracked_set_fits_on_chip(self):
        am = AcceleratorModel()
        step = am.dropback_step_energy(10**7, k=100_000)  # 800 KB
        assert step.resident_level == "sram-1MB"
        assert step.regen_pj > 0.0

    def test_energy_saving_substantial(self):
        am = AcceleratorModel()
        # 10M params dense in DRAM vs 100k tracked in SRAM: two effects
        # multiply (fewer accesses AND cheaper accesses).
        assert am.energy_saving(10**7, 100_000) > 100

    def test_saving_monotone_in_budget(self):
        am = AcceleratorModel()
        savings = [am.energy_saving(10**7, k) for k in (10_000, 100_000, 1_000_000)]
        assert savings == sorted(savings, reverse=True)

    def test_training_step_energy_uses_model(self):
        am = AcceleratorModel()
        m = mnist_100_100()
        dense = am.training_step_energy(m)
        db = am.training_step_energy(m, k=5_000)
        assert db.total_pj < dense.total_pj

    def test_max_trainable_dense(self):
        am = AcceleratorModel()
        assert am.max_trainable_params() == 1024 * 1024 // 4

    def test_capacity_multiplier_matches_paper_claim(self):
        """Paper Section 6: 'train networks 5x-10x larger than currently
        possible'. At 10x-20x weight compression (Table 1/3 territory) the
        on-chip capacity multiplier lands in exactly that range."""
        am = AcceleratorModel()
        assert 4.5 <= am.capacity_multiplier(10.0) <= 10.5
        assert am.capacity_multiplier(20.0) == pytest.approx(10.0)

    def test_validation(self):
        am = AcceleratorModel()
        with pytest.raises(ValueError):
            am.dense_step_energy(0)
        with pytest.raises(ValueError):
            am.dropback_step_energy(100, 0)
        with pytest.raises(ValueError):
            am.max_trainable_params(0.5)
