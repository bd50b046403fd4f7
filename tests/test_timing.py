"""Cycle-level timing simulator behaviour."""

import pytest

from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model.hardware_params import get_hardware
from repro.schedule.lowering import ScheduledMapping
from repro.schedule.space import default_schedule
from repro.sim.timing import resident_blocks, simulate_cycles, simulate_scalar_fallback

from conftest import make_small_gemm


@pytest.fixture
def gemm_sched(tensorcore):
    comp = make_small_gemm(256, 256, 256)
    (mapping,) = enumerate_mappings(comp, tensorcore)
    phys = lower_to_physical(mapping)
    return ScheduledMapping(phys, default_schedule(phys))


class TestSimulate:
    def test_positive_finite_time(self, gemm_sched):
        hw = get_hardware("v100")
        timing = simulate_cycles(gemm_sched, hw)
        assert 0 < timing.total_us < 1e6
        assert timing.waves >= 1
        assert 0 < timing.occupancy <= 1

    def test_deterministic(self, gemm_sched):
        hw = get_hardware("v100")
        a = simulate_cycles(gemm_sched, hw)
        b = simulate_cycles(gemm_sched, hw)
        assert a.total_us == b.total_us

    def test_jitter_togglable_and_small(self, gemm_sched):
        hw = get_hardware("v100")
        noisy = simulate_cycles(gemm_sched, hw, jitter=True)
        clean = simulate_cycles(gemm_sched, hw, jitter=False)
        assert abs(noisy.total_us / clean.total_us - 1.0) <= 0.031

    def test_more_bandwidth_not_slower(self, gemm_sched):
        hw = get_hardware("v100")
        fast = hw.with_overrides(global_bandwidth_gbs=hw.global_bandwidth_gbs * 4)
        t_base = simulate_cycles(gemm_sched, hw, jitter=False).total_us
        t_fast = simulate_cycles(gemm_sched, fast, jitter=False).total_us
        assert t_fast <= t_base + 1e-9

    def test_more_cores_not_slower(self, gemm_sched):
        hw = get_hardware("v100")
        big = hw.with_overrides(num_cores=hw.num_cores * 2)
        t_base = simulate_cycles(gemm_sched, hw, jitter=False).total_us
        t_big = simulate_cycles(gemm_sched, big, jitter=False).total_us
        assert t_big <= t_base + 1e-9

    def test_bound_classification(self, gemm_sched):
        hw = get_hardware("v100")
        timing = simulate_cycles(gemm_sched, hw, jitter=False)
        assert timing.bound in ("compute", "memory", "shared")

    def test_infeasible_block_reported_infinite(self, gemm_sched):
        hw = get_hardware("v100").with_overrides(shared_capacity_bytes=16)
        timing = simulate_cycles(gemm_sched, hw, jitter=False)
        assert timing.total_us == float("inf")
        assert timing.resident_blocks_per_core == 0

    def test_a100_faster_than_v100_on_big_gemm(self, tensorcore):
        comp = make_small_gemm(1024, 1024, 1024)
        (mapping,) = enumerate_mappings(comp, tensorcore)
        phys = lower_to_physical(mapping)
        sched = ScheduledMapping(phys, default_schedule(phys))
        t_v = simulate_cycles(sched, get_hardware("v100"), jitter=False).total_us
        t_a = simulate_cycles(sched, get_hardware("a100"), jitter=False).total_us
        assert t_a < t_v


class TestResidency:
    def test_shared_capacity_limits_blocks(self, gemm_sched):
        hw = get_hardware("v100")
        small = hw.with_overrides(
            shared_capacity_bytes=gemm_sched.shared_bytes_per_block
        )
        assert resident_blocks(gemm_sched, small) <= 1

    def test_block_cap_respected(self, gemm_sched):
        hw = get_hardware("v100").with_overrides(max_blocks_per_core=2)
        assert resident_blocks(gemm_sched, hw) <= 2


class TestScalarFallback:
    def test_compute_bound_scaling(self):
        hw = get_hardware("v100")
        t1 = simulate_scalar_fallback(10**10, 10**6, hw)
        t2 = simulate_scalar_fallback(2 * 10**10, 10**6, hw)
        assert t2 > t1

    def test_memory_bound_scaling(self):
        hw = get_hardware("v100")
        t1 = simulate_scalar_fallback(10**3, 10**9, hw)
        t2 = simulate_scalar_fallback(10**3, 2 * 10**9, hw)
        assert t2 == pytest.approx(2 * t1 - hw.launch_overhead_us, rel=0.01)

    def test_overhead_floor(self):
        hw = get_hardware("v100")
        assert simulate_scalar_fallback(1, 1, hw) >= hw.launch_overhead_us

    def test_custom_overhead(self):
        hw = get_hardware("v100")
        t = simulate_scalar_fallback(1, 1, hw, overhead_us=50.0)
        assert t >= 50.0
