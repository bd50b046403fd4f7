"""Schedule parameterisation, space sampling and lowering quantities."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.schedule.features import encode_rows, schedules_from_rows
from repro.schedule.lowering import ScheduledMapping, dtype_bytes, macro_dims
from repro.schedule.schedule import DimSplit, Schedule
from repro.schedule.space import (
    MUTATE_UNIFORMS,
    ScheduleSpace,
    SpaceTable,
    candidate_factors,
    default_schedule,
)

from conftest import make_small_conv2d, make_small_depthwise, make_small_gemm


@pytest.fixture
def gemm_physical(tensorcore):
    comp = make_small_gemm(64, 64, 64)
    (mapping,) = enumerate_mappings(comp, tensorcore)
    return lower_to_physical(mapping)


class TestSchedule:
    def test_dimsplit_validation(self):
        with pytest.raises(ValueError):
            DimSplit(warp=0)
        assert DimSplit(2, 3).tiles_per_block == 6
        assert DimSplit(2, 3).num_blocks(13) == 3

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(reduce_stage=0)
        with pytest.raises(ValueError):
            Schedule(unroll=0)

    def test_missing_split_defaults(self):
        s = Schedule()
        assert s.split_for("anything") == DimSplit(1, 1)

    def test_describe_stable(self):
        s = Schedule({"a": DimSplit(2, 1)}, reduce_stage=2)
        assert "a: warp=2 seq=1" in s.describe()


class TestCandidateFactors:
    def test_includes_divisors_and_powers(self):
        factors = candidate_factors(12)
        assert {1, 2, 3, 4, 6, 8, 12} <= set(factors)

    def test_bounded_by_extent(self):
        assert max(candidate_factors(5)) <= 5

    @given(st.integers(1, 200))
    def test_always_contains_one(self, extent):
        assert 1 in candidate_factors(extent)


class TestMacroDims:
    def test_gemm_macro_dims(self, gemm_physical):
        dims = macro_dims(gemm_physical)
        names = [d.name for d in dims]
        assert names == ["t_i1", "t_i2", "t_r1"]
        assert [d.extent for d in dims] == [4, 4, 4]
        assert [d.is_reduce for d in dims] == [False, False, True]

    def test_outer_iters_become_macro_dims(self, tensorcore):
        comp = make_small_conv2d()
        mapping = next(
            m for m in enumerate_mappings(comp, tensorcore)
            if lower_to_physical(m).outer_iters
        )
        dims = macro_dims(lower_to_physical(mapping))
        assert any(d.name.startswith("o_") for d in dims)


class TestScheduledQuantities:
    def test_grid_structure(self, gemm_physical):
        sched = ScheduledMapping(
            gemm_physical,
            Schedule(
                {"t_i1": DimSplit(warp=2, seq=2), "t_i2": DimSplit(warp=2, seq=1)},
                reduce_stage=2,
            ),
        )
        assert sched.num_blocks == 1 * 2  # ceil(4/4) x ceil(4/2)
        assert sched.warps_per_block == 4
        assert sched.seq_tiles_per_warp == 2
        assert sched.reduce_tile_count == 4
        assert sched.reduce_rounds == 2
        assert sched.calls_per_warp == 8
        assert sched.total_calls == sched.calls_per_block * sched.num_blocks

    def test_shared_footprint_scales_with_stage(self, gemm_physical):
        small = ScheduledMapping(gemm_physical, Schedule(reduce_stage=1))
        large = ScheduledMapping(gemm_physical, Schedule(reduce_stage=4))
        assert large.shared_bytes_per_block > small.shared_bytes_per_block

    def test_double_buffer_doubles_shared(self, gemm_physical):
        base = ScheduledMapping(gemm_physical, Schedule(reduce_stage=2))
        dbl = ScheduledMapping(
            gemm_physical, Schedule(reduce_stage=2, double_buffer=True)
        )
        assert dbl.shared_bytes_per_block == 2 * base.shared_bytes_per_block

    def test_traffic_positive_and_scaled(self, gemm_physical):
        sched = ScheduledMapping(gemm_physical, Schedule())
        assert sched.block_traffic_bytes > 0
        assert sched.total_traffic_bytes == sched.block_traffic_bytes * sched.num_blocks

    def test_reg_bytes(self, gemm_physical):
        sched = ScheduledMapping(gemm_physical, Schedule())
        # Dst 16x16 fp32 + two 16x16 fp16 tiles.
        assert sched.reg_bytes_per_warp == 16 * 16 * 4 + 2 * 16 * 16 * 2

    def test_diagonal_fraction_reduces_calls(self, tensorcore):
        comp = make_small_depthwise(k=32)
        mapping = next(
            m for m in enumerate_mappings(comp, tensorcore)
            if m.matching.diagonal_columns()
        )
        sched = ScheduledMapping(lower_to_physical(mapping), Schedule())
        assert sched.diagonal_fraction < 1.0
        raw = sched.seq_tiles_per_warp * sched.reduce_tile_count
        assert sched.calls_per_warp < raw

    def test_dtype_bytes(self):
        assert dtype_bytes("float16") == 2
        assert dtype_bytes("int8") == 1
        with pytest.raises(ValueError):
            dtype_bytes("float128")


class TestSpace:
    def test_sampling_is_deterministic(self, gemm_physical):
        space = ScheduleSpace(gemm_physical)
        a = space.sample(random.Random(3))
        b = space.sample(random.Random(3))
        assert a.describe() == b.describe()

    def test_sample_respects_warp_budget(self, gemm_physical):
        space = ScheduleSpace(gemm_physical, max_warps_per_block=4)
        for seed in range(20):
            schedule = space.sample(random.Random(seed))
            sched = ScheduledMapping(gemm_physical, schedule)
            assert sched.warps_per_block <= 4

    def test_mutation_changes_something_eventually(self, gemm_physical):
        space = ScheduleSpace(gemm_physical)
        base = space.sample(random.Random(0))
        u = np.random.default_rng(0).random((10, MUTATE_UNIFORMS))
        scalar = [space.mutate_with_uniforms(base, row) for row in u]
        assert any(s.describe() != base.describe() for s in scalar)
        names = space.spatial_names
        rows = encode_rows([names] * len(u), [base] * len(u))
        table = SpaceTable.of_spaces([space])
        mutated = table.mutate(np.zeros(len(u), dtype=np.int64), rows, u)
        assert schedules_from_rows(names, mutated) == scalar

    def test_size_estimate_large(self, gemm_physical):
        assert ScheduleSpace(gemm_physical).size_estimate() > 1e3

    def test_default_schedule_feasible(self, gemm_physical):
        sched = ScheduledMapping(gemm_physical, default_schedule(gemm_physical))
        assert sched.num_blocks >= 1
        assert sched.warps_per_block >= 1
