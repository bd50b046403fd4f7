"""Lowering of (physical mapping, schedule) to a scheduled loop structure.

``ScheduledMapping`` precomputes every quantity the timing simulator and
analytic performance model need: block/warp/sequential trip counts,
per-operand tile footprints and staged bytes, global traffic, and
intrinsic call counts.  Keeping these in one place guarantees the model
and the simulator describe the same program, differing only in how much
machine behaviour they account for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.mapping.physical import PhysicalMapping
from repro.schedule.schedule import Schedule

_DTYPE_BYTES = {
    "float64": 8,
    "float32": 4,
    "float16": 2,
    "bfloat16": 2,
    "int32": 4,
    "int8": 1,
}


def dtype_bytes(dtype: str) -> int:
    try:
        return _DTYPE_BYTES[dtype]
    except KeyError:
        raise ValueError(f"unknown dtype {dtype!r}") from None


@dataclass(frozen=True)
class MacroDim:
    """One dimension of the macro (tile-level) loop nest."""

    name: str
    extent: int           # number of tiles / outer iterations
    is_reduce: bool
    intrinsic_index: int | None  # None for unmapped software iterations


def macro_dims(physical: PhysicalMapping) -> list[MacroDim]:
    """Macro dimensions of a physical mapping: the tile grid of each
    intrinsic iteration followed by the unmapped software iterations."""
    dims: list[MacroDim] = []
    for t, split in enumerate(physical.splits):
        iv = physical.intrinsic.compute.iter_vars[t]
        dims.append(
            MacroDim(
                name=f"t_{iv.name}",
                extent=split.num_tiles,
                is_reduce=iv.is_reduce,
                intrinsic_index=t,
            )
        )
    for iv in physical.outer_iters:
        dims.append(
            MacroDim(
                name=f"o_{iv.name}",
                extent=iv.extent,
                is_reduce=iv.is_reduce,
                intrinsic_index=None,
            )
        )
    return dims


@dataclass(frozen=True)
class OperandFootprint:
    """Per-block memory behaviour of one operand."""

    operand: str
    tile_bytes: int
    tiles_per_round: int   # tiles resident per staging round per block
    rounds: int            # staging rounds per block (1 for the output)
    is_output: bool

    @property
    def staged_bytes(self) -> int:
        return self.tile_bytes * self.tiles_per_round

    @property
    def block_traffic_bytes(self) -> int:
        return self.tile_bytes * self.tiles_per_round * self.rounds


@dataclass(frozen=True)
class ScheduledMapping:
    """A physical mapping with a schedule applied."""

    physical: PhysicalMapping
    schedule: Schedule

    # ------------------------------------------------------------------
    @cached_property
    def dims(self) -> tuple[MacroDim, ...]:
        return tuple(macro_dims(self.physical))

    @cached_property
    def spatial_dims(self) -> tuple[MacroDim, ...]:
        return tuple(d for d in self.dims if not d.is_reduce)

    @cached_property
    def reduce_dims(self) -> tuple[MacroDim, ...]:
        return tuple(d for d in self.dims if d.is_reduce)

    # ------------------------------------------------------------------
    # Grid structure
    # ------------------------------------------------------------------
    @cached_property
    def num_blocks(self) -> int:
        blocks = 1
        for dim in self.spatial_dims:
            blocks *= self.schedule.split_for(dim.name).num_blocks(dim.extent)
        return blocks

    @cached_property
    def warps_per_block(self) -> int:
        warps = 1
        for dim in self.spatial_dims:
            warps *= self.schedule.split_for(dim.name).warp
        return warps

    @cached_property
    def seq_tiles_per_warp(self) -> int:
        seq = 1
        for dim in self.spatial_dims:
            seq *= self.schedule.split_for(dim.name).seq
        return seq

    @cached_property
    def reduce_tile_count(self) -> int:
        total = 1
        for dim in self.reduce_dims:
            total *= dim.extent
        return total

    @cached_property
    def reduce_rounds(self) -> int:
        """Shared-memory staging rounds along the reduction."""
        return math.ceil(self.reduce_tile_count / self.schedule.reduce_stage)

    @property
    def diagonal_fraction(self) -> float:
        """Fraction of tile combinations surviving diagonal skipping
        (computed once per physical mapping)."""
        return self.physical.diagonal_call_fraction

    @cached_property
    def calls_per_warp(self) -> int:
        """Intrinsic invocations issued by one warp of one block (diagonal
        tile pairs that are entirely zero are skipped)."""
        raw = self.seq_tiles_per_warp * self.reduce_tile_count
        return max(1, round(raw * self.diagonal_fraction))

    @cached_property
    def calls_per_block(self) -> int:
        return self.calls_per_warp * self.warps_per_block

    @cached_property
    def total_calls(self) -> int:
        """Grid-wide intrinsic calls, including padding waste from splits
        that do not divide the macro extents."""
        return self.calls_per_block * self.num_blocks

    # ------------------------------------------------------------------
    # Memory footprints
    # ------------------------------------------------------------------
    def _operand_dims(self, operand: str) -> tuple[int, ...]:
        return self.physical.operand_tile_dims(operand)

    def _tiles_per_block_along(self, intrinsic_index: int) -> int:
        """Spatial tiles of one intrinsic dimension held per block."""
        dim_name = f"t_{self.physical.intrinsic.compute.iter_vars[intrinsic_index].name}"
        split = self.schedule.split_for(dim_name)
        for dim in self.spatial_dims:
            if dim.name == dim_name:
                return min(split.tiles_per_block, dim.extent)
        raise KeyError(dim_name)

    @cached_property
    def operand_footprints(self) -> tuple[OperandFootprint, ...]:
        intr = self.physical.intrinsic
        result = []
        out_name = intr.operand_names[0]
        for m, operand in enumerate(intr.operand_names):
            dims = self._operand_dims(operand)
            tile_elems = 1
            tiles = 1
            for t in dims:
                tile_elems *= self.physical.splits[t].problem_size
                iv = intr.compute.iter_vars[t]
                if iv.is_reduce:
                    tiles *= min(self.schedule.reduce_stage, self.physical.splits[t].num_tiles)
                else:
                    tiles *= self._tiles_per_block_along(t)
            dtype = intr.out_dtype if operand == out_name else intr.in_dtype
            is_output = operand == out_name
            rounds = 1
            if not is_output:
                # Diagonal skipping also elides the loads of the skipped
                # tile pairs.
                rounds = max(1, round(self.reduce_rounds * self.diagonal_fraction))
            result.append(
                OperandFootprint(
                    operand=operand,
                    tile_bytes=tile_elems * dtype_bytes(dtype),
                    tiles_per_round=tiles,
                    rounds=rounds,
                    is_output=is_output,
                )
            )
        return tuple(result)

    @cached_property
    def shared_bytes_per_block(self) -> int:
        """Shared-memory footprint of one block (inputs staged via the
        shared buffer; doubled when double-buffering)."""
        if not self.physical.intrinsic.memory.uses_shared():
            return 0
        total = sum(
            f.staged_bytes for f in self.operand_footprints if not f.is_output
        )
        return total * (2 if self.schedule.double_buffer else 1)

    @cached_property
    def block_traffic_bytes(self) -> int:
        """Global-memory bytes moved by one block (loads + stores)."""
        return sum(f.block_traffic_bytes for f in self.operand_footprints)

    @cached_property
    def total_traffic_bytes(self) -> int:
        return self.block_traffic_bytes * self.num_blocks

    @cached_property
    def reg_bytes_per_warp(self) -> int:
        """Register-fragment footprint of one warp (one tile per operand,
        doubled accumulators are ignored)."""
        intr = self.physical.intrinsic
        out_name = intr.operand_names[0]
        total = 0
        for operand in intr.operand_names:
            dims = self._operand_dims(operand)
            elems = 1
            for t in dims:
                elems *= self.physical.splits[t].problem_size
            dtype = intr.out_dtype if operand == out_name else intr.in_dtype
            total += elems * dtype_bytes(dtype)
        return total

    # ------------------------------------------------------------------
    def useful_flops(self) -> int:
        return self.physical.computation.flop_count()

    def describe(self) -> str:
        lines = [self.physical.compute.describe()]
        lines.append(self.schedule.describe())
        lines.append(
            f"grid: {self.num_blocks} blocks x {self.warps_per_block} warps, "
            f"{self.calls_per_warp} calls/warp, "
            f"shared {self.shared_bytes_per_block} B/block"
        )
        return "\n".join(lines)


def lower_schedule(physical: PhysicalMapping, schedule: Schedule) -> ScheduledMapping:
    """Bind a schedule to a physical mapping."""
    return ScheduledMapping(physical, schedule)
