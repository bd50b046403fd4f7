"""Functional execution of physical mappings.

``execute_mapping`` runs a :class:`~repro.mapping.physical.PhysicalMapping`
end to end: for every outer iteration point it gathers one register tile
per input operand from the software tensors (honouring the fused-index
decode, trailing padding and diagonal masks), invokes the intrinsic's
numpy kernel, and scatters/accumulates the destination tile into the
output tensor.

This is deliberately the *behavioural* equivalent of the generated code:
if the compute or memory mapping were wrong, the produced tensor would
differ from the operator's direct reference, which the test-suite checks
for every enumerated mapping of several operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.ir.affine import extract_affine
from repro.ir.compute import ReduceComputation
from repro.ir.expr import Var
from repro.mapping.physical import PhysicalMapping


@dataclass
class _DecodedAxis:
    """Per intrinsic iteration: decode of the fused index at one tile."""

    member_values: dict[Var, np.ndarray]  # software var -> value per tile slot
    valid: np.ndarray  # bool per tile slot (False on padding slots)


def _decode_axis(
    physical: PhysicalMapping, intrinsic_index: int, tile_coord: int
) -> _DecodedAxis:
    """Decode fused index ``f = tile_coord * P + v`` for all tile slots."""
    split = physical.split_of(intrinsic_index)
    members = physical.compute.group_iters(intrinsic_index)
    slots = np.arange(split.problem_size)
    fused = tile_coord * split.problem_size + slots
    valid = fused < split.fused_extent
    values: dict[Var, np.ndarray] = {}
    remainder = np.where(valid, fused, 0)
    for iv in reversed(members):
        values[iv.var] = remainder % iv.extent
        remainder = remainder // iv.extent
    return _DecodedAxis(values, valid)


class MappedExecutor:
    """Executes one physical mapping functionally.

    Intended for the modest shapes used in tests and examples; the timing
    simulator covers full-size workloads analytically.
    """

    def __init__(self, physical: PhysicalMapping):
        self.physical = physical
        self.computation: ReduceComputation = physical.computation
        self.intrinsic = physical.intrinsic
        abstraction = self.intrinsic.compute.computation
        self._operand_accesses = [abstraction.output, *abstraction.inputs]
        self._software_accesses = [self.computation.output, *self.computation.inputs]
        if len(self._operand_accesses) != len(self._software_accesses):
            raise ValueError(
                "operand count mismatch between computation and intrinsic"
            )
        variables = [iv.var for iv in self.computation.iter_vars]
        # Keyed by operand index (position in self._software_accesses),
        # not id(access): identity keys silently miss when an equal
        # access object arrives via a different code path.
        self._affine_cache = [
            [extract_affine(idx, variables) for idx in access.indices]
            for access in self._software_accesses
        ]
        self._var_targets: dict[Var, tuple[int, ...]] = {}
        for c, iv in enumerate(self.computation.iter_vars):
            self._var_targets[iv.var] = physical.compute.matching.targets_of(c)

    # ------------------------------------------------------------------
    def run(self, feeds: dict[str, np.ndarray]) -> np.ndarray:
        comp = self.computation
        for tensor in comp.input_tensors:
            if tensor.name not in feeds:
                raise KeyError(f"missing feed for {tensor.name}")
        out = np.zeros(comp.output.tensor.shape, dtype=np.float64)

        outer_ranges = [range(iv.extent) for iv in self.physical.outer_iters]
        outer_vars = [iv.var for iv in self.physical.outer_iters]
        tile_ranges = [range(s.num_tiles) for s in self.physical.splits]

        # Diagonal mappings: a tile pair on which the diagonal iteration
        # takes disjoint values is all zeros off-diagonal and is skipped,
        # as a real implementation would (this cannot change the result,
        # only avoid null work).  In each tile those values are one cyclic
        # arc of [0, E), and arcs (sa, La), (sb, Lb) meet iff sb lies in
        # [sa - Lb + 1, sa + La - 1] mod E: O(1) per tile point.  It is the
        # predicate PhysicalMapping.diagonal_call_fraction counts with, so
        # the calls executed here are the calls the cost model charges.
        diagonals = self.physical.diagonal_arcs()

        for outer_point in itertools.product(*outer_ranges):
            outer_env = dict(zip(outer_vars, outer_point))
            for tile_point in itertools.product(*tile_ranges):
                skip = any(
                    not arcs.overlaps(
                        tile_point[arcs.targets[0]], tile_point[arcs.targets[1]]
                    )
                    for arcs in diagonals
                )
                if skip:
                    continue
                decoded = [
                    _decode_axis(self.physical, t, coord)
                    for t, coord in enumerate(tile_point)
                ]
                self._one_call(decoded, outer_env, feeds, out)
        return out

    # ------------------------------------------------------------------
    def _one_call(
        self,
        decoded: list[_DecodedAxis],
        outer_env: dict[Var, int],
        feeds: dict[str, np.ndarray],
        out: np.ndarray,
    ) -> None:
        src_tiles = []
        operand_names = self.intrinsic.operand_names
        for m in range(1, len(operand_names)):
            src_tiles.append(
                self._gather_tile(m, decoded, outer_env, feeds)
            )
        dst_dims = self.physical.operand_tile_dims(operand_names[0])
        dst_shape = tuple(self.physical.splits[t].problem_size for t in dst_dims)
        dst_zero = np.zeros(dst_shape, dtype=np.float64)
        dst_tile = np.asarray(
            self.intrinsic.compute.apply(dst_zero, *src_tiles), dtype=np.float64
        )
        self._scatter_tile(dst_tile, dst_dims, decoded, outer_env, out)

    def _value_arrays(
        self,
        layout: tuple[int | None, ...],
        decoded: list[_DecodedAxis],
        outer_env: dict[Var, int],
        tile_shape: tuple[int, ...],
    ) -> tuple[dict[Var, np.ndarray], np.ndarray]:
        """Software-variable value arrays over the operand tile grid plus a
        validity mask (False = padding or off-diagonal slot)."""
        axis_of = {t: pos for pos, t in enumerate(layout) if t is not None}
        valid = np.ones(tile_shape, dtype=bool)
        for t, pos in axis_of.items():
            valid &= _broadcast(decoded[t].valid, pos, tile_shape)

        values: dict[Var, np.ndarray] = {}
        for var, targets in self._var_targets.items():
            if not targets:
                if var in outer_env:
                    values[var] = np.full(tile_shape, outer_env[var])
                continue
            present = [t for t in targets if t in axis_of]
            if not present:
                continue
            arrays = [
                _broadcast(decoded[t].member_values[var], axis_of[t], tile_shape)
                for t in present
            ]
            values[var] = arrays[0]
            for other in arrays[1:]:
                # Diagonal mapping: the operand indexed through both targets
                # only holds data where the two decodes agree.
                valid &= arrays[0] == other
        return values, valid

    def _gather_tile(
        self,
        operand_index: int,
        decoded: list[_DecodedAxis],
        outer_env: dict[Var, int],
        feeds: dict[str, np.ndarray],
    ) -> np.ndarray:
        name = self.intrinsic.operand_names[operand_index]
        layout = self.physical.operand_tile_layout(name)
        tile_shape = tuple(
            self.physical.splits[t].problem_size if t is not None else 1
            for t in layout
        )
        values, valid = self._value_arrays(layout, decoded, outer_env, tile_shape)

        access = self._software_accesses[operand_index]
        source = feeds[access.tensor.name]
        index_arrays = []
        for affine in self._affine_cache[operand_index]:
            idx = np.full(tile_shape, affine.const, dtype=np.int64)
            for var in affine.variables():
                coeff = affine.coefficient(var)
                if var in values:
                    idx = idx + coeff * values[var]
                elif var in outer_env:
                    idx = idx + coeff * outer_env[var]
                else:
                    raise KeyError(
                        f"variable {var.name} of operand {name} has no value; "
                        "mapping is semantically broken"
                    )
            index_arrays.append(idx)
        clipped = [
            np.clip(idx, 0, dim - 1)
            for idx, dim in zip(index_arrays, source.shape)
        ]
        tile = np.asarray(source[tuple(clipped)], dtype=np.float64)
        return np.where(valid, tile, 0.0)

    def _scatter_tile(
        self,
        dst_tile: np.ndarray,
        dst_dims: tuple[int, ...],
        decoded: list[_DecodedAxis],
        outer_env: dict[Var, int],
        out: np.ndarray,
    ) -> None:
        tile_shape = dst_tile.shape
        values, valid = self._value_arrays(dst_dims, decoded, outer_env, tile_shape)
        access = self.computation.output
        index_arrays = []
        for affine in self._affine_cache[0]:
            idx = np.full(tile_shape, affine.const, dtype=np.int64)
            for var in affine.variables():
                coeff = affine.coefficient(var)
                if var in values:
                    idx = idx + coeff * values[var]
                elif var in outer_env:
                    idx = idx + coeff * outer_env[var]
                else:
                    raise KeyError(
                        f"output variable {var.name} has no value; mapping invalid"
                    )
            index_arrays.append(idx)
        flat_valid = valid.ravel()
        flat_vals = dst_tile.ravel()[flat_valid]
        flat_idx = tuple(idx.ravel()[flat_valid] for idx in index_arrays)
        np.add.at(out, flat_idx, flat_vals)


def _broadcast(array: np.ndarray, axis: int, shape: tuple[int, ...]) -> np.ndarray:
    """Broadcast a 1-D per-slot array along ``axis`` of the tile grid."""
    view = array.reshape(
        tuple(len(array) if i == axis else 1 for i in range(len(shape)))
    )
    return np.broadcast_to(view, shape)


def execute_mapping(
    physical: PhysicalMapping, feeds: dict[str, np.ndarray]
) -> np.ndarray:
    """Run a physical mapping functionally; returns the output tensor."""
    return MappedExecutor(physical).run(feeds)
