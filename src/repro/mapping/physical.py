"""Physical mapping (paper Sec 5.1, second step).

The virtual mapping places fused software iterations directly onto
intrinsic iterations with no size limits.  Physical lowering reintroduces
the two constraint families of Fig 3 part j):

* *intrinsic problem size* — each fused index ``f_t`` is split as
  ``f_t mod P_t`` (inside the tile) and ``f_t // P_t`` (tile coordinate),
  with trailing tiles zero-padded when ``P_t`` does not divide the fused
  extent;
* *memory capacity* — register fragments hold one tile per operand, so the
  tile grid determines the base address and strides of every operand
  (Fig 3 part h): staged buffers are laid out tile-major, giving
  ``addr = flat_tile_index * tile_elems`` and unit-stride innermost tile
  columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ir.expr import Expr, IntImm, Var
from repro.ir.itervar import IterVar
from repro.mapping.mapping import ComputeMapping, OperandAddress, SoftwareHardwareMapping


@dataclass(frozen=True, slots=True)
class AxisSplit:
    """Physical split of one intrinsic iteration's fused software index.

    Slotted: lowered mappings are memoized per process, and every one
    holds a split per intrinsic iteration."""

    intrinsic_index: int
    name: str
    fused_extent: int      # product of mapped software extents (1 if padded)
    problem_size: int      # the intrinsic's extent for this iteration
    num_tiles: int         # ceil(fused_extent / problem_size)
    padded: bool           # True when problem_size does not divide fused_extent

    @property
    def padded_extent(self) -> int:
        return self.num_tiles * self.problem_size


@dataclass(frozen=True)
class DiagonalArcs:
    """One diagonal software iteration of extent ``E``, seen from the two
    intrinsic iterations ``targets = (t_a, t_b)`` it feeds.

    Inside tile ``i`` of an intrinsic iteration with problem size ``P``
    and fused extent ``F``, the fused index runs over
    ``f in [i*P, min(i*P + P, F))`` and the iteration takes the values
    ``(f // w) % E``, ``w`` being the product of the extents fused after
    it.  ``f // w`` steps through consecutive integers, so the values are
    one cyclic arc of ``[0, E)``: it starts at ``(i*P // w) % E`` and has
    length ``min((stop - 1) // w - i*P // w + 1, E)``.  ``starts[k]`` and
    ``lengths[k]`` hold those per tile of ``targets[k]``.

    Arcs ``(sa, La)`` and ``(sb, Lb)`` intersect if and only if ``sb``
    lies in the cyclic window ``[sa - Lb + 1, sa + La - 1]`` (mod ``E``),
    which covers every start once ``La + Lb - 1 >= E``.
    """

    targets: tuple[int, ...]
    extent: int
    starts: tuple[np.ndarray, ...]
    lengths: tuple[np.ndarray, ...]

    def _window(self, start_a, length_a, length_b):
        """First start (mod ``E``) and width of the window of ``b``
        starts whose arcs meet arc ``a``."""
        return (start_a - length_b + 1) % self.extent, length_a + length_b - 1

    def overlaps(self, a, b):
        """Whether tile ``a`` of ``targets[0]`` and tile ``b`` of
        ``targets[1]`` share a value, i.e. the pair is not all zeros
        (element-wise over broadcast index arrays)."""
        low, width = self._window(
            self.starts[0][a], self.lengths[0][a], self.lengths[1][b]
        )
        return (width >= self.extent) | (
            (self.starts[1][b] - low) % self.extent < width
        )

    def count(self) -> int:
        """Number of overlapping (a, b) tile pairs.

        The ``b`` tiles are grouped by arc length (there are few distinct
        lengths); within a group each ``a`` tile's window is one range of
        sorted starts, split in two where it wraps past ``E``, and
        counted with ``np.searchsorted``.
        """
        extent = self.extent
        starts_a, starts_b = self.starts
        lengths_a, lengths_b = self.lengths
        total = 0
        for length in np.unique(lengths_b):
            group = np.sort(starts_b[lengths_b == length])
            low, width = self._window(starts_a, lengths_a, length)
            high = low + width
            inside = (
                np.searchsorted(group, np.minimum(high, extent))
                - np.searchsorted(group, low)
                + np.searchsorted(group, np.maximum(high - extent, 0))
            )
            total += int(np.where(width >= extent, group.size, inside).sum())
        return total


@dataclass(frozen=True)
class PhysicalMapping:
    """A compute mapping lowered against the intrinsic's constraints."""

    compute: ComputeMapping
    splits: tuple[AxisSplit, ...]

    # ------------------------------------------------------------------
    @property
    def intrinsic(self):
        return self.compute.intrinsic

    @property
    def computation(self):
        return self.compute.computation

    def split_of(self, intrinsic_index: int) -> AxisSplit:
        return self.splits[intrinsic_index]

    @cached_property
    def outer_iters(self) -> tuple[IterVar, ...]:
        """Unmapped software iterations: pure outer loops."""
        return self.compute.outer_iters()

    def tile_grid(self) -> tuple[int, ...]:
        """Number of tiles along each intrinsic iteration."""
        return tuple(s.num_tiles for s in self.splits)

    def num_intrinsic_calls(self) -> int:
        """Total intrinsic invocations covering the computation once.

        Tile pairs made entirely of off-diagonal zeros by a diagonal
        mapping are skipped (real implementations never issue them), via
        :attr:`diagonal_call_fraction`.
        """
        calls = 1
        for s in self.splits:
            calls *= s.num_tiles
        for iv in self.outer_iters:
            calls *= iv.extent
        return max(1, round(calls * self.diagonal_call_fraction))

    # ------------------------------------------------------------------
    # Diagonal-mapping tile overlap
    # ------------------------------------------------------------------
    def diagonal_arcs(self) -> tuple[DiagonalArcs, ...]:
        """Per diagonal software iteration: the arc of values it takes in
        every tile of each of its two intrinsic iterations."""
        matching = self.compute.matching
        result = []
        for c in matching.diagonal_columns():
            targets = matching.targets_of(c)
            extent = self.computation.iter_vars[c].extent
            starts, lengths = zip(*(self._tile_arcs(t, c, extent) for t in targets))
            result.append(DiagonalArcs(targets, extent, starts, lengths))
        return tuple(result)

    def _tile_arcs(
        self, intrinsic_index: int, software_index: int, extent: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per tile of the intrinsic iteration: start and length of the
        arc of values the software iteration takes in it (see
        :class:`DiagonalArcs`)."""
        split = self.splits[intrinsic_index]
        members = self.compute.matching.group_of(intrinsic_index)
        weight = math.prod(
            self.computation.iter_vars[m].extent
            for m in members[members.index(software_index) + 1 :]
        )
        start = np.arange(split.num_tiles, dtype=np.int64) * split.problem_size
        stop = np.minimum(start + split.problem_size, split.fused_extent)
        first = start // weight
        return first % extent, np.minimum((stop - 1) // weight - first + 1, extent)

    @cached_property
    def diagonal_call_fraction(self) -> float:
        """Fraction of tile combinations that survive diagonal skipping.

        A diagonal software iteration feeds two intrinsic iterations; a
        (tile a, tile b) pair is all zeros, and skipped, when the values
        the iteration takes in tile ``a`` and in tile ``b`` are disjoint.
        Each tile's values are one cyclic arc of ``[0, E)``, so the
        surviving pairs are counted in closed form by
        :meth:`DiagonalArcs.count` in ``O((Ta + Tb) log Tb)`` time and
        ``O(Ta + Tb)`` memory, never walking the ``Ta x Tb`` pairs.
        Computed once per mapping.
        """
        fraction = 1.0
        for arcs in self.diagonal_arcs():
            total = arcs.starts[0].size * arcs.starts[1].size
            if total:
                fraction *= arcs.count() / total
        return fraction

    def utilization(self) -> float:
        """Useful scalar MACs / MAC slots provided by the intrinsic calls.

        Captures both trailing padding and diagonal-mapping waste: a
        depthwise convolution mapped through a diagonalised weight tile
        uses only the diagonal slots of the reduction.
        """
        provided = self.num_intrinsic_calls() * self.intrinsic.macs_per_call()
        useful = self.computation.total_iterations()
        return useful / provided if provided else 0.0

    def has_padding(self) -> bool:
        return any(s.padded for s in self.splits)

    # ------------------------------------------------------------------
    # Memory mapping (base addresses and strides, Fig 3 part h)
    # ------------------------------------------------------------------
    def operand_tile_layout(self, operand: str) -> tuple[int | None, ...]:
        """Per tile dimension of the operand: the intrinsic iteration index
        that drives it, or ``None`` for a fixed scalar dimension (e.g. the
        AXPY unit's ``Src2[0]``)."""
        abstraction = self.intrinsic.compute.computation
        access = None
        if abstraction.output.tensor.name == operand:
            access = abstraction.output
        else:
            for candidate in abstraction.inputs:
                if candidate.tensor.name == operand:
                    access = candidate
                    break
        if access is None:
            raise KeyError(f"intrinsic has no operand {operand!r}")
        var_to_index = {iv.var: t for t, iv in enumerate(abstraction.iter_vars)}
        layout: list[int | None] = []
        for idx in access.indices:
            if isinstance(idx, Var):
                layout.append(var_to_index[idx])
            elif isinstance(idx, IntImm):
                layout.append(None)
            else:
                raise ValueError(
                    f"intrinsic operand {operand!r} has a compound index {idx!r}; "
                    "physical lowering requires one iteration per tile dimension"
                )
        return tuple(layout)

    def operand_tile_dims(self, operand: str) -> tuple[int, ...]:
        """Intrinsic iteration indices forming the operand's tile, in the
        order they index the operand (e.g. Src2[r1, i2] -> (index of r1,
        index of i2)); fixed scalar dimensions are omitted."""
        return tuple(
            t for t in self.operand_tile_layout(operand) if t is not None
        )

    def operand_address(self, operand: str) -> OperandAddress:
        """Base address and strides for one operand's staged buffer.

        The staged buffer is laid out tile-major: tiles are stored
        contiguously (``tile_elems`` elements each) in row-major order over
        the tile grid restricted to this operand's dimensions.  The base
        address is expressed over the fused software index expressions, so
        for Fig 3 it reproduces
        ``addr_a = (n*4 + p*2 + q)/2*20 + (c*9 + r*3 + s)/2*4``.
        """
        dims = self.operand_tile_dims(operand)
        tile_shape = [self.splits[t].problem_size for t in dims]
        tile_elems = math.prod(tile_shape) if tile_shape else 1
        grid = [self.splits[t].num_tiles for t in dims]

        base: Expr = IntImm(0)
        for pos, t in enumerate(dims):
            split = self.splits[t]
            fused = self.compute.fused_index_expr(t)
            tile_coord = fused // split.problem_size
            weight = tile_elems
            for later in grid[pos + 1 :]:
                weight *= later
            base = base + tile_coord * weight

        strides = []
        for pos in range(len(tile_shape)):
            stride = 1
            for later in tile_shape[pos + 1 :]:
                stride *= later
            strides.append(stride)
        return OperandAddress(operand, base, tuple(strides))

    def memory_mapping(self) -> tuple[OperandAddress, ...]:
        return tuple(
            self.operand_address(name) for name in self.intrinsic.operand_names
        )

    def to_software_hardware_mapping(self) -> SoftwareHardwareMapping:
        return SoftwareHardwareMapping(self.compute, self.memory_mapping())

    def describe(self) -> str:
        lines = [self.compute.describe()]
        if self.outer_iters:
            outer = ", ".join(iv.name for iv in self.outer_iters)
            lines.append(f"outer loops: {outer}")
        for s in self.splits:
            pad = " (padded)" if s.padded else ""
            lines.append(
                f"{s.name}: fused extent {s.fused_extent} -> "
                f"{s.num_tiles} tiles of {s.problem_size}{pad}"
            )
        for addr in self.memory_mapping():
            lines.append(repr(addr))
        lines.append(f"intrinsic calls: {self.num_intrinsic_calls()}")
        lines.append(f"utilization: {self.utilization():.3f}")
        return "\n".join(lines)


def lower_to_physical(mapping: ComputeMapping) -> PhysicalMapping:
    """Apply problem-size constraints to a (virtual) compute mapping."""
    splits = []
    for t, iv in enumerate(mapping.intrinsic_iters):
        fused = mapping.group_extent(t)
        tiles = math.ceil(fused / iv.extent)
        splits.append(
            AxisSplit(
                intrinsic_index=t,
                name=iv.name,
                fused_extent=fused,
                problem_size=iv.extent,
                num_tiles=tiles,
                padded=(fused % iv.extent != 0),
            )
        )
    return PhysicalMapping(mapping, tuple(splits))
