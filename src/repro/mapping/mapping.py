"""Software-hardware mapping objects (paper Def 4.3).

A :class:`ComputeMapping` pairs one software computation with one intrinsic
through a matching matrix ``Y``.  A :class:`SoftwareHardwareMapping` adds
the memory mapping (base addresses and strides per operand) produced by the
physical lowering step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.ir.compute import ReduceComputation
from repro.ir.expr import Expr, IntImm
from repro.ir.itervar import IterVar
from repro.isa.intrinsic import Intrinsic
from repro.mapping.matrices import MatchingMatrix


@dataclass(frozen=True)
class ComputeMapping:
    """Assignment of software iterations to intrinsic iterations.

    The canonical textual form matches the paper's Table 5, e.g. for C0 of
    ResNet-18::

        [i1, i2, r1] <- [(n*112 + q) mod 16, k mod 16, (c*49 + r*7 + s) mod 16]
    """

    computation: ReduceComputation
    intrinsic: Intrinsic
    matching: MatchingMatrix

    def __post_init__(self) -> None:
        expected = (len(self.intrinsic.compute.iter_vars), len(self.computation.iter_vars))
        if self.matching.data.shape != expected:
            raise ValueError(
                f"matching matrix shape {self.matching.data.shape} does not match "
                f"(intrinsic iters, software iters) = {expected}"
            )

    # ------------------------------------------------------------------
    @property
    def software_iters(self) -> tuple[IterVar, ...]:
        return self.computation.iter_vars

    @property
    def intrinsic_iters(self) -> tuple[IterVar, ...]:
        return self.intrinsic.compute.iter_vars

    def group_iters(self, intrinsic_index: int) -> tuple[IterVar, ...]:
        """Software iterations fused into one intrinsic iteration."""
        return tuple(self.software_iters[c] for c in self.matching.group_of(intrinsic_index))

    def group_extent(self, intrinsic_index: int) -> int:
        """Product of extents of the fused group (1 when empty/padded)."""
        extent = 1
        for iv in self.group_iters(intrinsic_index):
            extent *= iv.extent
        return extent

    def outer_iters(self) -> tuple[IterVar, ...]:
        """Software iterations not mapped to any intrinsic iteration."""
        return tuple(self.software_iters[c] for c in self.matching.unmapped_software())

    def fused_index_expr(self, intrinsic_index: int) -> Expr:
        """The fused software index feeding intrinsic iteration ``t``.

        Members are fused in canonical loop order with mixed-radix weights,
        e.g. group (n, q) with extents (16, 112) gives ``n*112 + q``.
        """
        members = self.group_iters(intrinsic_index)
        if not members:
            return IntImm(0)
        expr: Expr = members[0].var
        for iv in members[1:]:
            expr = expr * iv.extent + iv.var
        return expr

    @cached_property
    def diagonal_software(self) -> tuple[int, ...]:
        return self.matching.diagonal_columns()

    def describe(self) -> str:
        """Paper-style rendering of the compute mapping (cf. Table 5)."""
        parts = []
        names = []
        for t, iv in enumerate(self.intrinsic_iters):
            names.append(iv.name)
            members = self.group_iters(t)
            if not members:
                parts.append("1 (padded)")
                continue
            expr = self.fused_index_expr(t)
            parts.append(f"({expr!r}) mod {iv.extent}")
        return f"[{', '.join(names)}] <- [{', '.join(parts)}]"

    def __repr__(self) -> str:
        return f"ComputeMapping({self.computation.name} -> {self.intrinsic.name}: {self.describe()})"


@dataclass(frozen=True)
class OperandAddress:
    """Memory mapping entry for one operand: base address and strides.

    ``base`` is an expression over the *outer* software iterations (the
    parts not consumed by the intrinsic tile), in elements of the staged
    buffer; ``strides`` gives the per-tile-dimension stride, matching the
    ``addr_a``/``stride_a`` parameters of the paper's Eq. 2.
    """

    operand: str
    base: Expr
    strides: tuple[int, ...]

    def __repr__(self) -> str:
        return f"{self.operand}: addr={self.base!r}, strides={self.strides}"


@dataclass(frozen=True)
class SoftwareHardwareMapping:
    """Full mapping Θ = <compute mapping, memory mapping> (Def 4.3)."""

    compute: ComputeMapping
    memory: tuple[OperandAddress, ...]

    def memory_for(self, operand: str) -> OperandAddress:
        for entry in self.memory:
            if entry.operand == operand:
                return entry
        raise KeyError(f"no memory mapping for operand {operand!r}")

    def describe(self) -> str:
        lines = [self.compute.describe()]
        lines.extend(repr(entry) for entry in self.memory)
        return "\n".join(lines)
