"""Intrinsic descriptors.

An :class:`Intrinsic` is the unit the mapping layer works against: the
compute abstraction supplies the iteration structure and access matrix
``Z``; the memory abstraction tells the performance model which scopes data
moves through; the metadata tells the simulator how fast one invocation is
and what element types it consumes/produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.abstraction import ComputeAbstraction, MemoryAbstraction


@dataclass(frozen=True)
class Intrinsic:
    """One hardware compute intrinsic plus its associated memory intrinsics.

    Attributes:
        name: unique identifier, e.g. ``"wmma_m16n16k16_f16"``.
        target: hardware family this intrinsic belongs to (``"tensorcore"``,
            ``"avx512"``, ``"mali"``, ``"axpy_accel"``, ...).
        compute: scalar-format compute abstraction (Def 4.1).
        memory: scoped memory abstraction (Def 4.2).
        latency: issue-to-complete cycles for one invocation on the unit
            that executes it (pipelined; throughput-oriented models divide
            by the pipeline width separately).
        in_dtype / out_dtype: element types consumed/produced.
        description: one-line human-readable summary.
    """

    name: str
    target: str
    compute: ComputeAbstraction
    memory: MemoryAbstraction
    latency: float
    in_dtype: str = "float16"
    out_dtype: str = "float32"
    description: str = ""

    @property
    def problem_size(self) -> tuple[int, ...]:
        return self.compute.problem_size

    @property
    def operand_names(self) -> tuple[str, ...]:
        return self.compute.operand_names

    def macs_per_call(self) -> int:
        return self.compute.macs_per_call()

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.problem_size)
        return f"Intrinsic({self.name}, {self.target}, {dims})"
