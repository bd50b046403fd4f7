"""Binary matrices for the mapping problem (paper Sec 5.2).

Three matrices participate in validation:

* ``X`` — *software access matrix*: tensors x software iterations
  (from :meth:`repro.ir.compute.ReduceComputation.access_matrix`),
* ``Z`` — *intrinsic access matrix*: operands x intrinsic iterations
  (from :meth:`repro.isa.abstraction.ComputeAbstraction.access_matrix`),
* ``Y`` — *matching matrix*: intrinsic iterations x software iterations,
  entry ``(t, c)`` = 1 when software iteration ``c`` maps to intrinsic
  iteration ``t``.

``Y`` columns are usually one-hot or zero (unmapped iteration), but a
column may have a spatial *and* a reduce entry set — the diagonal mapping
needed for operators like depthwise convolution where one iteration is
accessed by every tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np


def binary_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The paper's ``★`` operator: boolean matrix product as int8 0/1."""
    return (a.astype(np.int64) @ b.astype(np.int64) > 0).astype(np.int8)


@dataclass(frozen=True)
class MatchingMatrix:
    """The matching matrix ``Y`` with convenience accessors.

    Rows index intrinsic iterations, columns index software iterations;
    both in the canonical order of the computation / compute abstraction.
    The per-row groups and per-column targets are derived once, at
    construction, from a read-only copy of the data, so the accessors
    (called for every candidate by validation and lowering) are plain
    tuple lookups.
    """

    data: np.ndarray  # shape: (num_intrinsic_iters, num_software_iters)

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.int8)
        if arr.ndim != 2:
            raise ValueError("matching matrix must be 2-D")
        rows = arr.tolist()
        if not {v for row in rows for v in row} <= {0, 1}:
            raise ValueError("matching matrix must be binary")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        software = range(arr.shape[1])
        intrinsic = range(arr.shape[0])
        object.__setattr__(
            self, "_groups", tuple(tuple(compress(software, row)) for row in rows)
        )
        object.__setattr__(
            self,
            "_targets",
            tuple(tuple(compress(intrinsic, col)) for col in arr.T.tolist()),
        )

    @property
    def num_intrinsic(self) -> int:
        return self.data.shape[0]

    @property
    def num_software(self) -> int:
        return self.data.shape[1]

    def targets_of(self, software_index: int) -> tuple[int, ...]:
        """Intrinsic iterations software iteration ``c`` maps to."""
        return self._targets[software_index]

    def group_of(self, intrinsic_index: int) -> tuple[int, ...]:
        """Software iterations fused into intrinsic iteration ``t``,
        in canonical (loop-nest) order."""
        return self._groups[intrinsic_index]

    def mapped_software(self) -> tuple[int, ...]:
        return tuple(c for c, targets in enumerate(self._targets) if targets)

    def unmapped_software(self) -> tuple[int, ...]:
        return tuple(c for c, targets in enumerate(self._targets) if not targets)

    def covered_intrinsic(self) -> tuple[int, ...]:
        return tuple(t for t, group in enumerate(self._groups) if group)

    def diagonal_columns(self) -> tuple[int, ...]:
        """Software iterations mapped to more than one intrinsic iteration."""
        return tuple(c for c, targets in enumerate(self._targets) if len(targets) > 1)

    @staticmethod
    def from_groups(
        groups: dict[int, tuple[int, ...]],
        num_intrinsic: int,
        num_software: int,
    ) -> "MatchingMatrix":
        """Build ``Y`` from {intrinsic iteration -> software iterations}."""
        data = np.zeros((num_intrinsic, num_software), dtype=np.int8)
        for t, members in groups.items():
            for c in members:
                data[t, c] = 1
        return MatchingMatrix(data)

    def __repr__(self) -> str:
        rows = ["".join(str(v) for v in row) for row in self.data]
        return f"Y[{';'.join(rows)}]"
