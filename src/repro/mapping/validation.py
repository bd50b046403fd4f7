"""Mapping validation — Algorithm 1 of the paper, with the two extensions
needed to accept the full set of mappings the paper reports.

The base algorithm checks, for matching matrix ``Y``::

    X' = Z * Y      # software access relationship   (binary matmul)
    Z' = X * Y^T    # hardware access relationship
    valid  iff  X' == X  and  Z' == Z

Two refinements (both visible in the paper's own results):

1. *Unmapped iterations and padded intrinsic iterations.*  Table 5 shows
   mappings like ``i1 <- (n*112 + q)`` that leave ``p`` as an outer loop,
   and GEMV occupies only two of Tensor Core's three iterations (the third
   is padded to extent 1).  The comparison therefore restricts ``X'`` to
   mapped software columns and ``Z'`` to covered intrinsic columns.

2. *Diagonal mappings.*  Depthwise/grouped/batched convolutions have an
   iteration accessed by every tensor (the channel ``k`` of depthwise
   conv).  It must map to a spatial *and* a reduce intrinsic iteration
   simultaneously; the operand tile touched by both gets a diagonal mask
   (off-diagonal slots are zero-filled, cf. lowering depthwise conv to
   matmul with a diagonalised weight).  Such a column makes ``Z'`` exceed
   ``Z`` exactly on the rows of operands the diagonal column repairs; the
   excess is provably harmless and is allowed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.compute import ReduceComputation, column_masks
from repro.isa.intrinsic import Intrinsic
from repro.mapping.matrices import MatchingMatrix
from repro.obs import metrics as _obs_metrics


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one matching matrix."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


def validate_matrices(
    x: np.ndarray,
    z: np.ndarray,
    y: MatchingMatrix,
    software_kinds: tuple[bool, ...],
    intrinsic_kinds: tuple[bool, ...],
) -> ValidationResult:
    """Validate ``Y`` against access matrices.

    Args:
        x: software access matrix (tensors x software iterations).
        z: intrinsic access matrix (operands x intrinsic iterations).
        y: candidate matching matrix.
        software_kinds: per software iteration, True when it is a
            reduction iteration.
        intrinsic_kinds: per intrinsic iteration, True when reduce.

    The matrices are read as column bitmasks (:func:`column_masks`).
    """
    return _validate_columns(
        x.shape[0], column_masks(x), z.shape[0], column_masks(z), y,
        software_kinds, intrinsic_kinds,
    )


def _validate_columns(
    x_rows: int,
    x_cols: tuple[int, ...],
    z_rows: int,
    z_cols: tuple[int, ...],
    y: MatchingMatrix,
    software_kinds: tuple[bool, ...],
    intrinsic_kinds: tuple[bool, ...],
) -> ValidationResult:
    """Algorithm 1 on column bitmasks (bit ``r`` = tensor/operand row
    ``r``): a column of ``X' = Z * Y`` is the OR of the ``Z`` columns of
    its targets, a column of ``Z' = X * Y^T`` the OR of the ``X`` columns
    of its group — the binary matmuls without building them."""
    if y.data.shape != (len(z_cols), len(x_cols)):
        return ValidationResult(False, "matching matrix shape mismatch")
    if x_rows != z_rows:
        return ValidationResult(
            False,
            f"software has {x_rows} tensors but intrinsic has {z_rows} operands",
        )

    # Kind consistency: a reduce software iteration may never feed a
    # spatial-only mapping and vice versa.  Diagonal columns must pair one
    # spatial with one reduce intrinsic iteration and the software
    # iteration must be spatial (its reduction role is realised by the
    # diagonal mask).
    targets_of = [y.targets_of(c) for c in range(len(x_cols))]
    for c, targets in enumerate(targets_of):
        if len(targets) == 1:
            if software_kinds[c] != intrinsic_kinds[targets[0]]:
                return ValidationResult(
                    False, f"iteration kind mismatch at software iteration {c}"
                )
        elif len(targets) == 2:
            if intrinsic_kinds[targets[0]] == intrinsic_kinds[targets[1]]:
                return ValidationResult(
                    False,
                    f"diagonal column {c} must pair one spatial and one reduce "
                    "intrinsic iteration",
                )
            if software_kinds[c]:
                return ValidationResult(
                    False, f"reduce software iteration {c} cannot map diagonally"
                )
        elif targets:
            return ValidationResult(
                False, f"software iteration {c} maps to more than two intrinsic iterations"
            )

    for c, targets in enumerate(targets_of):
        if not targets:
            continue
        x_prime = 0
        for t in targets:
            x_prime |= z_cols[t]
        if x_prime != x_cols[c]:
            return ValidationResult(
                False, "X' != X: software access relationship broken"
            )

    # The paper's second condition.  On 0/1 matrices that passed the X'
    # check it cannot reject (a single-target member's X column equals
    # its target's Z column), but it is Algorithm 1 and stays.
    diag_cols = {c for c, targets in enumerate(targets_of) if len(targets) > 1}
    for t in y.covered_intrinsic():
        expected = z_cols[t]
        got = 0
        reduced = 0  # Z' without the diagonal columns
        for c in y.group_of(t):
            got |= x_cols[c]
            if c not in diag_cols:
                reduced |= x_cols[c]
        if got == expected:
            continue
        # Any excess must be explainable by diagonal columns alone: Z'
        # must cover Z, and without the diagonal columns it must not
        # exceed it.
        excess_ok = not (expected & ~got) and not (reduced & ~expected)
        if not (diag_cols and excess_ok):
            return ValidationResult(
                False, f"Z' != Z at intrinsic iteration {t}: hardware access broken"
            )
    return ValidationResult(True)


def validate_mapping(
    computation: ReduceComputation,
    intrinsic: Intrinsic,
    matching: MatchingMatrix,
) -> ValidationResult:
    """Validate a matching matrix for a computation/intrinsic pair."""
    hw = intrinsic.compute.computation
    result = _validate_columns(
        computation.access_matrix().shape[0],
        computation.access_columns(),
        hw.access_matrix().shape[0],
        hw.access_columns(),
        matching,
        tuple(iv.is_reduce for iv in computation.iter_vars),
        tuple(iv.is_reduce for iv in hw.iter_vars),
    )
    _obs_metrics.counter("mapping.validation.calls").inc()
    _obs_metrics.counter(
        "mapping.validation.accepted" if result.valid else "mapping.validation.rejected"
    ).inc()
    return result
