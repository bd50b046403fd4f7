"""Mapping generation (paper Sec 5.1).

The generator enumerates candidate matching matrices ``Y`` and keeps those
accepted by Algorithm 1 (:mod:`repro.mapping.validation`).  It implements
the paper's two-step flow: candidates are first formed against the
*virtual* accelerator (no size constraints — only the iteration-matching
structure matters), then lowered to *physical* mappings by
:mod:`repro.mapping.physical` which applies the problem-size and capacity
constraints (modulo splits, padding, addresses).

Admissibility rules applied during enumeration (each is checked again by
the validator where expressible; the enumerator's job is to avoid
generating the exponentially many hopeless candidates):

* **Signature rule** — a software iteration may map to intrinsic iteration
  ``t`` only when its access-matrix column is compatible (equality of
  ``X[:, c]`` with the OR of the chosen ``Z`` columns).
* **Coverage rule** — an intrinsic iteration that *can* be covered must be
  covered by at least one software iteration; only genuinely uncoverable
  intrinsic iterations are padded to extent 1 (so GEMV on Tensor Core
  yields exactly one mapping with ``i2`` padded, matching Table 6).
* **Diagonal minimality** — diagonal (two-target) mappings are only
  enumerated for iterations whose diagonal participation is necessary to
  cover an otherwise-uncoverable intrinsic iteration (depthwise/grouped/
  batched convolution channels).  Without this rule, operators such as the
  grouped fully-connected layer would enumerate gratuitous diagonal
  variants the paper does not count.
* **Unit-stride reduce rule (REPRO-RULE)** — a reduce-side fused group
  consisting of exactly one software iteration is admissible only when
  that iteration indexes a tensor dimension *alone* in every access
  (e.g. ``c`` in ``image[n, c, p+r, q+s]``).  A lone offset iteration such
  as ``r`` (which only appears inside the compound index ``p + r``) cannot
  satisfy the unit-stride column constraint of the fragment-load memory
  intrinsics.  This rule reproduces the published mapping counts for
  C1D (6), C2D (35) and C3D (180).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.ir.affine import extract_affine
from repro.ir.compute import ReduceComputation
from repro.isa.intrinsic import Intrinsic
from repro.mapping.mapping import ComputeMapping
from repro.mapping.matrices import MatchingMatrix
from repro.mapping.validation import validate_mapping
from repro.obs import explore_log as _obs_log
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span as _obs_span


@dataclass(frozen=True)
class GenerationOptions:
    """Knobs for the enumeration.

    Attributes:
        allow_diagonal: enumerate diagonal mappings for shared iterations.
        unit_stride_reduce_rule: apply the REPRO-RULE described above.
        max_candidates: safety bound on the number of raw candidates.
    """

    allow_diagonal: bool = True
    unit_stride_reduce_rule: bool = True
    max_candidates: int = 2_000_000


def compound_iterations(computation: ReduceComputation) -> set[int]:
    """Software iterations that appear inside a multi-variable index
    expression of some access (e.g. ``r`` and ``s`` in ``p+r``, ``q+s``)."""
    variables = [iv.var for iv in computation.iter_vars]
    var_index = {v: i for i, v in enumerate(variables)}
    compound: set[int] = set()
    accesses = [computation.output, *computation.inputs]
    for access in accesses:
        for idx in access.indices:
            affine = extract_affine(idx, variables)
            used = [v for v in affine.variables() if v in var_index]
            if len(used) > 1:
                compound.update(var_index[v] for v in used)
    return compound


def solo_indexed_iterations(computation: ReduceComputation) -> set[int]:
    """Software iterations that index a dimension alone in *every* access
    that uses them."""
    return set(range(len(computation.iter_vars))) - compound_iterations(computation)


def _column_or(z: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    col = np.zeros(z.shape[0], dtype=np.int8)
    for t in targets:
        col |= z[:, t]
    return col


@dataclass
class _CandidateSpace:
    """Per-software-iteration admissible target sets."""

    singles: list[list[int]]  # per software iter: intrinsic iters usable alone
    diagonals: list[list[tuple[int, int]]]  # per software iter: (spatial, reduce) pairs


def _build_candidates(
    computation: ReduceComputation, intrinsic: Intrinsic
) -> _CandidateSpace | None:
    """Admissible targets per software iteration, or ``None`` when the
    operand structures cannot correspond at all (different tensor counts,
    e.g. a copy op against a three-operand multiply-accumulate unit)."""
    x = computation.access_matrix()
    z = intrinsic.compute.access_matrix()
    if x.shape[0] != z.shape[0]:
        return None
    sw_kinds = [iv.is_reduce for iv in computation.iter_vars]
    hw_kinds = [iv.is_reduce for iv in intrinsic.compute.iter_vars]
    num_hw = z.shape[1]

    singles: list[list[int]] = []
    diagonals: list[list[tuple[int, int]]] = []
    for c in range(x.shape[1]):
        col = x[:, c]
        ok_single = [
            t
            for t in range(num_hw)
            if hw_kinds[t] == sw_kinds[c] and (z[:, t] == col).all()
        ]
        ok_diag: list[tuple[int, int]] = []
        if not sw_kinds[c]:  # only spatial software iterations go diagonal
            for t_s in range(num_hw):
                if hw_kinds[t_s]:
                    continue
                for t_r in range(num_hw):
                    if not hw_kinds[t_r]:
                        continue
                    if not (_column_or(z, (t_s, t_r)) == col).all():
                        continue
                    # Need an input operand read through both targets to
                    # host the diagonal mask (operand row 0 is Dst).
                    shared_input = (z[1:, t_s] & z[1:, t_r]).any()
                    if shared_input:
                        ok_diag.append((t_s, t_r))
        singles.append(ok_single)
        diagonals.append(ok_diag)
    return _CandidateSpace(singles, diagonals)


def _candidate_choices(
    computation: ReduceComputation,
    intrinsic: Intrinsic,
    options: GenerationOptions,
) -> tuple[list[list[int]], int] | None:
    """Per software iteration, its admissible choices as bitmasks over
    the intrinsic iterations: ``0`` (unmapped), one bit (a single target)
    or two bits (a diagonal pair); plus the mask of intrinsic iterations
    every candidate must cover.  ``None`` when the operand structures
    cannot correspond.  The raw candidates are the product of the
    choice lists, in lexicographic order."""
    space = _build_candidates(computation, intrinsic)
    if space is None:
        return None
    num_sw = len(computation.iter_vars)

    coverable = {t for s in space.singles for t in s}
    coverable_by_diag_only = set()
    if options.allow_diagonal:
        for c in range(num_sw):
            for (t_s, t_r) in space.diagonals[c]:
                for t in (t_s, t_r):
                    if t not in coverable:
                        coverable_by_diag_only.add(t)

    # Diagonal choices are admitted only when they are the sole way to
    # cover some intrinsic iteration (diagonal-minimality rule).
    choices: list[list[int]] = []
    for c in range(num_sw):
        opts = [0]
        opts.extend(1 << t for t in space.singles[c])
        if options.allow_diagonal:
            for t_s, t_r in space.diagonals[c]:
                if t_s in coverable_by_diag_only or t_r in coverable_by_diag_only:
                    opts.append((1 << t_s) | (1 << t_r))
        choices.append(opts)

    # Coverage is mandatory only for intrinsic iterations reachable by a
    # plain (single-target) mapping.  Iterations reachable only through a
    # diagonal mapping may also stay padded: for memory-bound operators
    # the padded variant (e.g. depthwise conv with the channel as a pure
    # outer loop) is sometimes the faster choice, and both are valid.
    must_cover = 0
    for t in coverable:
        must_cover |= 1 << t
    return choices, must_cover


def enumerate_mappings(
    computation: ReduceComputation,
    intrinsic: Intrinsic,
    options: GenerationOptions | None = None,
) -> list[ComputeMapping]:
    """Enumerate all valid compute mappings for one computation/intrinsic.

    Returns the mappings in a deterministic order (lexicographic over the
    per-iteration choices).  The coverage and unit-stride rules read the
    choice tuple itself; only the candidates that pass them become a
    :class:`MatchingMatrix` and go through Algorithm 1.
    """
    options = options or GenerationOptions()
    prepared = _candidate_choices(computation, intrinsic, options)
    if prepared is None:
        return []
    choices, must_cover = prepared
    num_hw = len(intrinsic.compute.iter_vars)

    total = 1
    for opts in choices:
        total *= len(opts)
    if total > options.max_candidates:
        raise RuntimeError(
            f"candidate space of {computation.name} x {intrinsic.name} has "
            f"{total} raw candidates, exceeding the bound {options.max_candidates}"
        )

    solo = solo_indexed_iterations(computation)
    reduce_bits = [
        1 << t for t, iv in enumerate(intrinsic.compute.iter_vars) if iv.is_reduce
    ]

    results: list[ComputeMapping] = []
    with _obs_span(
        "mapping.enumerate",
        computation=computation.name,
        intrinsic=intrinsic.name,
    ) as sp:
        for combo in itertools.product(*choices):
            covered = 0
            for mask in combo:
                covered |= mask
            if covered & must_cover != must_cover:
                continue
            if options.unit_stride_reduce_rule and not _unit_stride_ok(
                combo, reduce_bits, solo
            ):
                continue
            y = MatchingMatrix(
                [[mask >> t & 1 for mask in combo] for t in range(num_hw)]
            )
            if validate_mapping(computation, intrinsic, y):
                results.append(ComputeMapping(computation, intrinsic, y))
        sp.set(enumerated=total, validated=len(results))
    _obs_metrics.counter("mapping.candidates_enumerated").inc(total)
    _obs_metrics.counter("mapping.mappings_validated").inc(len(results))
    log = _obs_log.current_log()
    if log is not None:
        log.record_funnel("enumerated", total)
        log.record_funnel("validated", len(results))
    return results


def _unit_stride_ok(combo: tuple[int, ...], reduce_bits: list[int], solo: set[int]) -> bool:
    """The REPRO-RULE on one choice tuple: a reduce intrinsic iteration
    fed by exactly one software iteration needs a solo-indexed one."""
    for bit in reduce_bits:
        group = [c for c, mask in enumerate(combo) if mask & bit]
        if len(group) == 1 and group[0] not in solo:
            return False
    return True


def count_mappings(
    computation: ReduceComputation,
    intrinsic: Intrinsic,
    options: GenerationOptions | None = None,
) -> int:
    """Number of valid mappings (Table 6 of the paper)."""
    return len(enumerate_mappings(computation, intrinsic, options))
