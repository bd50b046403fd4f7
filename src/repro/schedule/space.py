"""Schedule search space.

The joint mapping x schedule space of Sec 5.3 is large (the paper cites
more than 1e5 points); this module defines the schedule half: per spatial
macro dimension a (warp, seq) split drawn from the divisors-and-powers-of-
two lattice, a reduction staging factor, and the boolean/enum knobs.
Deterministic sampling keyed by a seed keeps every experiment repeatable.

Two drawing interfaces exist:

* one object interface, :meth:`ScheduleSpace.sample`, which consumes a
  ``random.Random`` stream and returns one :class:`Schedule` (the
  random-search baseline and the explorer ablation draw through it), and
* the array interface of the genetic search and the tuner's refinement
  — :meth:`sample_columns` / :meth:`mutate_columns` operate on whole
  populations as numpy columns (the row codec of
  :mod:`repro.schedule.features`), decoding *pre-drawn uniform
  matrices* instead of consuming an RNG.

Every decision of the array interface consumes a **fixed number of
uniforms** (``uniforms_per_sample`` for a sample, ``MUTATE_UNIFORMS``
for a mutation) and maps a uniform ``u`` to an option index as
``min(int(u * n_options), n_options - 1)``.  The scalar twins
:meth:`sample_with_uniforms` / :meth:`mutate_with_uniforms` decode the
same uniforms with plain Python arithmetic (independently of the numpy
tables), so an object-path oracle walking the same uniform matrix
row-by-row makes bit-identical decisions — the equivalence the
array-native GA's bit-identity suite pins.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.schedule.features import MappingTable, ScheduleBatch
from repro.schedule.lowering import MacroDim, macro_dims
from repro.schedule.schedule import DimSplit, Schedule

#: Enum knob domains shared by both drawing interfaces.
UNROLL_OPTIONS = (1, 2, 4)
VECTORIZE_OPTIONS = (1, 2, 4, 8)

#: Uniforms one mutation consumes (branch choice + two operand draws;
#: branches that need fewer simply ignore the rest — fixed width is what
#: lets a whole generation's mutations decode one matrix).
MUTATE_UNIFORMS = 3


def _pick(u: float, n_options: int) -> int:
    """Map one uniform in [0, 1) to an option index (scalar twin)."""
    i = int(u * n_options)
    return n_options - 1 if i >= n_options else i


def _pick_vec(u: np.ndarray, n_options: np.ndarray | int) -> np.ndarray:
    """Vectorized ``_pick``: identical truncation and clamping."""
    idx = (u * n_options).astype(np.int64)
    return np.minimum(idx, np.asarray(n_options, dtype=np.int64) - 1)


def candidate_factors(extent: int, limit: int = 64) -> list[int]:
    """Split-factor candidates for a dimension of ``extent`` tiles: all
    powers of two up to ``min(extent, limit)`` plus the exact divisors."""
    out = {1}
    p = 1
    while p < min(extent, limit):
        p *= 2
        out.add(min(p, extent))
    for d in range(1, min(extent, limit) + 1):
        if extent % d == 0:
            out.add(d)
    return sorted(f for f in out if f <= max(extent, 1))


@dataclass
class ScheduleSpace:
    """Sampling space for schedules of one physical mapping."""

    physical: PhysicalMapping
    max_warps_per_block: int = 16
    max_reduce_stage: int = 8

    def __post_init__(self) -> None:
        self._dims = macro_dims(self.physical)
        self._spatial = [d for d in self._dims if not d.is_reduce]
        self._reduce_total = 1
        for d in self._dims:
            if d.is_reduce:
                self._reduce_total *= d.extent
        self._vdom: _VectorDomains | None = None
        self._accept_domains: list[tuple[set[int], set[int]]] | None = None

    @property
    def spatial_dims(self) -> list[MacroDim]:
        return list(self._spatial)

    @property
    def spatial_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self._spatial)

    @property
    def uniforms_per_sample(self) -> int:
        """Uniforms one sample consumes: (warp, seq) per spatial dim plus
        the four scalar knobs — a fixed width, so a whole population can
        decode one pre-drawn matrix."""
        return 2 * len(self._spatial) + 4

    def stage_options(self) -> list[int]:
        """The ``reduce_stage`` domain (shared by every drawing path)."""
        return [
            f
            for f in candidate_factors(max(self._reduce_total, 1))
            if f <= self.max_reduce_stage
        ] or [1]

    def sample(self, rng: random.Random) -> Schedule:
        """Draw one random schedule."""
        splits: dict[str, DimSplit] = {}
        warp_budget = self.max_warps_per_block
        for dim in self._spatial:
            warp_opts = [f for f in candidate_factors(dim.extent) if f <= warp_budget]
            warp = rng.choice(warp_opts) if warp_opts else 1
            warp_budget = max(1, warp_budget // warp)
            seq_opts = candidate_factors(max(1, math.ceil(dim.extent / warp)))
            seq = rng.choice(seq_opts) if seq_opts else 1
            splits[dim.name] = DimSplit(warp=warp, seq=seq)
        stage_opts = self.stage_options()
        return Schedule(
            splits=splits,
            reduce_stage=rng.choice(stage_opts),
            double_buffer=rng.random() < 0.5,
            unroll=rng.choice([1, 2, 4]),
            vectorize=rng.choice([1, 2, 4, 8]),
        )

    # -- array-native interface -----------------------------------------
    def _vector_domains(self) -> "_VectorDomains":
        if self._vdom is None:
            self._vdom = _VectorDomains.build(self)
        return self._vdom

    def sample_columns(
        self, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``u.shape[0]`` schedules as columns from a uniform matrix.

        ``u`` must have at least :attr:`uniforms_per_sample` columns;
        column ``2j`` picks dim ``j``'s warp under the running warp
        budget (the option set is a prefix of the sorted factor list, so
        the count is one ``searchsorted``), column ``2j+1`` its seq, and
        the last four columns the scalar knobs.  Returns ``(warp, seq,
        reduce_stage, double_buffer, unroll, vectorize)`` arrays; decodes
        exactly like :meth:`sample_with_uniforms` row-by-row.
        """
        dom = self._vector_domains()
        n = u.shape[0]
        d = len(self._spatial)
        warp = np.ones((n, d), dtype=np.int64)
        seq = np.ones((n, d), dtype=np.int64)
        budget = np.full(n, self.max_warps_per_block, dtype=np.int64)
        for j in range(d):
            factors = dom.warp_factors[j]
            n_opts = np.searchsorted(factors, budget, side="right")
            widx = _pick_vec(u[:, 2 * j], n_opts)
            warp[:, j] = factors[widx]
            budget = np.maximum(1, budget // warp[:, j])
            scounts = dom.seq_counts[j][widx]
            sidx = _pick_vec(u[:, 2 * j + 1], scounts)
            seq[:, j] = dom.seq_table[j][widx, sidx]
        k = 2 * d
        reduce_stage = dom.stage_opts[_pick_vec(u[:, k], len(dom.stage_opts))]
        double_buffer = u[:, k + 1] < 0.5
        unroll = dom.unroll_opts[_pick_vec(u[:, k + 2], len(UNROLL_OPTIONS))]
        vectorize = dom.vectorize_opts[_pick_vec(u[:, k + 3], len(VECTORIZE_OPTIONS))]
        return warp, seq, reduce_stage, double_buffer, unroll, vectorize

    def sample_with_uniforms(self, u: Sequence[float]) -> Schedule:
        """Scalar twin of :meth:`sample_columns` for one uniform row.

        Decodes with plain Python arithmetic (no numpy tables) — the
        independent oracle the bit-identity suite compares against.
        """
        splits: dict[str, DimSplit] = {}
        budget = self.max_warps_per_block
        k = 0
        for dim in self._spatial:
            factors = candidate_factors(dim.extent)
            warp = factors[_pick(u[k], bisect.bisect_right(factors, budget))]
            k += 1
            budget = max(1, budget // warp)
            seq_opts = candidate_factors(max(1, math.ceil(dim.extent / warp)))
            seq = seq_opts[_pick(u[k], len(seq_opts))]
            k += 1
            splits[dim.name] = DimSplit(warp=warp, seq=seq)
        stage_opts = self.stage_options()
        return Schedule(
            splits=splits,
            reduce_stage=stage_opts[_pick(u[k], len(stage_opts))],
            double_buffer=bool(u[k + 1] < 0.5),
            unroll=UNROLL_OPTIONS[_pick(u[k + 2], len(UNROLL_OPTIONS))],
            vectorize=VECTORIZE_OPTIONS[_pick(u[k + 3], len(VECTORIZE_OPTIONS))],
        )

    def mutate_columns(
        self,
        warp: np.ndarray,
        seq: np.ndarray,
        reduce_stage: np.ndarray,
        double_buffer: np.ndarray,
        unroll: np.ndarray,
        vectorize: np.ndarray,
        u: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Mutate one knob per row, vectorized; inputs are not modified.

        ``u`` needs :data:`MUTATE_UNIFORMS` columns: branch choice, then
        two operand draws (dim pick + new value, or the unroll/vectorize
        pair of the flip branch).  Row semantics match
        :meth:`mutate_with_uniforms` exactly, including the fall-through
        to the knob-flip branch for spaces without spatial dims.
        """
        dom = self._vector_domains()
        d = len(self._spatial)
        warp = warp.copy()
        seq = seq.copy()
        reduce_stage = reduce_stage.copy()
        double_buffer = double_buffer.copy()
        unroll = unroll.copy()
        vectorize = vectorize.copy()
        choice = _pick_vec(u[:, 0], 4)
        if d == 0:
            # No spatial dims: the split branches fall through to the
            # knob-flip branch, as in the scalar twin.
            choice = np.where(choice < 2, 3, choice)
        rows = np.nonzero(choice == 0)[0]
        if rows.size:
            dims = _pick_vec(u[rows, 1], d)
            idx = _pick_vec(u[rows, 2], dom.mut_warp_counts[dims])
            warp[rows, dims] = dom.mut_warp_table[dims, idx]
        rows = np.nonzero(choice == 1)[0]
        if rows.size:
            dims = _pick_vec(u[rows, 1], d)
            idx = _pick_vec(u[rows, 2], dom.all_factor_counts[dims])
            seq[rows, dims] = dom.all_factor_table[dims, idx]
        rows = np.nonzero(choice == 2)[0]
        if rows.size:
            reduce_stage[rows] = dom.stage_opts[
                _pick_vec(u[rows, 1], len(dom.stage_opts))
            ]
        rows = np.nonzero(choice == 3)[0]
        if rows.size:
            double_buffer[rows] = ~double_buffer[rows]
            unroll[rows] = dom.unroll_opts[_pick_vec(u[rows, 1], len(UNROLL_OPTIONS))]
            vectorize[rows] = dom.vectorize_opts[
                _pick_vec(u[rows, 2], len(VECTORIZE_OPTIONS))
            ]
        return warp, seq, reduce_stage, double_buffer, unroll, vectorize

    def mutate_with_uniforms(self, schedule: Schedule, u: Sequence[float]) -> Schedule:
        """Scalar twin of :meth:`mutate_columns` for one uniform row.

        The result is *canonical*: its splits carry every spatial dim
        (missing ones materialize as ``DimSplit(1, 1)``), matching what
        the column representation can express.
        """
        d = len(self._spatial)
        choice = _pick(u[0], 4)
        if d == 0 and choice < 2:
            choice = 3
        splits = {dim.name: schedule.split_for(dim.name) for dim in self._spatial}
        stage = schedule.reduce_stage
        double_buffer = schedule.double_buffer
        unroll = schedule.unroll
        vectorize = schedule.vectorize
        if choice == 0:
            dim = self._spatial[_pick(u[1], d)]
            opts = [
                f
                for f in candidate_factors(dim.extent)
                if f <= self.max_warps_per_block
            ]
            splits[dim.name] = DimSplit(
                warp=opts[_pick(u[2], len(opts))], seq=splits[dim.name].seq
            )
        elif choice == 1:
            dim = self._spatial[_pick(u[1], d)]
            opts = candidate_factors(dim.extent)
            splits[dim.name] = DimSplit(
                warp=splits[dim.name].warp, seq=opts[_pick(u[2], len(opts))]
            )
        elif choice == 2:
            stage_opts = self.stage_options()
            stage = stage_opts[_pick(u[1], len(stage_opts))]
        else:
            double_buffer = not double_buffer
            unroll = UNROLL_OPTIONS[_pick(u[1], len(UNROLL_OPTIONS))]
            vectorize = VECTORIZE_OPTIONS[_pick(u[2], len(VECTORIZE_OPTIONS))]
        return Schedule(splits, stage, double_buffer, unroll, vectorize)

    def accepts(self, schedule: Schedule) -> bool:
        """Whether a schedule lies inside this space's drawing domains.

        True exactly for the schedules :meth:`sample` and the column ops
        (and their scalar twins) can produce (plus the all-defaults subset): warp
        from the device-capped factor lattice, seq from the union of the
        per-warp sequential domains with the whole factor list (the
        mutation operator redraws seq from the full list, which is *not*
        a subset of every per-warp domain), stage/unroll/vectorize from
        their enum domains, and no splits for unknown dims.
        """
        if self._accept_domains is None:
            domains: list[tuple[set[int], set[int]]] = []
            for dim in self._spatial:
                warp_dom = {
                    f
                    for f in candidate_factors(dim.extent)
                    if f <= self.max_warps_per_block
                }
                seq_dom = set(candidate_factors(dim.extent))
                for w in warp_dom:
                    seq_dom.update(
                        candidate_factors(max(1, math.ceil(dim.extent / w)))
                    )
                domains.append((warp_dom, seq_dom))
            self._accept_domains = domains
        names = set(self.spatial_names)
        if not set(schedule.splits) <= names:
            return False
        for dim, (warp_dom, seq_dom) in zip(self._spatial, self._accept_domains):
            split = schedule.split_for(dim.name)
            if split.warp not in warp_dom or split.seq not in seq_dom:
                return False
        return (
            schedule.reduce_stage in self.stage_options()
            and schedule.unroll in UNROLL_OPTIONS
            and schedule.vectorize in VECTORIZE_OPTIONS
        )

    def size_estimate(self) -> int:
        """Approximate number of distinct schedules in the space."""
        total = 2 * 3 * 4  # double_buffer x unroll x vectorize
        for dim in self._spatial:
            total *= max(1, len(candidate_factors(dim.extent))) ** 2
        total *= len(candidate_factors(max(self._reduce_total, 1)))
        return total


@dataclass(frozen=True, eq=False)
class _VectorDomains:
    """Precomputed option tables behind the column ops of one space.

    Ragged per-dim option lists are padded into rectangular int64 tables
    (pad value 1 — never selected, counts gate the pick) so a whole
    population indexes them with fancy indexing.  ``seq_table[j]`` is
    2-D: the sequential domain depends on the chosen warp, so row ``w``
    holds ``candidate_factors(ceil(extent / warp_factors[j][w]))``.
    """

    warp_factors: tuple[np.ndarray, ...]   # per dim: sorted factor lattice
    seq_counts: tuple[np.ndarray, ...]     # per dim: (n_warp_opts,)
    seq_table: tuple[np.ndarray, ...]      # per dim: (n_warp_opts, max_seq)
    mut_warp_counts: np.ndarray            # (d,) device-capped factor counts
    mut_warp_table: np.ndarray             # (d, max) device-capped factors
    all_factor_counts: np.ndarray          # (d,) full factor-lattice counts
    all_factor_table: np.ndarray           # (d, max) full factor lattice
    stage_opts: np.ndarray
    unroll_opts: np.ndarray
    vectorize_opts: np.ndarray

    @staticmethod
    def build(space: ScheduleSpace) -> "_VectorDomains":
        warp_factors: list[np.ndarray] = []
        seq_counts: list[np.ndarray] = []
        seq_tables: list[np.ndarray] = []
        mut_warp: list[list[int]] = []
        all_factors: list[list[int]] = []
        for dim in space._spatial:
            factors = candidate_factors(dim.extent)
            warp_factors.append(np.asarray(factors, dtype=np.int64))
            per_warp = [
                candidate_factors(max(1, math.ceil(dim.extent / w))) for w in factors
            ]
            counts = np.asarray([len(opts) for opts in per_warp], dtype=np.int64)
            table = np.ones((len(factors), int(counts.max())), dtype=np.int64)
            for w, opts in enumerate(per_warp):
                table[w, : len(opts)] = opts
            seq_counts.append(counts)
            seq_tables.append(table)
            mut_warp.append([f for f in factors if f <= space.max_warps_per_block])
            all_factors.append(factors)
        return _VectorDomains(
            warp_factors=tuple(warp_factors),
            seq_counts=tuple(seq_counts),
            seq_table=tuple(seq_tables),
            mut_warp_counts=_ragged_counts(mut_warp),
            mut_warp_table=_ragged_table(mut_warp),
            all_factor_counts=_ragged_counts(all_factors),
            all_factor_table=_ragged_table(all_factors),
            stage_opts=np.asarray(space.stage_options(), dtype=np.int64),
            unroll_opts=np.asarray(UNROLL_OPTIONS, dtype=np.int64),
            vectorize_opts=np.asarray(VECTORIZE_OPTIONS, dtype=np.int64),
        )


def _ragged_counts(lists: Sequence[Sequence[int]]) -> np.ndarray:
    return np.asarray([len(opts) for opts in lists], dtype=np.int64)


def _ragged_table(lists: Sequence[Sequence[int]]) -> np.ndarray:
    width = max((len(opts) for opts in lists), default=1)
    table = np.ones((len(lists), max(width, 1)), dtype=np.int64)
    for i, opts in enumerate(lists):
        table[i, : len(opts)] = opts
    return table


def default_schedule(
    physical: PhysicalMapping, max_warps_per_block: int = 4
) -> Schedule:
    """A reasonable untuned schedule: a few warps per block along the
    widest spatial dimensions, staging 2 reduction tiles."""
    dims = [d for d in macro_dims(physical) if not d.is_reduce]
    dims_sorted = sorted(dims, key=lambda d: -d.extent)
    splits: dict[str, DimSplit] = {}
    warp_budget = min(4, max_warps_per_block)
    for dim in dims_sorted:
        warp = min(warp_budget, 2 if dim.extent >= 2 else 1)
        warp_budget = max(1, warp_budget // warp)
        seq = 2 if dim.extent >= 4 * warp else 1
        splits[dim.name] = DimSplit(warp=warp, seq=seq)
    return Schedule(splits=splits, reduce_stage=2, double_buffer=True)


def default_rows(table: MappingTable, max_warps_per_block: int = 4) -> ScheduleBatch:
    """:func:`default_schedule` of every mapping of ``table`` as rows
    (row ``m`` is mapping ``m``, padded to the table's width), built as
    array columns with no :class:`Schedule` object: the same stable
    widest-extent-first walk under the same warp budget, one column of
    the sorted extents at a time for all mappings at once.  Padding
    columns have extent 1, and an extent-1 dim takes the identity split
    and leaves the budget alone wherever it sorts, so each row keys
    exactly like its mapping's encoded :func:`default_schedule`."""
    extents = table.spatial_extents
    m, width = extents.shape
    order = np.argsort(-extents, axis=1, kind="stable")
    sorted_extents = np.take_along_axis(extents, order, axis=1)
    warp = np.ones((m, width), dtype=np.int64)
    seq = np.ones((m, width), dtype=np.int64)
    budget = np.full(m, min(4, max_warps_per_block), dtype=np.int64)
    rows = np.arange(m)
    for k in range(width):
        extent = sorted_extents[:, k]
        w = np.minimum(budget, np.where(extent >= 2, 2, 1))
        budget = np.maximum(1, budget // w)
        warp[rows, order[:, k]] = w
        seq[rows, order[:, k]] = np.where(extent >= 4 * w, 2, 1)
    knobs = Schedule(reduce_stage=2, double_buffer=True)
    return ScheduleBatch(
        warp=warp,
        seq=seq,
        reduce_stage=np.full(m, knobs.reduce_stage, dtype=np.int64),
        double_buffer=np.full(m, knobs.double_buffer, dtype=bool),
        unroll=np.full(m, knobs.unroll, dtype=np.int64),
        vectorize=np.full(m, knobs.vectorize, dtype=np.int64),
    )
