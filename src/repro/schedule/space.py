"""Schedule search space.

The joint mapping x schedule space of Sec 5.3 is large (the paper cites
more than 1e5 points); this module defines the schedule half: per spatial
macro dimension a (warp, seq) split drawn from the divisors-and-powers-of-
two lattice, a reduction staging factor, and the boolean/enum knobs.
Deterministic sampling keyed by a seed keeps every experiment repeatable.

Two drawing interfaces exist:

* one object interface, :meth:`ScheduleSpace.sample`, which consumes a
  ``random.Random`` stream and returns one :class:`Schedule` (the
  random-search baseline draws through it and encodes its draws to rows
  once), and
* the table interface of the genetic search and the tuner's refinement:
  one :class:`SpaceTable` per tune holds the drawing domains of its
  mappings as padded arrays, and its :meth:`~SpaceTable.sample` /
  :meth:`~SpaceTable.mutate` decode a whole mixed-mapping batch of
  *pre-drawn uniform rows* into ``ScheduleBatch`` rows in one array
  call, instead of consuming an RNG.

Every decision of the table interface consumes a **fixed number of
uniforms** (``uniforms_per_sample`` for a sample, ``MUTATE_UNIFORMS``
for a mutation) and maps a uniform ``u`` to an option index as
``min(int(u * n_options), n_options - 1)``.  The scalar twins
:meth:`ScheduleSpace.sample_with_uniforms` /
:meth:`ScheduleSpace.mutate_with_uniforms` decode the same uniforms with
plain Python arithmetic (independently of the numpy tables): they are
the reference the property tests compare the table ops against, row by
row, over random uniform matrices.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.schedule.features import MappingTable, ScheduleBatch
from repro.schedule.lowering import macro_dims
from repro.schedule.schedule import DimSplit, Schedule

#: Enum knob domains shared by both drawing interfaces.
UNROLL_OPTIONS = (1, 2, 4)
VECTORIZE_OPTIONS = (1, 2, 4, 8)
_UNROLL = np.asarray(UNROLL_OPTIONS, dtype=np.int64)
_VECTORIZE = np.asarray(VECTORIZE_OPTIONS, dtype=np.int64)

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


@functools.lru_cache(maxsize=4096)
def candidate_factors(extent: int, limit: int = 64) -> tuple[int, ...]:
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
    return tuple(sorted(f for f in out if f <= max(extent, 1)))


def _stage_options(reduce_total: int) -> list[int]:
    """The ``reduce_stage`` domain (at most 8) of a space whose reduce
    dims hold ``reduce_total`` tiles, shared by every drawing path."""
    return [f for f in candidate_factors(max(reduce_total, 1)) if f <= 8] or [1]


@dataclass
class ScheduleSpace:
    """Sampling space for schedules of one physical mapping."""

    physical: PhysicalMapping
    max_warps_per_block: int = 16

    def __post_init__(self) -> None:
        dims = macro_dims(self.physical)
        self._spatial = [d for d in dims if not d.is_reduce]
        self._reduce_total = math.prod(d.extent for d in dims if d.is_reduce)

    @property
    def spatial_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self._spatial)

    @property
    def uniforms_per_sample(self) -> int:
        """Uniforms one sample consumes: (warp, seq) per spatial dim plus
        the four scalar knobs — a fixed width, so a whole population can
        decode one pre-drawn matrix."""
        return 2 * len(self._spatial) + 4

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
        stage_opts = _stage_options(self._reduce_total)
        return Schedule(
            splits=splits,
            reduce_stage=rng.choice(stage_opts),
            double_buffer=rng.random() < 0.5,
            unroll=rng.choice([1, 2, 4]),
            vectorize=rng.choice([1, 2, 4, 8]),
        )

    def sample_with_uniforms(self, u: Sequence[float]) -> Schedule:
        """Scalar twin of :meth:`SpaceTable.sample` for one uniform row.

        Decodes with plain Python arithmetic (no numpy tables) — the
        independent reference the table ops' property tests compare
        against.
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
        stage_opts = _stage_options(self._reduce_total)
        return Schedule(
            splits=splits,
            reduce_stage=stage_opts[_pick(u[k], len(stage_opts))],
            double_buffer=bool(u[k + 1] < 0.5),
            unroll=UNROLL_OPTIONS[_pick(u[k + 2], len(UNROLL_OPTIONS))],
            vectorize=VECTORIZE_OPTIONS[_pick(u[k + 3], len(VECTORIZE_OPTIONS))],
        )

    def mutate_with_uniforms(self, schedule: Schedule, u: Sequence[float]) -> Schedule:
        """Scalar twin of :meth:`SpaceTable.mutate` for one uniform row.

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
            stage_opts = _stage_options(self._reduce_total)
            stage = stage_opts[_pick(u[1], len(stage_opts))]
        else:
            double_buffer = not double_buffer
            unroll = UNROLL_OPTIONS[_pick(u[1], len(UNROLL_OPTIONS))]
            vectorize = VECTORIZE_OPTIONS[_pick(u[2], len(VECTORIZE_OPTIONS))]
        return Schedule(splits, stage, double_buffer, unroll, vectorize)

    def accepts(self, schedule: Schedule) -> bool:
        """Whether a schedule lies inside this space's drawing domains.

        True exactly for the schedules :meth:`sample` and the table ops
        (and their scalar twins) can produce (plus the all-defaults subset): warp
        from the device-capped factor lattice, seq from the union of the
        per-warp sequential domains with the whole factor list (the
        mutation operator redraws seq from the full list, which is *not*
        a subset of every per-warp domain), stage/unroll/vectorize from
        their enum domains, and no splits for unknown dims.
        """
        if not set(schedule.splits) <= set(self.spatial_names):
            return False
        for dim in self._spatial:
            factors = candidate_factors(dim.extent)
            warp_dom = [f for f in factors if f <= self.max_warps_per_block]
            seq_dom = set(factors).union(
                *(candidate_factors(max(1, math.ceil(dim.extent / w))) for w in warp_dom)
            )
            split = schedule.split_for(dim.name)
            if split.warp not in warp_dom or split.seq not in seq_dom:
                return False
        return (
            schedule.reduce_stage in _stage_options(self._reduce_total)
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


#: Pads every option table; counts gate the picks, so it is never picked.
_NO_OPTION = np.iinfo(np.int64).max


def _stacked(arrays: Sequence[np.ndarray], rank: int) -> np.ndarray:
    """Rank-``rank`` arrays stacked on a new first axis, each padded
    with :data:`_NO_OPTION` to the largest shape (at least 1 wide)."""
    shape = np.max([a.shape for a in arrays] + [(1,) * rank], axis=0)
    out = np.full((len(arrays), *shape), _NO_OPTION, dtype=np.int64)
    for i, a in enumerate(arrays):
        out[(i, *map(slice, a.shape))] = a
    return out


def _counts(options: np.ndarray) -> np.ndarray:
    """Options per row (the last axis) of a padded table."""
    return (options < _NO_OPTION).sum(axis=-1)


@functools.lru_cache(maxsize=4096)
def _dim_domain(extent: int) -> tuple[np.ndarray, np.ndarray]:
    """One spatial dim's factor lattice and, per lattice warp ``w``, the
    seq domain ``candidate_factors(ceil(extent / w))`` (padded rows)."""
    factors = candidate_factors(extent)
    seqs = [np.asarray(candidate_factors(max(1, math.ceil(extent / w)))) for w in factors]
    return np.asarray(factors, dtype=np.int64), _stacked(seqs, 1)


class SpaceTable:
    """The drawing domains of many mappings' spaces as padded arrays.

    Built from one ``(spatial extents, warp cap, reduce total)`` key per
    mapping ``m``.  Spatial dim ``j`` of mapping ``m`` has extent number
    ``dim_of[m, j]`` among the table's distinct extents, and per extent
    ``e``: ``factors[e]`` is its factor lattice (``factor_counts[e]``
    factors, ``n_under[e, b]`` of them at most warp budget ``b``) and
    ``seq_table[e, w]`` its seq domain under the lattice's ``w``-th
    factor as warp (``seq_counts[e, w]`` options).  ``stages[m]`` is the
    ``reduce_stage`` domain (``stage_counts[m]`` options).  Dims past
    ``n_spatial[m]`` pad with extent 1, whose only split is the
    identity, so they leave the warp budget unchanged.  Build one with
    :meth:`of_spaces` / :meth:`of_mappings`; the per-extent domains come
    from the memoized :func:`_dim_domain`.
    """

    def __init__(self, keys: tuple[tuple[tuple[int, ...], int, int], ...]):
        self.n_spatial = np.asarray([len(ext) for ext, _, _ in keys], dtype=np.int64)
        self.cap = np.asarray([cap for _, cap, _ in keys], dtype=np.int64)
        width = int(self.n_spatial.max(initial=0))
        rows = [ext + (1,) * (width - len(ext)) for ext, _, _ in keys]
        number = {e: i for i, e in enumerate(sorted({1}.union(*rows)))}
        self.dim_of = np.asarray(
            [[number[e] for e in row] for row in rows], dtype=np.int64
        ).reshape(len(keys), width)
        domains = [_dim_domain(e) for e in number]
        self.factors = _stacked([f for f, _ in domains], 1)
        self.factor_counts = _counts(self.factors)
        self.seq_table = _stacked([t for _, t in domains], 2)
        self.seq_counts = _counts(self.seq_table)
        budgets = np.arange(int(self.cap.max(initial=0)) + 1)[:, None]
        self.n_under = (self.factors[:, None, :] <= budgets).sum(axis=-1)
        self.stages = _stacked([np.asarray(_stage_options(r)) for _, _, r in keys], 1)
        self.stage_counts = _counts(self.stages)

    def __len__(self) -> int:
        return self.n_spatial.shape[0]

    @property
    def width(self) -> int:
        """The widest mapping's spatial dim count (the rows' width)."""
        return self.dim_of.shape[1]

    @staticmethod
    def of_spaces(spaces: Sequence[ScheduleSpace]) -> "SpaceTable":
        return SpaceTable(
            tuple(
                (tuple(d.extent for d in s._spatial), s.max_warps_per_block, s._reduce_total)
                for s in spaces
            )
        )

    @staticmethod
    def of_mappings(table: MappingTable, indices: np.ndarray, cap: int) -> "SpaceTable":
        """The spaces of ``table``'s mappings at ``indices`` under warp cap ``cap``."""
        extents, widths = table.spatial_extents.tolist(), table.n_spatial.tolist()
        totals = table.reduce_tile_count.tolist()
        return SpaceTable(
            tuple((tuple(extents[m][: widths[m]]), cap, totals[m]) for m in indices.tolist())
        )

    def sample(self, mapping_indices: np.ndarray, u: np.ndarray) -> ScheduleBatch:
        """Draw one schedule per row, row ``i`` in mapping
        ``mapping_indices[i]``'s space, from uniform row ``u[i]``.

        ``u`` needs ``2 * width + 4`` columns: column ``2j`` picks dim
        ``j``'s warp under the running warp budget, column ``2j+1`` its
        seq, and the four columns at the row's own offset
        ``2 * n_spatial[m]`` the scalar knobs — the layout of
        :meth:`ScheduleSpace.sample_with_uniforms`, which each row equals.
        """
        mi = np.asarray(mapping_indices, dtype=np.int64)
        rows = np.arange(mi.shape[0])
        warp = np.ones((mi.shape[0], self.width), dtype=np.int64)
        seq = np.ones_like(warp)
        budget = self.cap[mi]
        for j in range(self.width):
            # The lattice is sorted: the options under the budget are a
            # prefix of it.
            e = self.dim_of[mi, j]
            widx = _pick_vec(u[:, 2 * j], self.n_under[e, budget])
            warp[:, j] = self.factors[e, widx]
            budget = np.maximum(1, budget // warp[:, j])
            sidx = _pick_vec(u[:, 2 * j + 1], self.seq_counts[e, widx])
            seq[:, j] = self.seq_table[e, widx, sidx]
        knobs = u[rows[:, None], 2 * self.n_spatial[mi][:, None] + np.arange(4)]
        return ScheduleBatch(
            warp=warp,
            seq=seq,
            reduce_stage=self.stages[mi, _pick_vec(knobs[:, 0], self.stage_counts[mi])],
            double_buffer=knobs[:, 1] < 0.5,
            unroll=_UNROLL[_pick_vec(knobs[:, 2], len(UNROLL_OPTIONS))],
            vectorize=_VECTORIZE[_pick_vec(knobs[:, 3], len(VECTORIZE_OPTIONS))],
        )

    def mutate(
        self, mapping_indices: np.ndarray, batch: ScheduleBatch, u: np.ndarray
    ) -> ScheduleBatch:
        """Mutate one knob of each row of ``batch`` (any width covering
        its mappings' dims), row ``i`` in mapping ``mapping_indices[i]``'s
        space; ``batch`` is not modified.

        ``u`` needs :data:`MUTATE_UNIFORMS` columns: branch choice, then
        two operand draws (dim pick + new value, or the unroll/vectorize
        pair of the flip branch).  Each row equals
        :meth:`ScheduleSpace.mutate_with_uniforms`, including the
        fall-through to the knob-flip branch for a mapping without
        spatial dims.
        """
        mi = np.asarray(mapping_indices, dtype=np.int64)
        splits = np.stack([batch.warp, batch.seq])
        stage, double_buffer, unroll, vectorize = (
            column.copy() for column in batch.columns()[2:]
        )
        n_spatial = self.n_spatial[mi]
        choice = _pick_vec(u[:, 0], 4)
        choice[(n_spatial == 0) & (choice < 2)] = 3
        # Branch 0 redraws a warp from the lattice under the cap, branch
        # 1 a seq from the whole lattice.
        rows = np.flatnonzero(choice < 2)
        m, branch = mi[rows], choice[rows]
        dims = _pick_vec(u[rows, 1], n_spatial[rows])
        e = self.dim_of[m, dims]
        counts = np.where(branch == 0, self.n_under[e, self.cap[m]], self.factor_counts[e])
        splits[branch, rows, dims] = self.factors[e, _pick_vec(u[rows, 2], counts)]
        rows = np.flatnonzero(choice == 2)
        m = mi[rows]
        stage[rows] = self.stages[m, _pick_vec(u[rows, 1], self.stage_counts[m])]
        rows = np.flatnonzero(choice == 3)
        double_buffer[rows] = ~double_buffer[rows]
        unroll[rows] = _UNROLL[_pick_vec(u[rows, 1], len(UNROLL_OPTIONS))]
        vectorize[rows] = _VECTORIZE[_pick_vec(u[rows, 2], len(VECTORIZE_OPTIONS))]
        return ScheduleBatch(*splits, stage, double_buffer, unroll, vectorize)


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
