"""Structure-of-arrays fast path: mapping feature tables + schedule batches.

The exploration loop evaluates thousands of (mapping, schedule)
candidates through the analytic model and the timing simulator.  The
scalar path (:class:`~repro.schedule.lowering.ScheduledMapping`) walks a
per-candidate object graph — cached properties, per-operand footprint
objects, repeated dict lookups — and profiling shows that walk, not the
arithmetic, dominates a full tune.  This module factors one candidate
into

* a :class:`MappingFeatures` table — everything derivable from the
  :class:`~repro.mapping.physical.PhysicalMapping` alone, computed once
  per mapping (macro-dim extents, operand tile layouts, element widths,
  ``macs_per_call``, shared-memory flags, the diagonal call fraction),
* a :class:`ScheduleBatch` — a whole batch of schedules encoded as
  integer/bool numpy arrays (per-spatial-dim warp/seq splits,
  ``reduce_stage``, ``vectorize``, ``unroll``, ``double_buffer``), and
* :func:`derive_batch` — every schedule-dependent quantity of
  ``ScheduledMapping`` (grid structure, footprints, staged bytes,
  traffic) as closed-form array expressions over the two.

Bit-exactness contract: for every candidate, each derived array element
equals the corresponding ``ScheduledMapping`` property exactly — the same
integer arithmetic and the same float64 operations in the same order.
Integer quantities are exact as long as they fit float64's 2**53 integer
range wherever the scalar path divides them (true by orders of magnitude
for every registered workload); the equivalence test-suite enforces
``==``, not ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.schedule.lowering import dtype_bytes, macro_dims
from repro.schedule.schedule import DimSplit, Schedule

__all__ = [
    "MappingFeatures",
    "OperandFeature",
    "ScheduleBatch",
    "BatchQuantities",
    "encode_schedules",
    "derive_batch",
    "render_describes",
    "schedules_from_rows",
    "take_rows",
]


@dataclass(frozen=True, eq=False)
class OperandFeature:
    """Schedule-independent footprint structure of one intrinsic operand.

    ``tile_bytes`` is constant per mapping (tile shape times element
    width); the schedule only scales how many tiles are resident:
    ``spatial_positions`` index the batch's per-spatial-dim arrays
    (``min(tiles_per_block, extent)`` factors) and ``reduce_num_tiles``
    carries the tile count of each reduce dimension the operand touches
    (``min(reduce_stage, num_tiles)`` factors).
    """

    name: str
    tile_bytes: int
    is_output: bool
    spatial_positions: tuple[int, ...]
    reduce_num_tiles: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MappingFeatures:
    """Everything the batch evaluators need from one physical mapping.

    Built once per mapping (:meth:`from_physical`) and shipped to pool
    workers instead of per-candidate objects; plain ints/tuples/arrays,
    so pickling is cheap and spawn-safe.
    """

    spatial_names: tuple[str, ...]
    spatial_extents: np.ndarray  # (n_spatial,) int64
    reduce_tile_count: int
    diagonal_fraction: float
    macs_per_call: int
    uses_shared: bool
    operands: tuple[OperandFeature, ...]
    reg_bytes_per_warp: int
    #: ``physical.compute.describe()`` — the mapping half of the
    #: simulator's deterministic jitter key.
    describe_prefix: str

    @staticmethod
    def from_physical(physical: PhysicalMapping) -> "MappingFeatures":
        dims = macro_dims(physical)
        spatial = [d for d in dims if not d.is_reduce]
        spatial_pos = {d.name: i for i, d in enumerate(spatial)}
        reduce_tile_count = 1
        for d in dims:
            if d.is_reduce:
                reduce_tile_count *= d.extent

        intr = physical.intrinsic
        out_name = intr.operand_names[0]
        operands = []
        reg_bytes = 0
        for operand in intr.operand_names:
            odims = physical.operand_tile_dims(operand)
            tile_elems = 1
            spatial_positions: list[int] = []
            reduce_num_tiles: list[int] = []
            for t in odims:
                tile_elems *= physical.splits[t].problem_size
                iv = intr.compute.iter_vars[t]
                if iv.is_reduce:
                    reduce_num_tiles.append(physical.splits[t].num_tiles)
                else:
                    spatial_positions.append(spatial_pos[f"t_{iv.name}"])
            dtype = intr.out_dtype if operand == out_name else intr.in_dtype
            tile_bytes = tile_elems * dtype_bytes(dtype)
            reg_bytes += tile_bytes
            operands.append(
                OperandFeature(
                    name=operand,
                    tile_bytes=tile_bytes,
                    is_output=operand == out_name,
                    spatial_positions=tuple(spatial_positions),
                    reduce_num_tiles=tuple(reduce_num_tiles),
                )
            )

        return MappingFeatures(
            spatial_names=tuple(d.name for d in spatial),
            spatial_extents=np.array([d.extent for d in spatial], dtype=np.int64),
            reduce_tile_count=reduce_tile_count,
            diagonal_fraction=physical.diagonal_call_fraction(),
            macs_per_call=intr.macs_per_call(),
            uses_shared=intr.memory.uses_shared(),
            operands=tuple(operands),
            reg_bytes_per_warp=reg_bytes,
            describe_prefix=physical.compute.describe(),
        )


@dataclass(frozen=True, eq=False)
class ScheduleBatch:
    """A batch of schedules encoded against one mapping's spatial dims.

    Row ``i`` is one schedule; column ``d`` of the split arrays is the
    mapping's ``spatial_names[d]``.  ``describes`` optionally carries
    each schedule's canonical ``describe()`` string — the simulator's
    jitter key hashes it, and two semantically equal schedules with
    different ``splits`` dict contents describe (and therefore jitter)
    differently, so when a batch is encoded *from objects* the strings
    are part of the encoding.  A batch born as rows (the array-native
    GA, engine row entry points) ships ``describes=None``: its rows
    canonically mean "every split present", so the strings are a pure
    function of the columns and are rendered lazily — only for the rows
    that reach jitter encoding or trial records (see
    :func:`render_describes`).
    """

    warp: np.ndarray          # (n, n_spatial) int64
    seq: np.ndarray           # (n, n_spatial) int64
    reduce_stage: np.ndarray  # (n,) int64
    double_buffer: np.ndarray  # (n,) bool
    unroll: np.ndarray        # (n,) int64
    vectorize: np.ndarray     # (n,) int64
    describes: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return self.reduce_stage.shape[0]


def encode_schedules(
    features: MappingFeatures,
    schedules: Sequence[Schedule],
    describes: Sequence[str] | None = None,
) -> ScheduleBatch:
    """Encode a batch of schedules as arrays over ``features``' dims.

    ``describes`` lets a caller that already rendered each schedule's
    ``describe()`` string (the engine does, for memo keys) pass them in
    instead of rendering twice.
    """
    n = len(schedules)
    d = len(features.spatial_names)
    warp = np.ones((n, d), dtype=np.int64)
    seq = np.ones((n, d), dtype=np.int64)
    reduce_stage = np.empty(n, dtype=np.int64)
    double_buffer = np.empty(n, dtype=bool)
    unroll = np.empty(n, dtype=np.int64)
    vectorize = np.empty(n, dtype=np.int64)
    for i, sched in enumerate(schedules):
        splits = sched.splits
        for j, name in enumerate(features.spatial_names):
            split = splits.get(name)
            if split is not None:
                warp[i, j] = split.warp
                seq[i, j] = split.seq
        reduce_stage[i] = sched.reduce_stage
        double_buffer[i] = sched.double_buffer
        unroll[i] = sched.unroll
        vectorize[i] = sched.vectorize
    if describes is None:
        describes = tuple(sched.describe() for sched in schedules)
    else:
        describes = tuple(describes)
    return ScheduleBatch(
        warp=warp,
        seq=seq,
        reduce_stage=reduce_stage,
        double_buffer=double_buffer,
        unroll=unroll,
        vectorize=vectorize,
        describes=describes,
    )


def take_rows(
    batch: ScheduleBatch, rows: np.ndarray | Sequence[int], width: int | None = None
) -> ScheduleBatch:
    """Select rows (optionally trimming the split width) as a new batch.

    The row arrays are materialized contiguous, so a sliced batch ships
    to a pool worker as plain ndarray buffers — the zero-copy-pickle
    handoff of the array-native explore loop.  ``width`` trims padded
    joint-population columns down to one mapping's ``n_spatial`` (the GA
    packs mixed-mapping populations at the widest mapping's width, with
    identity splits in the padding).  ``describes`` is sliced when
    present and stays ``None`` when the batch is row-native.
    """
    rows = np.asarray(rows, dtype=np.int64)
    warp, seq = batch.warp, batch.seq
    if width is not None:
        warp, seq = warp[:, :width], seq[:, :width]
    describes = batch.describes
    if describes is not None:
        describes = tuple(describes[int(i)] for i in rows)
    return ScheduleBatch(
        warp=np.ascontiguousarray(warp[rows]),
        seq=np.ascontiguousarray(seq[rows]),
        reduce_stage=np.ascontiguousarray(batch.reduce_stage[rows]),
        double_buffer=np.ascontiguousarray(batch.double_buffer[rows]),
        unroll=np.ascontiguousarray(batch.unroll[rows]),
        vectorize=np.ascontiguousarray(batch.vectorize[rows]),
        describes=describes,
    )


def _sorted_name_order(names: Sequence[str]) -> list[int]:
    """Column order that renders splits in ``Schedule.describe()``'s
    sorted-name order (``spatial_names`` is macro-dim order)."""
    return sorted(range(len(names)), key=lambda j: names[j])


def render_describes(
    names: Sequence[str],
    batch: ScheduleBatch,
    indices: Sequence[int] | np.ndarray | None = None,
) -> list[str]:
    """Render canonical ``describe()`` strings from batch rows.

    Valid only for row-native batches, whose rows mean "every split
    present": the rendered string then equals
    ``schedules_from_rows(...)[i].describe()`` exactly.  ``indices``
    restricts rendering to the rows that need a string (memo-miss rows
    headed for jitter encoding, trial records) — the lazy-describe
    contract of the row path.
    """
    if batch.describes is not None:
        source = batch.describes
        if indices is None:
            return list(source)
        return [source[int(i)] for i in indices]
    order = _sorted_name_order(names)
    rows = range(len(batch)) if indices is None else indices
    out = []
    for i in rows:
        parts = [
            f"{names[j]}: warp={batch.warp[i, j]} seq={batch.seq[i, j]}"
            for j in order
        ]
        parts.append(f"reduce_stage={batch.reduce_stage[i]}")
        parts.append(f"double_buffer={bool(batch.double_buffer[i])}")
        parts.append(f"unroll={batch.unroll[i]} vectorize={batch.vectorize[i]}")
        out.append("; ".join(parts))
    return out


def schedules_from_rows(
    names: Sequence[str],
    batch: ScheduleBatch,
    indices: Sequence[int] | np.ndarray | None = None,
) -> list[Schedule]:
    """Materialize :class:`Schedule` objects from batch rows (canonical
    full-split form) — the trial-boundary decode of the array-native
    loop, and the scalar-oracle decode of the tests' parity check."""
    rows = range(len(batch)) if indices is None else indices
    return [
        Schedule(
            splits={
                name: DimSplit(warp=int(batch.warp[i, j]), seq=int(batch.seq[i, j]))
                for j, name in enumerate(names)
            },
            reduce_stage=int(batch.reduce_stage[i]),
            double_buffer=bool(batch.double_buffer[i]),
            unroll=int(batch.unroll[i]),
            vectorize=int(batch.vectorize[i]),
        )
        for i in rows
    ]


@dataclass(frozen=True, eq=False)
class BatchQuantities:
    """Schedule-dependent ``ScheduledMapping`` quantities, one per row.

    Every field is an int64 array of length ``len(batch)`` whose element
    ``i`` equals the same-named scalar property of
    ``ScheduledMapping(physical, schedules[i])`` exactly.
    """

    num_blocks: np.ndarray
    warps_per_block: np.ndarray
    calls_per_warp: np.ndarray
    calls_per_block: np.ndarray
    reduce_rounds: np.ndarray
    input_traffic_bytes: np.ndarray   # sum of input block_traffic_bytes
    output_traffic_bytes: np.ndarray  # sum of output block_traffic_bytes
    block_traffic_bytes: np.ndarray
    shared_bytes_per_block: np.ndarray


def derive_batch(features: MappingFeatures, batch: ScheduleBatch) -> BatchQuantities:
    """Closed-form array evaluation of the scalar lowering quantities."""
    extents = features.spatial_extents
    tiles_per_block = batch.warp * batch.seq
    # DimSplit.num_blocks: math.ceil(extent / tiles_per_block) — float
    # division then ceil, mirrored exactly.
    blocks_per_dim = np.ceil(extents / tiles_per_block).astype(np.int64)
    num_blocks = np.prod(blocks_per_dim, axis=1, dtype=np.int64)
    warps_per_block = np.prod(batch.warp, axis=1, dtype=np.int64)
    seq_tiles_per_warp = np.prod(batch.seq, axis=1, dtype=np.int64)

    reduce_rounds = np.ceil(features.reduce_tile_count / batch.reduce_stage).astype(
        np.int64
    )

    # calls_per_warp: max(1, round(raw * diagonal_fraction)); np.rint is
    # round-half-to-even, exactly Python's round().
    raw = seq_tiles_per_warp * features.reduce_tile_count
    calls_per_warp = np.maximum(
        1, np.rint(raw * features.diagonal_fraction).astype(np.int64)
    )
    calls_per_block = calls_per_warp * warps_per_block

    input_rounds = np.maximum(
        1, np.rint(reduce_rounds * features.diagonal_fraction).astype(np.int64)
    )

    n = len(batch)
    input_traffic = np.zeros(n, dtype=np.int64)
    output_traffic = np.zeros(n, dtype=np.int64)
    staged_input_bytes = np.zeros(n, dtype=np.int64)
    for op in features.operands:
        tiles_per_round = np.ones(n, dtype=np.int64)
        for pos in op.spatial_positions:
            tiles_per_round *= np.minimum(tiles_per_block[:, pos], extents[pos])
        for num_tiles in op.reduce_num_tiles:
            tiles_per_round *= np.minimum(batch.reduce_stage, num_tiles)
        staged = op.tile_bytes * tiles_per_round
        if op.is_output:
            output_traffic += staged  # rounds == 1
        else:
            staged_input_bytes += staged
            input_traffic += staged * input_rounds

    shared_bytes = np.zeros(n, dtype=np.int64)
    if features.uses_shared:
        shared_bytes = staged_input_bytes * np.where(batch.double_buffer, 2, 1)

    return BatchQuantities(
        num_blocks=num_blocks,
        warps_per_block=warps_per_block,
        calls_per_warp=calls_per_warp,
        calls_per_block=calls_per_block,
        reduce_rounds=reduce_rounds,
        input_traffic_bytes=input_traffic,
        output_traffic_bytes=output_traffic,
        block_traffic_bytes=input_traffic + output_traffic,
        shared_bytes_per_block=shared_bytes,
    )
