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

It also holds the one row codec every batch producer shares: the
schedule-to-row encoder (:func:`encode_rows`), the per-row key builder
(:func:`row_keys`), the row plumbing (:func:`blank_rows`,
:func:`write_rows`, :func:`stack_rows`, :func:`take_rows`) and the two
decoders (:func:`schedules_from_rows`, :func:`render_describes`).  The
genetic search's population, the engine's batches and the tuner's
refinement neighbours are all rows of this one format.

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
from typing import Callable, Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.schedule.lowering import dtype_bytes, macro_dims
from repro.schedule.schedule import DimSplit, Schedule

__all__ = [
    "MappingFeatures",
    "OperandFeature",
    "ScheduleBatch",
    "BatchQuantities",
    "blank_rows",
    "derive_batch",
    "encode_rows",
    "render_describes",
    "row_keys",
    "schedules_from_rows",
    "stack_rows",
    "take_rows",
    "write_rows",
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
    """A batch of schedules encoded as rows of six columns.

    Row ``i`` is one schedule; column ``d`` of the split arrays is the
    row mapping's ``spatial_names[d]``.  A batch may hold rows of
    several mappings, padded to the widest one's width with identity
    splits (the GA population, the engine's joint batches).  Rows are
    canonical: they mean "every split present", so a schedule's
    ``describe()`` string is a pure function of its row and is rendered
    only for the rows that reach jitter encoding or trial records (see
    :func:`render_describes`).
    """

    warp: np.ndarray          # (n, n_spatial) int64
    seq: np.ndarray           # (n, n_spatial) int64
    reduce_stage: np.ndarray  # (n,) int64
    double_buffer: np.ndarray  # (n,) bool
    unroll: np.ndarray        # (n,) int64
    vectorize: np.ndarray     # (n,) int64

    def __len__(self) -> int:
        return self.reduce_stage.shape[0]

    def columns(self) -> tuple[np.ndarray, ...]:
        """The six column arrays, in field order."""
        return (
            self.warp,
            self.seq,
            self.reduce_stage,
            self.double_buffer,
            self.unroll,
            self.vectorize,
        )


# -- the row codec shared by every batch producer -----------------------------


def blank_rows(n: int, width: int) -> ScheduleBatch:
    """``n`` identity rows of ``width`` split columns (unit splits,
    stage 1, no double buffer, unroll 1, vectorize 1), to be filled
    with :func:`write_rows`."""
    return ScheduleBatch(
        warp=np.ones((n, width), dtype=np.int64),
        seq=np.ones((n, width), dtype=np.int64),
        reduce_stage=np.ones(n, dtype=np.int64),
        double_buffer=np.zeros(n, dtype=bool),
        unroll=np.ones(n, dtype=np.int64),
        vectorize=np.ones(n, dtype=np.int64),
    )


def encode_rows(
    names: Sequence[Sequence[str]], schedules: Sequence[Schedule]
) -> ScheduleBatch:
    """Encode ``schedules[i]`` against its mapping's spatial dim names
    ``names[i]`` as row ``i`` — the one object-to-row boundary.

    Every spatial split is materialised (a split the schedule leaves out
    reads as the identity split), so a schedule and its canonical form
    encode to one row, one memo key and one simulator jitter key.  Rows
    narrower than the widest ``names`` are padded with identity splits.
    """
    width = max((len(row_names) for row_names in names), default=0)
    batch = blank_rows(len(schedules), width)
    for i, (row_names, sched) in enumerate(zip(names, schedules)):
        for j, name in enumerate(row_names):
            split = sched.split_for(name)
            batch.warp[i, j] = split.warp
            batch.seq[i, j] = split.seq
        batch.reduce_stage[i] = sched.reduce_stage
        batch.double_buffer[i] = sched.double_buffer
        batch.unroll[i] = sched.unroll
        batch.vectorize[i] = sched.vectorize
    return batch


def write_rows(
    batch: ScheduleBatch, rows: np.ndarray, source: ScheduleBatch
) -> None:
    """Write ``source``'s rows into ``batch`` at ``rows``, in place; a
    narrower ``source`` (one mapping's rows) fills only its own width."""
    width = source.warp.shape[1]
    batch.warp[rows, :width] = source.warp
    batch.seq[rows, :width] = source.seq
    for column, values in zip(batch.columns()[2:], source.columns()[2:]):
        column[rows] = values


def stack_rows(batches: Sequence[ScheduleBatch], width: int) -> ScheduleBatch:
    """Concatenate equal-width batches (an empty list gives an empty
    batch of ``width`` columns)."""
    if not batches:
        return blank_rows(0, width)
    return ScheduleBatch(
        *(np.concatenate(parts) for parts in zip(*(b.columns() for b in batches)))
    )


def take_rows(
    batch: ScheduleBatch, rows: np.ndarray | Sequence[int], width: int | None = None
) -> ScheduleBatch:
    """Select rows (optionally trimming the split width) as a new batch.

    The row arrays are materialized contiguous, so a sliced batch ships
    to a pool worker as plain ndarray buffers.  ``width`` trims padded
    columns down to one mapping's ``n_spatial``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    warp, seq, *knobs = batch.columns()
    if width is not None:
        warp, seq = warp[:, :width], seq[:, :width]
    return ScheduleBatch(
        *(np.ascontiguousarray(column[rows]) for column in (warp, seq, *knobs))
    )


def row_keys(
    mapping_indices: np.ndarray,
    batch: ScheduleBatch,
    prefix_of: Callable[[int], bytes],
    width_of: Callable[[int], int],
) -> list[bytes]:
    """Canonical byte keys of batch rows, computed in one pass.

    Row ``i``'s key is ``prefix_of(m)`` (``m = mapping_indices[i]``)
    plus the raw int64 bytes of its six columns, splits trimmed to
    ``width_of(m)`` so a key does not depend on the batch's padding.
    """
    keys: list[bytes] = [b""] * len(batch)
    for mi in np.unique(mapping_indices):
        mi = int(mi)
        rows = np.nonzero(mapping_indices == mi)[0]
        d = width_of(mi)
        # column_stack widens the bool column to int64 (True -> 1).
        cols = np.column_stack(
            [c[rows, :d] if c.ndim == 2 else c[rows] for c in batch.columns()]
        )
        raw = np.ascontiguousarray(cols).tobytes()
        stride = cols.shape[1] * 8
        prefix = prefix_of(mi)
        for k, pos in enumerate(rows):
            keys[pos] = prefix + raw[k * stride : (k + 1) * stride]
    return keys


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

    The rendered string equals ``schedules_from_rows(...)[i].describe()``
    exactly.  ``indices`` restricts rendering to the rows that need a
    string (memo-miss rows headed for jitter encoding, trial records).
    """
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
