"""Structure-of-arrays fast path: mapping tables + schedule batches.

The exploration loop evaluates thousands of (mapping, schedule)
candidates through the analytic model and the timing simulator.  The
scalar path (:class:`~repro.schedule.lowering.ScheduledMapping`) walks a
per-candidate object graph — cached properties, per-operand footprint
objects, repeated dict lookups — and profiling shows that walk, not the
arithmetic, dominates a full tune.  This module factors a batch of
candidates into

* a :class:`MappingTable` — everything derivable from the
  :class:`~repro.mapping.physical.PhysicalMapping` alone, as arrays
  indexed by mapping, built once for a whole mapping list (macro-dim
  extents, operand tile sizes and the dims they span,
  ``macs_per_call``, shared-memory flags, the diagonal call fraction),
* a :class:`ScheduleBatch` — a whole batch of schedules encoded as
  integer/bool numpy arrays (per-spatial-dim warp/seq splits,
  ``reduce_stage``, ``vectorize``, ``unroll``, ``double_buffer``) plus
  a per-row mapping-index vector, so one batch may mix mappings, and
* :func:`derive_batch` — every schedule-dependent quantity of
  ``ScheduledMapping`` (grid structure, footprints, staged bytes,
  traffic) as closed-form array expressions over the two, the table's
  rows gathered by each batch row's mapping index.

It also holds the one row codec every batch producer shares: the
schedule-to-row encoder (:func:`encode_rows`), the per-row key builder
(:func:`row_keys`), the row plumbing (:func:`blank_rows`,
:func:`write_rows`, :func:`stack_rows`, :func:`take_rows`) and the two
decoders (:func:`schedules_from_rows`, :func:`render_describes`).  The
genetic search's population, the engine's batches, the prefilter's
default rows and the tuner's refinement neighbours are all rows of this
one format.

Bit-exactness contract: for every candidate, each derived array element
equals the corresponding ``ScheduledMapping`` property exactly — the same
integer arithmetic and the same float64 operations in the same order.
Integer quantities are exact as long as they fit float64's 2**53 integer
range wherever the scalar path divides them (true by orders of magnitude
for every registered workload); the equivalence test-suite enforces
``==``, not ``approx``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.schedule.lowering import dtype_bytes, macro_dims
from repro.schedule.schedule import DimSplit, Schedule

__all__ = [
    "MappingTable",
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


class MappingTable:
    """Everything the batch evaluators need from a list of physical
    mappings, as arrays indexed by mapping.

    Built once per mapping list in one pass over each mapping's
    ``splits`` and ``outer_iters``; what depends on the intrinsic alone
    (operand tile shapes and element widths, which intrinsic iterations
    each operand touches, ``macs_per_call``, shared staging) is read once
    per intrinsic.  Per mapping ``m``:

    * ``spatial_extents[m]`` — the spatial macro dims' extents in
      macro-dim order (``spatial_names(m)``), padded with 1 to the widest
      mapping; ``n_spatial[m]`` is the mapping's own width;
    * ``reduce_tile_count``, ``diagonal_fraction``, ``macs_per_call``,
      ``uses_shared``, ``reg_bytes_per_warp`` — one value each;
    * per intrinsic operand ``p`` (padded to the most operands, padding
      rows have ``tile_bytes`` 0): ``tile_bytes[m, p]``,
      ``is_output[m, p]``, ``spatial_mask[m, p]`` (the spatial dims the
      operand's tile spans) and ``reduce_mask[m, p]`` (the intrinsic
      reduce iterations it spans, whose tile counts are
      ``reduce_num_tiles[m]``, padded with 1).

    The two strings a mapping contributes — its spatial dim names and
    ``physical.compute.describe()``, the mapping half of the simulator's
    jitter key — are rendered on first request only.  Read-only arrays
    rebuilt from the mapping list, so engines over one list can share a
    table and a pool worker builds its own from the pool's context.
    """

    def __init__(self, physical: Sequence[PhysicalMapping]):
        self.physical = tuple(physical)
        index_of: dict[int, int] = {}  # id(intrinsic) -> layouts position
        layouts: list[_IntrinsicLayout] = []
        layout_of: list[int] = []
        extents_rows: list[list[int]] = []
        reduce_rows: list[list[int]] = []
        reduce_tile_count: list[int] = []
        diagonal_fraction: list[float] = []
        for pm in self.physical:
            k = index_of.get(id(pm.intrinsic))
            if k is None:
                k = index_of[id(pm.intrinsic)] = len(layouts)
                layouts.append(_IntrinsicLayout(pm))
            layout = layouts[k]
            tiles = [split.num_tiles for split in pm.splits]
            extents = [tiles[t] for t in layout.spatial_iters]
            reduce_tiles = [tiles[t] for t in layout.reduce_iters]
            count = math.prod(reduce_tiles)
            for iv in pm.outer_iters:
                if iv.is_reduce:
                    count *= iv.extent
                else:
                    extents.append(iv.extent)
            layout_of.append(k)
            extents_rows.append(extents)
            reduce_rows.append(reduce_tiles)
            reduce_tile_count.append(count)
            diagonal_fraction.append(pm.diagonal_call_fraction)

        m = len(self.physical)
        self.n_spatial = np.array([len(row) for row in extents_rows], dtype=np.int64)
        self.spatial_extents = _padded(extents_rows, 1).reshape(m, -1)
        self.reduce_num_tiles = _padded(reduce_rows, 1).reshape(m, -1)
        self.reduce_tile_count = np.array(reduce_tile_count, dtype=np.int64)
        self.diagonal_fraction = np.array(diagonal_fraction, dtype=np.float64)

        # Intrinsic-level fields: one padded row per layout, gathered.
        width = self.spatial_extents.shape[1]
        n_reduce = self.reduce_num_tiles.shape[1]
        n_operands = max((len(lay.tile_bytes) for lay in layouts), default=0)
        tile_bytes = np.zeros((len(layouts), n_operands), dtype=np.int64)
        is_output = np.zeros((len(layouts), n_operands), dtype=bool)
        spatial_mask = np.zeros((len(layouts), n_operands, width), dtype=bool)
        reduce_mask = np.zeros((len(layouts), n_operands, n_reduce), dtype=bool)
        for k, lay in enumerate(layouts):
            p, s = lay.spatial_mask.shape
            tile_bytes[k, :p] = lay.tile_bytes
            is_output[k, :p] = lay.is_output
            spatial_mask[k, :p, :s] = lay.spatial_mask
            reduce_mask[k, :p, : lay.reduce_mask.shape[1]] = lay.reduce_mask
        rows = np.array(layout_of, dtype=np.int64)
        self.tile_bytes = tile_bytes[rows]
        self.is_output = is_output[rows]
        self.spatial_mask = spatial_mask[rows]
        self.reduce_mask = reduce_mask[rows]
        self.reg_bytes_per_warp = tile_bytes.sum(axis=1)[rows]
        self.macs_per_call = np.array(
            [lay.macs_per_call for lay in layouts], dtype=np.int64
        )[rows]
        self.uses_shared = np.array([lay.uses_shared for lay in layouts], dtype=bool)[rows]
        # Read-only: engines over one mapping list share one table.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._names: dict[int, tuple[str, ...]] = {}
        self._prefixes: dict[int, str] = {}

    def spatial_names(self, mapping_index: int) -> tuple[str, ...]:
        """The mapping's spatial macro dim names, in column order."""
        names = self._names.get(mapping_index)
        if names is None:
            names = self._names[mapping_index] = tuple(
                d.name for d in macro_dims(self.physical[mapping_index]) if not d.is_reduce
            )
        return names

    def describe_prefix(self, mapping_index: int) -> str:
        """``physical.compute.describe()`` — the mapping half of the
        simulator's deterministic jitter key."""
        prefix = self._prefixes.get(mapping_index)
        if prefix is None:
            prefix = self._prefixes[mapping_index] = self.physical[
                mapping_index
            ].compute.describe()
        return prefix


def _padded(rows: list[list[int]], fill: int) -> np.ndarray:
    """Ragged int rows as one int64 matrix, short rows padded with
    ``fill``."""
    width = max((len(row) for row in rows), default=0)
    return np.array([row + [fill] * (width - len(row)) for row in rows], dtype=np.int64)


class _IntrinsicLayout:
    """What a :class:`MappingTable` row takes from the mapping's
    intrinsic alone: every mapping onto it tiles each intrinsic
    iteration at the intrinsic's own extent, and the intrinsic's spatial
    iterations lead the spatial macro dims."""

    def __init__(self, physical: PhysicalMapping):
        intr = physical.intrinsic
        iter_vars = intr.compute.iter_vars
        self.spatial_iters = [t for t, iv in enumerate(iter_vars) if not iv.is_reduce]
        self.reduce_iters = [t for t, iv in enumerate(iter_vars) if iv.is_reduce]
        spatial_pos = {t: j for j, t in enumerate(self.spatial_iters)}
        reduce_pos = {t: j for j, t in enumerate(self.reduce_iters)}
        out_name = intr.operand_names[0]
        n = len(intr.operand_names)
        self.tile_bytes: list[int] = []
        self.is_output = [name == out_name for name in intr.operand_names]
        self.spatial_mask = np.zeros((n, len(self.spatial_iters)), dtype=bool)
        self.reduce_mask = np.zeros((n, len(self.reduce_iters)), dtype=bool)
        for p, operand in enumerate(intr.operand_names):
            tile_elems = 1
            for t in physical.operand_tile_dims(operand):
                tile_elems *= physical.splits[t].problem_size
                if t in reduce_pos:
                    self.reduce_mask[p, reduce_pos[t]] = True
                else:
                    self.spatial_mask[p, spatial_pos[t]] = True
            dtype = intr.out_dtype if operand == out_name else intr.in_dtype
            self.tile_bytes.append(tile_elems * dtype_bytes(dtype))
        self.macs_per_call = intr.macs_per_call()
        self.uses_shared = intr.memory.uses_shared()


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
    Both callbacks run once per distinct mapping, and the columns are
    stacked once per distinct width.
    """
    keys: list[bytes] = [b""] * len(batch)
    uniq, inverse = np.unique(mapping_indices, return_inverse=True)
    prefixes = [prefix_of(int(m)) for m in uniq]
    row_width = np.array([width_of(int(m)) for m in uniq], dtype=np.int64)[inverse]
    for d in np.unique(row_width):
        rows = np.nonzero(row_width == d)[0]
        # column_stack widens the bool column to int64 (True -> 1).
        cols = np.column_stack(
            [c[rows, :d] if c.ndim == 2 else c[rows] for c in batch.columns()]
        )
        raw = np.ascontiguousarray(cols).tobytes()
        stride = cols.shape[1] * 8
        for k, (pos, u) in enumerate(zip(rows.tolist(), inverse[rows].tolist())):
            keys[pos] = prefixes[u] + raw[k * stride : (k + 1) * stride]
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
    rows = slice(None) if indices is None else np.asarray(indices, dtype=np.intp)
    # Each column is read into Python ints once: indexing one numpy
    # scalar at a time costs more than the formatting.
    heads = [f"{names[j]}: warp=" for j in order]
    warp = batch.warp[rows][:, order].tolist()
    seq = batch.seq[rows][:, order].tolist()
    tails = zip(
        batch.reduce_stage[rows].tolist(),
        batch.double_buffer[rows].tolist(),
        batch.unroll[rows].tolist(),
        batch.vectorize[rows].tolist(),
    )
    out = []
    for w, q, (stage, double, unroll, vectorize) in zip(warp, seq, tails):
        parts = [f"{h}{a} seq={b}" for h, a, b in zip(heads, w, q)]
        parts.append(f"reduce_stage={stage}")
        parts.append(f"double_buffer={double}")
        parts.append(f"unroll={unroll} vectorize={vectorize}")
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


def derive_batch(
    table: MappingTable, mapping_indices: np.ndarray, batch: ScheduleBatch
) -> BatchQuantities:
    """Closed-form array evaluation of the scalar lowering quantities.

    Row ``i`` is evaluated against mapping ``mapping_indices[i]`` of
    ``table``, so one call covers a batch that mixes mappings.
    """
    mi = np.asarray(mapping_indices, dtype=np.int64)
    n_spatial = table.n_spatial[mi]
    width = batch.warp.shape[1]
    if len(mi) and int(n_spatial.max()) > width:
        raise ValueError("batch rows are narrower than their mappings")
    width = min(width, table.spatial_extents.shape[1])
    # Columns past a row's own mapping width are padding: identity splits
    # over unit extents, whatever the batch holds there.
    own = np.arange(width) < n_spatial[:, None]
    warp = np.where(own, batch.warp[:, :width], 1)
    seq = np.where(own, batch.seq[:, :width], 1)
    extents = table.spatial_extents[mi, :width]

    tiles_per_block = warp * seq
    # DimSplit.num_blocks: math.ceil(extent / tiles_per_block) — float
    # division then ceil, mirrored exactly.
    blocks_per_dim = np.ceil(extents / tiles_per_block).astype(np.int64)
    num_blocks = np.prod(blocks_per_dim, axis=1, dtype=np.int64)
    warps_per_block = np.prod(warp, axis=1, dtype=np.int64)
    seq_tiles_per_warp = np.prod(seq, axis=1, dtype=np.int64)

    reduce_tile_count = table.reduce_tile_count[mi]
    reduce_rounds = np.ceil(reduce_tile_count / batch.reduce_stage).astype(np.int64)

    # calls_per_warp: max(1, round(raw * diagonal_fraction)); np.rint is
    # round-half-to-even, exactly Python's round().
    diagonal_fraction = table.diagonal_fraction[mi]
    raw = seq_tiles_per_warp * reduce_tile_count
    calls_per_warp = np.maximum(1, np.rint(raw * diagonal_fraction).astype(np.int64))
    calls_per_block = calls_per_warp * warps_per_block

    input_rounds = np.maximum(
        1, np.rint(reduce_rounds * diagonal_fraction).astype(np.int64)
    )

    # Tiles each operand holds per staging round: the product of the
    # clipped per-block tiles of the spatial dims its tile spans and the
    # staged tiles of the reduce iterations it spans (masked factors 1).
    spatial_tiles = np.minimum(tiles_per_block, extents)[:, None, :]
    reduce_tiles = np.minimum(batch.reduce_stage[:, None], table.reduce_num_tiles[mi])
    tiles_per_round = np.prod(
        np.where(table.spatial_mask[mi, :, :width], spatial_tiles, 1), axis=2
    ) * np.prod(np.where(table.reduce_mask[mi], reduce_tiles[:, None, :], 1), axis=2)
    staged = table.tile_bytes[mi] * tiles_per_round
    is_output = table.is_output[mi]
    output_traffic = np.where(is_output, staged, 0).sum(axis=1)  # rounds == 1
    staged_input_bytes = np.where(is_output, 0, staged).sum(axis=1)
    input_traffic = staged_input_bytes * input_rounds
    shared_bytes = np.where(
        table.uses_shared[mi],
        staged_input_bytes * np.where(batch.double_buffer, 2, 1),
        0,
    )

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
