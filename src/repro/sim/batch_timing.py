"""Vectorized batch evaluation of the cycle-level timing simulator.

:func:`batch_simulate` reproduces :func:`repro.sim.timing.simulate_cycles`
for a whole schedule batch as array expressions, rows of several mappings
in one call: residency limits, wave quantisation, the three pipelines,
occupancy — and the deterministic per-candidate measurement jitter,
whose hash keys are preserved exactly (each mapping's describe prefix
comes from the mapping table, each schedule's canonical describe string
is rendered from its row; both only for the rows that reach the jitter).

Bit-exactness: every float64 operation is performed in the same order per
element as the scalar code; ``math.log2``-based vector efficiencies are
computed through Python's ``math.log2`` on the (few) unique vectorize
values rather than ``np.log2``, so no libm discrepancy can creep in.
The scalar function remains the reference oracle and the equivalence
suite compares with ``==``.

Telemetry parity: the batch path feeds the same ``sim.*`` counters as
per-candidate simulation, in aggregated increments.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.model.hardware_params import HardwareParams
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import tracing_enabled as _obs_enabled
from repro.schedule.features import (
    BatchQuantities,
    MappingTable,
    ScheduleBatch,
    derive_batch,
    render_describes,
)
from repro.sim.timing import JITTER_AMPLITUDE

__all__ = ["BatchTiming", "batch_simulate"]

_BOUND_NAMES = ("compute", "memory", "shared")


@dataclass(frozen=True, eq=False)
class BatchTiming:
    """Per-candidate simulated timings; same fields as ``TimingBreakdown``."""

    total_us: np.ndarray              # float64
    compute_us: np.ndarray            # float64
    memory_us: np.ndarray             # float64
    shared_us: np.ndarray             # float64
    waves: np.ndarray                 # int64
    resident_blocks_per_core: np.ndarray  # int64
    occupancy: np.ndarray             # float64
    jitter: np.ndarray                # float64


def _batch_resident_blocks(
    q: BatchQuantities, reg_bytes_per_warp: np.ndarray, hw: HardwareParams
) -> np.ndarray:
    """Vectorized ``resident_blocks``: min over the capacity limits."""
    n = q.num_blocks.shape[0]
    resident = np.full(n, hw.max_blocks_per_core, dtype=np.int64)

    shared = q.shared_bytes_per_block
    shared_limit = np.where(
        shared <= hw.shared_capacity_bytes,
        hw.shared_capacity_bytes // np.maximum(shared, 1),
        0,
    )
    resident = np.where(shared > 0, np.minimum(resident, shared_limit), resident)

    warp_slots = hw.max_warps_per_subcore * hw.subcores_per_core
    resident = np.minimum(resident, warp_slots // np.maximum(q.warps_per_block, 1))

    reg_per_block = reg_bytes_per_warp * q.warps_per_block
    reg_capacity = hw.reg_capacity_bytes * hw.subcores_per_core
    reg_limit = reg_capacity // np.maximum(reg_per_block, 1)
    resident = np.where(reg_per_block > 0, np.minimum(resident, reg_limit), resident)

    return np.maximum(0, resident)


def _jitter_factors(keys: Iterable[str]) -> np.ndarray:
    """:func:`repro.sim.timing._jitter_factor` of each key, as one array.

    Bit-identical to the scalar: the first 8 digest bytes read as a
    big-endian uint64 convert to float64 with the same rounding as
    Python's ``int`` to ``float``, and the rest is the same float64
    arithmetic in the same order."""
    digests = b"".join(hashlib.sha256(key.encode()).digest()[:8] for key in keys)
    unit = np.frombuffer(digests, dtype=">u8").astype(np.float64) / float(1 << 64)
    return 1.0 + JITTER_AMPLITUDE * (2.0 * unit - 1.0)


def batch_simulate(
    table: MappingTable,
    mapping_indices: np.ndarray,
    batch: ScheduleBatch,
    hw: HardwareParams,
    jitter: bool = True,
    quantities: BatchQuantities | None = None,
) -> BatchTiming:
    """Simulate every schedule in the batch, row ``i`` on mapping
    ``mapping_indices[i]`` of ``table``; zero-residency candidates are
    reported infinitely slow exactly like the scalar path."""
    mi = np.asarray(mapping_indices, dtype=np.int64)
    q = quantities if quantities is not None else derive_batch(table, mi, batch)
    n = len(batch)
    resident = _batch_resident_blocks(q, table.reg_bytes_per_warp[mi], hw)
    feasible = resident > 0
    # Clamped denominator for the masked lanes; their outputs are
    # overwritten with the scalar path's infeasible constants below.
    res = np.maximum(resident, 1)

    num_blocks = q.num_blocks
    concurrent = np.minimum(num_blocks, res * hw.num_cores)
    waves = np.ceil(num_blocks / (res * hw.num_cores)).astype(np.int64)

    clock_hz = hw.clock_ghz * 1e9

    # --- compute pipeline -------------------------------------------------
    warps_per_core = q.warps_per_block * res
    active_subcores = np.minimum(hw.subcores_per_core, warps_per_core)
    calls_per_core = q.calls_per_block * res
    compute_cycles = calls_per_core * table.macs_per_call[mi] / (
        hw.intrinsic_macs_per_cycle * active_subcores
    )
    warps_per_subcore = warps_per_core / hw.subcores_per_core
    compute_cycles = np.where(
        warps_per_subcore < 2.0,
        compute_cycles * (1.0 + 0.5 * (2.0 - warps_per_subcore)),
        compute_cycles,
    )
    overhead_per_call = 4.0 / batch.unroll
    compute_cycles = compute_cycles + calls_per_core * overhead_per_call / active_subcores
    compute_us = compute_cycles / clock_hz * 1e6

    # --- global-memory pipeline ------------------------------------------
    # math.log2 on the unique vectorize values (not np.log2): identical
    # bits to the scalar path regardless of the libm behind numpy.
    uniq, inverse = np.unique(batch.vectorize, return_inverse=True)
    eff_table = np.array(
        [min(1.0, 0.55 + 0.15 * math.log2(max(int(v), 1))) for v in uniq]
    )
    vector_eff = eff_table[inverse]
    effective_bw = hw.global_bandwidth_gbs * 1e9 * vector_eff
    wave_traffic = q.block_traffic_bytes * concurrent
    memory_us = wave_traffic / effective_bw * 1e6

    # --- shared-memory pipeline -------------------------------------------
    uses_shared = table.uses_shared[mi]
    shared_traffic = 2.0 * q.shared_bytes_per_block * q.reduce_rounds * res
    shared_us = np.where(
        uses_shared,
        shared_traffic / (hw.shared_bandwidth_gbs_per_core * 1e9) * 1e6,
        0.0,
    )

    # --- combine ------------------------------------------------------------
    wave_us = np.maximum(np.maximum(compute_us, memory_us), shared_us)
    # No overlap between staging and compute: pay both serially.
    wave_us = np.where(
        uses_shared & ~batch.double_buffer,
        compute_us + np.maximum(memory_us, shared_us),
        wave_us,
    )
    total_us = waves * wave_us + hw.launch_overhead_us

    jitter_factors = np.ones(n)
    if jitter:
        rows = np.nonzero(feasible)[0]
        row_mappings = mi[rows]
        # The jitter key's two describe halves are rendered here, only
        # for the feasible rows that reach jitter encoding.
        keyed: list[np.ndarray] = []
        keys: list[str] = []
        tail = f"|{hw.name}"
        for m in np.unique(row_mappings).tolist():
            head = f"{table.describe_prefix(m)}|"
            own = rows[row_mappings == m]
            keyed.append(own)
            keys.extend(
                head + text + tail
                for text in render_describes(table.spatial_names(m), batch, own)
            )
        if keys:
            jitter_factors[np.concatenate(keyed)] = _jitter_factors(keys)
        total_us = total_us * jitter_factors

    warp_slots = hw.max_warps_per_subcore * hw.subcores_per_core
    occupancy = np.minimum(1.0, (q.warps_per_block * res) / warp_slots)

    # Overwrite the masked lanes with the scalar infeasible constants.
    infeasible = ~feasible
    if infeasible.any():
        total_us = np.where(infeasible, np.inf, total_us)
        compute_us = np.where(infeasible, np.inf, compute_us)
        memory_us = np.where(infeasible, 0.0, memory_us)
        shared_us = np.where(infeasible, 0.0, shared_us)
        waves = np.where(infeasible, 0, waves)
        occupancy = np.where(infeasible, 0.0, occupancy)
        jitter_factors = np.where(infeasible, 1.0, jitter_factors)

    _record_metrics(feasible, compute_us, memory_us, shared_us)

    return BatchTiming(
        total_us=total_us,
        compute_us=compute_us,
        memory_us=memory_us,
        shared_us=shared_us,
        waves=waves,
        resident_blocks_per_core=resident,
        occupancy=occupancy,
        jitter=jitter_factors,
    )


def _record_metrics(
    feasible: np.ndarray,
    compute_us: np.ndarray,
    memory_us: np.ndarray,
    shared_us: np.ndarray,
) -> None:
    """Same ``sim.*`` counters as n scalar ``simulate_cycles`` calls."""
    n = feasible.shape[0]
    n_feasible = int(feasible.sum())
    _obs_metrics.counter("sim.runs").inc(n)
    if n_feasible < n:
        _obs_metrics.counter("sim.infeasible").inc(n - n_feasible)
    if not (_obs_enabled() and n_feasible):
        return
    idx = np.nonzero(feasible)[0]
    # argmax over the stacked pipelines returns the first maximum, the
    # same tie-break as TimingBreakdown.bound's dict ordering.
    bound_idx = np.argmax(
        np.stack([compute_us[idx], memory_us[idx], shared_us[idx]]), axis=0
    )
    counts = np.bincount(bound_idx, minlength=3)
    for name, count in zip(_BOUND_NAMES, counts):
        if count:
            _obs_metrics.counter(f"sim.bound.{name}").inc(int(count))
