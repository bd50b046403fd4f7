"""Vectorized batch evaluation of the analytic model (Sec 5.3).

:func:`batch_predict` evaluates :func:`repro.model.perf_model.predict_latency`
for a whole schedule batch in a handful of numpy array expressions; the
batch may mix mappings, each row reading its mapping's row of a
:class:`~repro.schedule.features.MappingTable`.  The scalar function
stays the reference oracle: every float64 operation here is performed in
the same order per element as the scalar code (a per-mapping branch of
the scalar code is an ``np.where`` over the rows' gathered flags), so
the results are **bit-identical**, not merely close — the equivalence
suite compares with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.hardware_params import HardwareParams
from repro.schedule.features import (
    BatchQuantities,
    MappingTable,
    ScheduleBatch,
    derive_batch,
)

__all__ = ["BatchPrediction", "batch_predict"]


@dataclass(frozen=True, eq=False)
class BatchPrediction:
    """Per-candidate analytic predictions (microseconds), float64 arrays."""

    total_us: np.ndarray
    level0_us: np.ndarray
    level1_us: np.ndarray
    level2_us: np.ndarray
    read_us: np.ndarray
    write_us: np.ndarray


def batch_predict(
    table: MappingTable,
    mapping_indices: np.ndarray,
    batch: ScheduleBatch,
    hw: HardwareParams,
    quantities: BatchQuantities | None = None,
) -> BatchPrediction:
    """Analytic-model predictions for every schedule in the batch, row
    ``i`` on mapping ``mapping_indices[i]`` of ``table``.

    ``quantities`` lets a caller evaluating both model and simulator on
    the same batch derive the lowering arrays once.
    """
    mi = np.asarray(mapping_indices, dtype=np.int64)
    q = quantities if quantities is not None else derive_batch(table, mi, batch)
    clock_hz = hw.clock_ghz * 1e9

    # ---- level 0: one warp on a sub-core ---------------------------------
    cycles_per_call = table.macs_per_call[mi] / hw.intrinsic_macs_per_cycle
    l0_us = q.calls_per_warp * cycles_per_call / clock_hz * 1e6

    # ---- level 1: one block on a core ------------------------------------
    s1 = np.ceil(q.warps_per_block / hw.subcores_per_core)
    shared_bw = hw.shared_bandwidth_gbs_per_core * 1e9
    uses_shared = table.uses_shared[mi]
    r1_us = np.where(uses_shared, q.input_traffic_bytes / shared_bw * 1e6, 0.0)
    w1_us = np.where(uses_shared, q.output_traffic_bytes / shared_bw * 1e6, 0.0)
    l1_us = s1 * np.maximum(np.maximum(l0_us, r1_us), w1_us)

    # ---- level 2: the grid on the device ---------------------------------
    s2 = np.ceil(q.num_blocks / hw.num_cores)
    data_in_2 = q.input_traffic_bytes * q.num_blocks
    data_out_2 = q.output_traffic_bytes * q.num_blocks
    global_bw = hw.global_bandwidth_gbs * 1e9
    busy_cores = np.minimum(q.num_blocks, hw.num_cores)
    core_share = global_bw * busy_cores / hw.num_cores
    r2_us = (data_in_2 / s2) / core_share * 1e6
    w2_us = (data_out_2 / s2) / core_share * 1e6
    l2_us = s2 * np.maximum(np.maximum(l1_us, r2_us), w2_us)

    return BatchPrediction(
        total_us=l2_us,
        level0_us=l0_us,
        level1_us=l1_us,
        level2_us=l2_us,
        read_us=np.maximum(r1_us, r2_us),
        write_us=np.maximum(w1_us, w2_us),
    )
