"""Cycle-level timing of a scheduled mapping.

This is the reproduction's stand-in for running generated kernels on real
hardware.  It models the effects that determine which mappings and
schedules win on a physical device:

* **occupancy / residency** — blocks per core limited by shared-memory
  capacity, warp contexts and the block-residency cap;
* **wave quantisation** — the grid executes in ``ceil(blocks / resident)``
  waves; a tail wave costs a full wave;
* **pipelined per-block execution** — per staging round, compute overlaps
  the global->shared copy and shared->register loads; the slowest of the
  three pipelines dominates (exactly the paper's max(L, R, W) structure),
  plus a fill term when not double-buffered;
* **bandwidth contention** — concurrent blocks share the global-memory
  bandwidth and each core's shared-memory bandwidth;
* **fixed kernel-launch overhead**;
* **deterministic measurement jitter** — a small hash-seeded multiplicative
  term standing in for run-to-run variance of real measurements, so the
  analytic model's rank accuracy is meaningfully below 1.0 as in Fig 5.

The model is intentionally richer than :mod:`repro.model.perf_model` (the
paper's analytic model); Fig 5's model-validation experiment measures how
well the simple model tracks this "hardware".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.model.hardware_params import HardwareParams
from repro.obs import metrics as _obs_metrics
from repro.schedule.lowering import ScheduledMapping


@dataclass(frozen=True)
class TimingBreakdown:
    """Simulated execution time with its main components (microseconds)."""

    total_us: float
    compute_us: float
    memory_us: float
    shared_us: float
    waves: int
    resident_blocks_per_core: int
    occupancy: float
    jitter: float

    @property
    def bound(self) -> str:
        """Which pipeline dominated: ``compute``/``memory``/``shared``."""
        parts = {
            "compute": self.compute_us,
            "memory": self.memory_us,
            "shared": self.shared_us,
        }
        return max(parts, key=parts.get)


#: Half-width of the measurement jitter band.
JITTER_AMPLITUDE = 0.03


def _jitter_factor(key: str) -> float:
    """Deterministic pseudo-measurement noise within ``JITTER_AMPLITUDE`` of 1."""
    digest = hashlib.sha256(key.encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 1.0 + JITTER_AMPLITUDE * (2.0 * unit - 1.0)


def resident_blocks(sched: ScheduledMapping, hw: HardwareParams) -> int:
    """Blocks resident per core under shared/warp/register limits."""
    limits = [hw.max_blocks_per_core]
    shared = sched.shared_bytes_per_block
    if shared > 0:
        limits.append(hw.shared_capacity_bytes // shared if shared <= hw.shared_capacity_bytes else 0)
    warp_slots = hw.max_warps_per_subcore * hw.subcores_per_core
    limits.append(warp_slots // max(sched.warps_per_block, 1))
    reg_per_block = sched.reg_bytes_per_warp * sched.warps_per_block
    reg_capacity = hw.reg_capacity_bytes * hw.subcores_per_core
    if reg_per_block > 0:
        limits.append(reg_capacity // reg_per_block)
    return max(0, min(limits))


def simulate_cycles(
    sched: ScheduledMapping,
    hw: HardwareParams,
    jitter: bool = True,
) -> TimingBreakdown:
    """Simulate one kernel execution; returns the timing breakdown.

    A schedule whose block cannot fit the hardware at all (zero residency)
    is reported as infinitely slow rather than an error, so the explorer
    can penalise it smoothly.
    """
    resident = resident_blocks(sched, hw)
    if resident == 0:
        _obs_metrics.counter("sim.runs").inc()
        _obs_metrics.counter("sim.infeasible").inc()
        return TimingBreakdown(
            total_us=float("inf"),
            compute_us=float("inf"),
            memory_us=0.0,
            shared_us=0.0,
            waves=0,
            resident_blocks_per_core=0,
            occupancy=0.0,
            jitter=1.0,
        )

    num_blocks = sched.num_blocks
    concurrent = min(num_blocks, resident * hw.num_cores)
    waves = math.ceil(num_blocks / (resident * hw.num_cores))

    clock_hz = hw.clock_ghz * 1e9
    intr = sched.physical.intrinsic
    macs_per_call = intr.macs_per_call()

    # --- compute pipeline -------------------------------------------------
    # Warps of the resident blocks share the core's sub-cores; each
    # sub-core retires intrinsic work at intrinsic_macs_per_cycle.
    warps_per_core = sched.warps_per_block * resident
    active_subcores = min(hw.subcores_per_core, warps_per_core)
    calls_per_core = sched.calls_per_block * resident
    compute_cycles = calls_per_core * macs_per_call / (
        hw.intrinsic_macs_per_cycle * active_subcores
    )
    # Low instruction-level parallelism penalty: a single warp per
    # sub-core cannot hide the intrinsic pipeline latency.
    warps_per_subcore = warps_per_core / hw.subcores_per_core
    if warps_per_subcore < 2.0:
        compute_cycles *= 1.0 + 0.5 * (2.0 - warps_per_subcore)
    # Loop overhead shrinks with unrolling.
    overhead_per_call = 4.0 / sched.schedule.unroll
    compute_cycles += calls_per_core * overhead_per_call / active_subcores
    compute_us = compute_cycles / clock_hz * 1e6

    # --- global-memory pipeline ------------------------------------------
    vector_eff = min(1.0, 0.55 + 0.15 * math.log2(max(sched.schedule.vectorize, 1)))
    effective_bw = hw.global_bandwidth_gbs * 1e9 * vector_eff
    wave_traffic = sched.block_traffic_bytes * concurrent
    memory_us = wave_traffic / effective_bw * 1e6

    # --- shared-memory pipeline -------------------------------------------
    shared_us = 0.0
    if intr.memory.uses_shared():
        # Every staged byte is written once and read once per round by the
        # warps; per-core bandwidth shared by resident blocks of that core.
        shared_traffic = 2.0 * sched.shared_bytes_per_block * sched.reduce_rounds * resident
        shared_us = shared_traffic / (hw.shared_bandwidth_gbs_per_core * 1e9) * 1e6

    # --- combine ------------------------------------------------------------
    wave_us = max(compute_us, memory_us, shared_us)
    if not sched.schedule.double_buffer and intr.memory.uses_shared():
        # No overlap between staging and compute: pay both serially.
        wave_us = compute_us + max(memory_us, shared_us)
    total_us = waves * wave_us + hw.launch_overhead_us

    jitter_factor = 1.0
    if jitter:
        key = f"{sched.physical.compute.describe()}|{sched.schedule.describe()}|{hw.name}"
        jitter_factor = _jitter_factor(key)
        total_us *= jitter_factor

    warp_slots = hw.max_warps_per_subcore * hw.subcores_per_core
    occupancy = min(1.0, (sched.warps_per_block * resident) / warp_slots)

    breakdown = TimingBreakdown(
        total_us=total_us,
        compute_us=compute_us,
        memory_us=memory_us,
        shared_us=shared_us,
        waves=waves,
        resident_blocks_per_core=resident,
        occupancy=occupancy,
        jitter=jitter_factor,
    )

    # Which pipeline bounded each kernel.  No-ops while obs is disabled.
    _obs_metrics.counter("sim.runs").inc()
    _obs_metrics.counter(f"sim.bound.{breakdown.bound}").inc()

    return breakdown


def simulate_scalar_fallback(
    flops: int,
    traffic_bytes: int,
    hw: HardwareParams,
    efficiency: float = 0.45,
    memory_efficiency: float = 0.6,
    overhead_us: float | None = None,
) -> float:
    """Execution time (us) of an operator on the scalar/SIMT path.

    Used for compilers/libraries that fail to tensorise an operator: the
    work runs on the device's scalar units at a realistic fraction of peak.

    Args:
        flops: scalar floating-point operations of the operator.
        traffic_bytes: compulsory global traffic (inputs + outputs) at the
            element width the fallback actually uses (libraries run these
            kernels in fp32, doubling traffic versus AMOS's fp16 paths).
        hw: device parameters.
        efficiency: achieved fraction of scalar compute peak.
        memory_efficiency: achieved fraction of global bandwidth; generic
            scalar kernels for irregular operators sit well below peak.
        overhead_us: fixed per-kernel cost; defaults to the device's
            launch overhead (frameworks add dispatch cost on top).
    """
    if overhead_us is None:
        overhead_us = hw.launch_overhead_us
    compute_us = flops / (hw.peak_scalar_flops * efficiency) * 1e6
    memory_us = traffic_bytes / (hw.global_bandwidth_gbs * 1e9 * memory_efficiency) * 1e6
    return max(compute_us, memory_us) + overhead_us
