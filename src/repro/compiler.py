"""Top-level AMOS compilation pipeline (paper Fig 2).

``amos_compile`` takes a high-level computation (the DSL stage), generates
and validates software-hardware mappings against the target's intrinsic
abstractions, explores the joint mapping x schedule space with the
performance model + genetic tuner, and returns the compiled artifact:
the chosen mapping, schedule, simulated latency and generated source.

When ``TunerConfig.cache_dir`` is set, compiled kernels are also written
to (and served from) the persistent compile cache: a repeated compile of
an identical (computation, hardware, tuner budget) triple skips the whole
exploration: it admits and lowers only the stored matching (one column
bitmask per software iteration), checks it against the stored mapping
fingerprint and applies the stored schedule descriptor.  Admission,
lowering and the fingerprint are each memoized per process, so a
repeated hit does none of them again.  Entries whose
fingerprints no longer match the live objects are ignored, never served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.cache import CompileCache, compile_cache_for
from repro.engine.fingerprint import (
    computation_fingerprint,
    hardware_fingerprint,
    mapping_fingerprint,
    tuner_config_fingerprint,
)
from repro.explore.tuner import (
    ExplorationResult,
    Tuner,
    TunerConfig,
    lowered_mappings,
    release_lowered,
)
from repro.frontends.operators import operator_traffic_bytes
from repro.ir.compute import ReduceComputation
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import enumerate_mappings
# Not called here (a hit lowers through ``lowered_mappings``), but kept
# as a module attribute: perfbench's traced profile patches it.
from repro.mapping.physical import lower_to_physical  # noqa: F401
from repro.model.hardware_params import HardwareParams, get_hardware
from repro.obs import metrics as _obs_metrics
from repro.obs.explore_log import ExploreLog, current_log, use_log
from repro.obs.runlog import FlightRecorder, active_recorder
from repro.obs.trace import span as _obs_span
from repro.obs.trace import tracing_enabled as _obs_enabled
from repro.schedule.lowering import ScheduledMapping, lower_schedule
from repro.schedule.schedule import Schedule
from repro.sim.timing import simulate_scalar_fallback


@dataclass(frozen=True)
class CompiledKernel:
    """Result of compiling one operator.

    Attributes:
        computation: the input operator.
        scheduled: the selected mapping + schedule (None on the scalar
            fallback path).
        latency_us: simulated execution time.
        used_intrinsics: whether a spatial intrinsic mapping was found.
        num_mappings: size of the valid mapping set explored.
        source: generated kernel source (CUDA-like pseudo code).
    """

    computation: ReduceComputation
    scheduled: ScheduledMapping | None
    latency_us: float
    used_intrinsics: bool
    num_mappings: int
    source: str = ""

    def gflops(self) -> float:
        flops = self.computation.flop_count()
        return flops / (self.latency_us * 1e-6) / 1e9 if self.latency_us > 0 else 0.0


def amos_compile(
    comp: ReduceComputation,
    hardware: HardwareParams | str,
    config: TunerConfig | None = None,
    emit_source: bool = False,
) -> CompiledKernel:
    """Compile one operator for a spatial accelerator.

    Falls back to the scalar path when no valid mapping exists (e.g.
    element-wise operators on a matmul-only target), matching AMOS's
    behaviour of leaving inherently unsupported operators on the general-
    purpose units.

    When ``TunerConfig.run_dir`` is set, the compile writes a
    :class:`~repro.obs.runlog.RunRecord` manifest there.  The recorder
    spans the *whole* pipeline — enumeration, exploration, codegen and
    the compile cache — and the inner ``Tuner.tune`` sees it as active,
    so one compile produces exactly one manifest.
    """
    hw = get_hardware(hardware) if isinstance(hardware, str) else hardware
    if config is not None and config.run_dir and active_recorder() is None:
        fingerprints = {
            "computation": computation_fingerprint(comp),
            "hardware": hardware_fingerprint(hw),
            "tuner_config": tuner_config_fingerprint(config),
        }
        with FlightRecorder(
            config.run_dir, "compile", comp.name, hw.name, config, fingerprints
        ) as recorder:
            kernel = _compile_logged(comp, hw, config, emit_source)
            outcome: dict[str, Any] = {
                "latency_us": kernel.latency_us,
                "used_intrinsics": kernel.used_intrinsics,
                "num_mappings": kernel.num_mappings,
            }
            if kernel.scheduled is not None:
                outcome["mapping"] = kernel.scheduled.physical.compute.describe()
                outcome["schedule"] = kernel.scheduled.schedule.describe()
            recorder.set_outcome(**outcome)
        return kernel
    return _compile_logged(comp, hw, config, emit_source)


def _compile_logged(
    comp: ReduceComputation,
    hw: HardwareParams,
    config: TunerConfig | None,
    emit_source: bool,
) -> CompiledKernel:
    # When observability is on and the caller did not bind an ExploreLog,
    # open one for the whole compile so the enumeration stage (which runs
    # before Tuner.tune) lands in the same funnel as the exploration.
    if current_log() is None and _obs_enabled():
        with use_log(ExploreLog(operator=comp.name, hardware=hw.name)):
            return _compile_impl(comp, hw, config, emit_source)
    return _compile_impl(comp, hw, config, emit_source)


def _compile_impl(
    comp: ReduceComputation,
    hw: HardwareParams,
    config: TunerConfig | None,
    emit_source: bool,
) -> CompiledKernel:
    with _obs_span(
        "compile", operator=comp.name, hardware=hw.name
    ) as compile_span:
        cache: CompileCache | None = None
        cache_key = ""
        if config is not None and config.cache_dir:
            cache = compile_cache_for(config.cache_dir)
            comp_fp = computation_fingerprint(comp)
            hw_fp = hardware_fingerprint(hw)
            cache_key = f"{comp_fp}|{hw_fp}|{tuner_config_fingerprint(config)}"
            kernel = _kernel_from_cache(
                cache.lookup(cache_key), comp, comp_fp, hw, hw_fp, config, emit_source
            )
            if kernel is not None:
                _obs_metrics.counter("engine.compile_cache.hit").inc()
                compile_span.set(
                    cache_hit=True,
                    used_intrinsics=kernel.used_intrinsics,
                    latency_us=kernel.latency_us,
                )
                return kernel
            _obs_metrics.counter("engine.compile_cache.miss").inc()

        tuner = Tuner(hw, config)
        mappings = tuner.candidate_mappings(comp)
        if not mappings:
            with _obs_span("compile.scalar_fallback"):
                latency = simulate_scalar_fallback(
                    comp.flop_count(), operator_traffic_bytes(comp), hw
                )
            compile_span.set(used_intrinsics=False, latency_us=latency)
            kernel = CompiledKernel(comp, None, latency, False, 0)
            if cache is not None:
                _store_in_cache(cache, cache_key, comp, hw, config, kernel)
            return kernel
        result: ExplorationResult = tuner.tune(comp, mappings)
        source = ""
        if emit_source:
            from repro.codegen.cuda_like import emit_kernel

            with _obs_span("compile.codegen"):
                source = emit_kernel(result.best, hw)
        compile_span.set(
            used_intrinsics=True,
            latency_us=result.best_us,
            num_mappings=result.num_mappings,
        )
        kernel = CompiledKernel(
            computation=comp,
            scheduled=result.best,
            latency_us=result.best_us,
            used_intrinsics=True,
            num_mappings=result.num_mappings,
            source=source,
        )
        if cache is not None:
            _store_in_cache(cache, cache_key, comp, hw, config, kernel)
            # A repeat compile is now a cache hit, which lowers only the
            # stored mapping, so the lowered set need not be kept.
            release_lowered(comp)
        return kernel


def _store_in_cache(
    cache: CompileCache,
    key: str,
    comp: ReduceComputation,
    hw: HardwareParams,
    config: TunerConfig,
    kernel: CompiledKernel,
) -> None:
    """Persist a freshly compiled kernel.

    Everything needed to *reconstruct* the kernel later is stored by
    fingerprint + descriptor (never by pickling live objects): the chosen
    intrinsic's name, the winning mapping's matching (per software
    iteration, the bitmask of the intrinsic iterations it maps to) and
    fingerprint, and the schedule's dict form.  Rebuilding admits and
    lowers only that matching and compares fingerprints, so a cache
    written by a different code version that no longer reproduces the
    mapping simply misses instead of lying.
    """
    entry: dict[str, Any] = {
        "comp_fp": computation_fingerprint(comp),
        "hw_fp": hardware_fingerprint(hw),
        "config_fp": tuner_config_fingerprint(config),
        "operator": comp.name,
        "hardware": hw.name,
        "used_intrinsics": kernel.used_intrinsics,
        "latency_us": kernel.latency_us,
        "num_mappings": kernel.num_mappings,
        "intrinsic": None,
        "matching": None,
        "mapping_fp": None,
        "schedule": None,
    }
    if kernel.scheduled is not None:
        matching = kernel.scheduled.physical.compute.matching
        entry["intrinsic"] = kernel.scheduled.physical.intrinsic.name
        entry["matching"] = [
            sum(1 << t for t in matching.targets_of(c))
            for c in range(matching.num_software)
        ]
        entry["mapping_fp"] = mapping_fingerprint(kernel.scheduled.physical)
        entry["schedule"] = kernel.scheduled.schedule.to_dict()
    cache.store(key, entry)


def _kernel_from_cache(
    entry: dict[str, Any] | None,
    comp: ReduceComputation,
    comp_fp: str,
    hw: HardwareParams,
    hw_fp: str,
    config: TunerConfig,
    emit_source: bool,
) -> CompiledKernel | None:
    """Rebuild a CompiledKernel from a cache entry; None forces a re-tune.

    An entry is trusted only as far as its fingerprints go: the stored
    computation/hardware fingerprints must match the live objects, the
    stored matching must pass the enumeration's admission rules
    (``enumerate_mappings`` restricted to that one choice tuple) and its
    lowered mapping must match the stored mapping fingerprint.  Any
    mismatch (hand-edited file, an entry without a matching, stale code
    version, hash collision in the key space) makes this a miss, never a
    wrong answer.
    """
    if entry is None:
        return None
    if entry.get("comp_fp") != comp_fp or entry.get("hw_fp") != hw_fp:
        return None  # poisoned / stale entry
    latency = entry.get("latency_us")
    if not isinstance(latency, (int, float)):
        return None
    num_mappings = entry.get("num_mappings")
    if not isinstance(num_mappings, int):
        return None

    if not entry.get("used_intrinsics"):
        return CompiledKernel(comp, None, float(latency), False, num_mappings)

    schedule_dict = entry.get("schedule")
    matching = entry.get("matching")
    if not isinstance(schedule_dict, dict) or not isinstance(matching, list):
        return None
    with _obs_span("compile.cache_rebuild", operator=comp.name):
        name = entry.get("intrinsic")
        intrinsic = next(
            (i for i in intrinsics_for_target(hw.target) if i.name == name), None
        )
        if intrinsic is None:
            return None
        rebuilt = enumerate_mappings(
            comp, intrinsic, config.generation_options, columns=matching
        )
        if not rebuilt:
            return None
        (physical,) = lowered_mappings(rebuilt)
        if mapping_fingerprint(physical) != entry.get("mapping_fp"):
            return None
        try:
            schedule = Schedule.from_dict(schedule_dict)
            scheduled = lower_schedule(physical, schedule)
        except (KeyError, TypeError, ValueError):
            return None
        source = ""
        if emit_source:
            from repro.codegen.cuda_like import emit_kernel

            source = emit_kernel(scheduled, hw)
    return CompiledKernel(
        computation=comp,
        scheduled=scheduled,
        latency_us=float(latency),
        used_intrinsics=True,
        num_mappings=num_mappings,
        source=source,
    )
