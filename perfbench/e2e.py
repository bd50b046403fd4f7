"""The benchmark's three workloads, their correctness checks and metrics.

Every workload is a closed loop with one client: one process compiles
one operator after another through the public API (``amos_compile``,
``evaluate_network``) at the default :class:`~repro.TunerConfig`, with
only ``seed`` (and ``cache_dir`` where a workload uses the compile
cache) set.  A *pass* is the workload's unit of work; the timed phase
repeats passes and every metric is computed over them.

Why these three workloads, and which layer each one stresses, is written
down in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ContextManager

import repro.compiler as compiler
import repro.evaluation as evaluation
from repro import TunerConfig, get_hardware, get_network, simulate_cycles, validate_mapping
from repro.engine.cache import CompileCache, reset_compile_caches, reset_global_memo
from repro.frontends.workloads import RESNET18_CONV_LAYERS
from speed import REFERENCE_S, SpeedProbe

# ``compiler.amos_compile`` and ``evaluation.evaluate_network`` are looked
# up on their modules at call time, so the tracer's wrappers see them.

P90_MIN_SAMPLES = 100


def check_kernel(kernel: Any, hw: Any) -> str | None:
    """Why ``kernel`` is wrong, or None when it passes.

    A mapped kernel must pass Algorithm 1 (``validate_mapping``) and its
    reported latency must equal the scalar simulator oracle's exactly
    (the batch evaluators are bit-identical to the scalar ones).
    """
    if kernel.scheduled is None:
        return "mapped kernel without a schedule" if kernel.used_intrinsics else None
    mapping = kernel.scheduled.physical.compute
    verdict = validate_mapping(mapping.computation, mapping.intrinsic, mapping.matching)
    if not verdict.valid:
        return f"mapping fails Algorithm 1: {verdict.reason}"
    oracle_us = simulate_cycles(kernel.scheduled, hw).total_us
    if oracle_us != kernel.latency_us:
        return f"reported {kernel.latency_us!r} us, scalar oracle {oracle_us!r} us"
    return None


@dataclass
class Pass:
    """One pass of a workload: its timing, its result and its failures.

    ``problems`` maps each failed operation (a compile, or the pass's
    whole-workload check) to the reasons it failed.
    """

    tuner_seed: int
    wall_s: float
    compile_s: list[float]
    kernel_us: float
    attempted: int
    problems: dict[str, list[str]] = field(default_factory=dict)
    probe_s: list[float] = field(default_factory=list)

    def normalized_compile_s(self) -> list[float]:
        """Each compile's time scaled to the reference machine speed by the
        speed sample taken just before it."""
        return [seconds * REFERENCE_S / sample for seconds, sample in zip(self.compile_s, self.probe_s)]

    def normalized_wall_s(self) -> float:
        """The pass's wall time scaled by its compile-time-weighted speed factor."""
        if not self.compile_s:
            return self.wall_s
        return self.wall_s * sum(self.normalized_compile_s()) / sum(self.compile_s)

    def flag(self, operation: str, reason: str | None) -> None:
        if reason is not None:
            self.problems.setdefault(operation, []).append(reason)


def cache_lines(cache_dir: str | None) -> int:
    """Lines of the compile cache's file.  ``CompileCache.store`` always
    appends one, also when it replaces an entry under the same key, so
    this counts stores where ``len(CompileCache)`` would not."""
    if not cache_dir:
        return 0
    try:
        with open(os.path.join(cache_dir, CompileCache.FILENAME), "rb") as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0


class _TimedCompiler:
    """``amos_compile`` with a workload's config, usable as an
    ``evaluate_network`` backend.

    Before each call it takes a machine-speed sample from ``probe``;
    each call records (seconds, kernel, compile-cache file lines after
    it).  The sample and the line count are the benchmark's own work:
    ``own_s`` is the time they took, which the pass subtracts from its
    wall time.
    """

    name = "amos"

    def __init__(self, config: TunerConfig, probe: SpeedProbe, emit_source: bool = False):
        self.config = config
        self.probe = probe
        self.emit_source = emit_source
        self.calls: list[tuple[float, Any, int]] = []
        self.probe_s: list[float] = []
        self.own_s = 0.0

    def compile(self, comp: Any, hw: Any) -> Any:
        own_start = time.perf_counter()
        self.probe_s.append(self.probe.sample())
        start = time.perf_counter()
        kernel = compiler.amos_compile(comp, hw, self.config, emit_source=self.emit_source)
        end = time.perf_counter()
        self.calls.append((end - start, kernel, cache_lines(self.config.cache_dir)))
        self.own_s += (start - own_start) + (time.perf_counter() - end)
        return kernel


Timed = Callable[[], ContextManager[Any]]


class Workload:
    """Base of the three workloads.

    The run's seed ``s`` gives the tuner seeds ``s * quality_seeds + k``
    for ``k < quality_seeds``.  Timed pass ``i`` uses ``k = i %
    tuner_seeds``; ``kernel_latency_us`` averages over all
    ``quality_seeds``, compiling the seeds no timed pass ran in untimed
    inline passes (``quality_pass``).  ``traced_passes`` is the fixed
    amount of work of the traced phase.  ``setup_passes`` holds work done
    in set-up whose results are checked too.
    """

    name = ""
    tuner_seeds = 1
    quality_seeds = 1
    traced_passes = 1

    def __init__(self, seed: int, workdir: str, probe: SpeedProbe):
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.base = TunerConfig()
        self.setup_passes: list[Pass] = []
        self._totals: dict[int, float] = {}

    def tuner_seed(self, index: int) -> int:
        return self.seed * self.quality_seeds + index % self.tuner_seeds

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, timed: Timed = contextlib.nullcontext) -> Pass:
        """Run pass ``index``; only the body of ``timed()`` is timed."""
        return self._pass(replace(self.base, seed=self.tuner_seed(index)), timed)

    def quality_pass(self, tuner_seed: int) -> Pass:
        """An untimed pass for ``kernel_latency_us`` only, run inline:
        ``n_workers`` does not change which kernels are chosen."""
        return self._pass(
            replace(self.base, seed=tuner_seed, n_workers=1), contextlib.nullcontext
        )

    def _pass(self, config: TunerConfig, timed: Timed) -> Pass:
        raise NotImplementedError

    def _check_repeat(self, p: Pass) -> None:
        """Passes with the same tuner seed must choose the same kernels."""
        first = self._totals.setdefault(p.tuner_seed, p.kernel_us)
        if first != p.kernel_us:
            p.flag("pass", f"seed {p.tuner_seed}: {p.kernel_us!r} us, earlier pass {first!r} us")


class ResNet18Layers(Workload):
    """Table 5's C0-C11 (batch 16) on A100, each compiled cold with source."""

    name = "resnet18_layers_a100"
    tuner_seeds = 3
    quality_seeds = 8
    traced_passes = 3

    def setup(self) -> None:
        self.hw = get_hardware("a100")
        self.layers = [(layer.name, layer.computation()) for layer in RESNET18_CONV_LAYERS]

    def _pass(self, config, timed):
        reset_global_memo()
        timed_compiler = _TimedCompiler(config, self.probe, emit_source=True)
        kernels: list[tuple[str, Any]] = []
        raised: list[tuple[str, str]] = []
        with timed():
            start = time.perf_counter()
            for label, comp in self.layers:
                try:
                    kernels.append((label, timed_compiler.compile(comp, self.hw)))
                except Exception as exc:  # counted in fail_frac, never fatal
                    raised.append((label, f"raised {exc!r}"))
            wall_s = time.perf_counter() - start - timed_compiler.own_s
        p = Pass(
            config.seed,
            wall_s,
            [seconds for seconds, _, _ in timed_compiler.calls],
            sum(kernel.latency_us for _, kernel in kernels),
            attempted=len(self.layers) + 1,
            probe_s=timed_compiler.probe_s,
        )
        for label, reason in raised:
            p.flag(label, reason)
        for label, kernel in kernels:
            p.flag(label, check_kernel(kernel, self.hw))
            p.flag(label, None if kernel.source else "no source emitted")
        self._check_repeat(p)
        return p


class _NetworkWorkload(Workload):
    network = ""
    hardware = ""

    def setup(self) -> None:
        self.hw = get_hardware(self.hardware)
        self.ops = get_network(self.network)

    def _network_pass(
        self, config: TunerConfig, timed: Timed
    ) -> tuple[Pass, list[tuple[float, Any, int]]]:
        """One ``evaluate_network`` call from cold process state (loaded
        compile caches and the memo forgotten); checks every kernel."""
        reset_compile_caches()
        reset_global_memo()
        backend = _TimedCompiler(config, self.probe)
        result = None
        error = None
        with timed():
            start = time.perf_counter()
            try:
                result = evaluation.evaluate_network(
                    self.network, self.ops, backend, self.hw, batch=1
                )
            except Exception as exc:  # counted in fail_frac, never fatal
                error = f"raised {exc!r}"
            wall_s = time.perf_counter() - start - backend.own_s
        p = Pass(
            config.seed,
            wall_s,
            [seconds for seconds, _, _ in backend.calls],
            result.total_us if result is not None else 0.0,
            attempted=len(backend.calls) + 1,
            probe_s=backend.probe_s,
        )
        p.flag("pass", error)
        for i, (_, kernel, _) in enumerate(backend.calls):
            p.flag(_label(i, kernel), check_kernel(kernel, self.hw))
        return p, backend.calls


def _label(index: int, kernel: Any) -> str:
    return f"#{index} {kernel.computation.name}"


class MobileNetMali(_NetworkWorkload):
    """MobileNet-v1 (batch 1) on Mali-G76, cold, writing a fresh compile cache."""

    name = "mobilenet_mali_net"
    network = "mobilenet_v1"
    hardware = "mali_g76"
    tuner_seeds = 2
    quality_seeds = 4
    traced_passes = 2

    def _pass(self, config, timed):
        cache_dir = tempfile.mkdtemp(dir=self.workdir)
        p, calls = self._network_pass(replace(config, cache_dir=cache_dir), timed)
        shutil.rmtree(cache_dir, ignore_errors=True)
        # Cold: every compile appends exactly one cache line.
        for i, (_, kernel, lines) in enumerate(calls):
            if lines != i + 1:
                p.flag(_label(i, kernel), f"{lines} cache lines after {i + 1} compiles")
        if "pass" not in p.problems:
            self._check_repeat(p)
        return p


class ResNet50Warm(_NetworkWorkload):
    """ResNet-50 (batch 1) on V100, every compile served from a warm cache.

    Set-up fills the cache with one cold ``evaluate_network`` at
    ``n_workers=FILL_WORKERS`` (``n_workers`` is not part of the cache
    key); each timed round forgets the loaded caches and the memo, then
    runs the network at the default config, served from disk.  Quality
    passes are cold networks without a cache.
    """

    name = "resnet50_v100_warm"
    network = "resnet50"
    hardware = "v100"
    quality_seeds = 4
    traced_passes = 20
    FILL_WORKERS = 1

    def setup(self) -> None:
        super().setup()
        self.cache_dir = tempfile.mkdtemp(dir=self.workdir)
        config = replace(
            self.base,
            seed=self.tuner_seed(0),
            cache_dir=self.cache_dir,
            n_workers=self.FILL_WORKERS,
        )
        fill, calls = self._network_pass(config, contextlib.nullcontext)
        self.setup_passes.append(fill)
        self.fill_us = fill.kernel_us
        self.fill_kernel_us = [kernel.latency_us for _, kernel, _ in calls]
        self.lines = cache_lines(self.cache_dir)

    def _pass(self, config, timed):
        return self._network_pass(config, timed)[0]

    def run_pass(self, index, timed=contextlib.nullcontext):
        config = replace(self.base, seed=self.tuner_seed(index), cache_dir=self.cache_dir)
        p, calls = self._network_pass(config, timed)
        # A hit stores nothing; a miss re-tunes and appends a line.
        for i, ((_, kernel, lines), fill_us) in enumerate(zip(calls, self.fill_kernel_us)):
            if lines != self.lines:
                p.flag(_label(i, kernel), "not served from the compile cache")
            elif kernel.latency_us != fill_us:
                p.flag(_label(i, kernel), f"{kernel.latency_us!r} us, cold fill {fill_us!r} us")
        if len(calls) != len(self.fill_kernel_us):
            p.flag("pass", f"{len(calls)} compiles, cold fill made {len(self.fill_kernel_us)}")
        if p.kernel_us != self.fill_us:
            p.flag("pass", f"total {p.kernel_us!r} us, cold fill {self.fill_us!r} us")
        return p


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ResNet18Layers, MobileNetMali, ResNet50Warm)
}


def run_phase(
    workload: Workload,
    seconds: float,
    min_passes: int,
    timed: Timed = contextlib.nullcontext,
) -> list[Pass]:
    """Passes until ``seconds`` have elapsed and at least ``min_passes`` ran."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(len(passes), timed))
    return passes


def quality_phase(workload: Workload, passes: list[Pass]) -> list[Pass]:
    """Untimed passes for the tuner seeds ``kernel_latency_us`` averages
    over that ``passes`` did not run."""
    done = {p.tuner_seed for p in passes}
    seeds = [workload.seed * workload.quality_seeds + k for k in range(workload.quality_seeds)]
    return [workload.quality_pass(seed) for seed in seeds if seed not in done]


def kernel_latency_us(passes: list[Pass]) -> float:
    """Mean over the tuner seeds of ``passes`` of one pass's summed kernel latency."""
    by_seed = {p.tuner_seed: p.kernel_us for p in passes}
    return statistics.fmean(by_seed[s] for s in sorted(by_seed))


def end_to_end(
    passes: list[Pass], quality: list[Pass], setup_s: float, peak_rss_mb: float
) -> dict[str, float]:
    """The end-to-end metrics of an untraced timed phase and its quality
    passes, by name.

    ``compile_ms_p90`` is present only with at least ``P90_MIN_SAMPLES``
    compile samples, so that ten samples lie beyond it.
    """
    samples_ms = [s * 1e3 for p in passes for s in p.normalized_compile_s()]
    metrics = {
        "wall_s": statistics.median(p.normalized_wall_s() for p in passes),
        "compile_ms_p50": statistics.median(samples_ms),
        "kernel_latency_us": kernel_latency_us(passes + quality),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "compile_n": len(samples_ms),
        "wall_raw_s": statistics.median(p.wall_s for p in passes),
        "compile_raw_ms_p50": 1e3 * statistics.median(s for p in passes for s in p.compile_s),
        "probe_ms_p50": 1e3 * statistics.median(s for p in passes for s in p.probe_s),
    }
    if len(samples_ms) >= P90_MIN_SAMPLES:
        metrics["compile_ms_p90"] = statistics.quantiles(samples_ms, n=10, method="inclusive")[-1]
    return metrics


#: Units of the values ``end_to_end`` reports besides the metrics of
#: ``BENCHMARK.json``.
EXTRA_UNITS = {
    "compile_n": "count",
    "compile_ms_p90": "ms",
    "wall_raw_s": "s",
    "compile_raw_ms_p50": "ms",
    "probe_ms_p50": "ms",
    "setup_raw_s": "s",
}
