"""Micro-benchmark: cost of the observability layer when it is disabled.

Every hot path of the pipeline is unconditionally instrumented (spans in
the compiler/tuner/enumerator, metric updates in the simulator and
validator, event publications at the bus call sites).  The design
contract is that the *disabled* fast path — one module-global check
returning a shared no-op — is effectively free, so observability can
stay compiled-in everywhere.

A naive A/B wall-time comparison of two identical binaries only measures
timer noise, so the overhead is bounded from first principles instead:

1. run once with obs *and the event bus enabled* to count every
   instrumentation hit a compile performs (spans entered, metric updates
   issued, events published);
2. measure the per-hit cost of the *disabled* primitives with ``timeit``
   (including the Python call overhead, which over-counts in our favour);
3. assert  ``hits x per-hit-cost  <  5%``  of the disabled compile's
   wall time.

The *enabled*-bus wall overhead (the opt-in ``--live`` path) is measured
separately by :func:`measure_enabled_bus_overhead` and reported without
a tight gate — it is paid only when the user asks for live telemetry.

A second, unrelated measurement rides along:
:func:`measure_ingest_throughput` benchmarks the telemetry warehouse —
manifests/sec ingested into the corpus on a synthetic 1k-manifest run
directory, the byte-identical no-op re-ingest, and the indexed series
lookup — recorded to ``benchmarks/results/BENCH_warehouse.json`` when
run as a script (the tier-1 test writes no file).

Runnable standalone (``pytest benchmarks/bench_obs_overhead.py``) and
re-exported by ``tests/test_obs_overhead.py`` so the bound also holds
under the tier-1 command.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile
import time
import timeit
from datetime import datetime, timedelta, timezone

import repro.engine.engine as engine
import repro.obs as obs
from repro.compiler import amos_compile
from repro.explore.tuner import TunerConfig
from repro.frontends.operators import make_operator
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.runlog import RunRecord, write_run
from repro.obs.warehouse import Warehouse

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
WAREHOUSE_RESULT_FILE = "BENCH_warehouse.json"

#: Enough exploration to exercise every instrumented stage, small enough
#: for a test-suite budget.
BENCH_CONFIG = TunerConfig(population=8, generations=3)

#: Same budget through the parallel path: a 2-worker pool, run with
#: ``engine.MIN_POOL_BATCH`` patched to 1 so the cross-process obs
#: capture (worker span shipping, metric-delta merging) sits on the
#: measured path and must obey the same disabled-overhead bound.
BENCH_CONFIG_PARALLEL = TunerConfig(population=8, generations=3, n_workers=2)

#: Metric updates issued per simulate_cycles call on the feasible path
#: (the sim.runs counter + one sim.bound.* counter).
_METRIC_HITS_PER_SIM = 2
#: Metric updates per validate_mapping call (calls + accepted/rejected).
_METRIC_HITS_PER_VALIDATION = 2
#: Slack for per-enumeration and per-compile counters not derivable from
#: one counter value (funnel bookkeeping, enumerate counters, ...).
_METRIC_HITS_SLACK = 64


def measure_disabled_overhead(
    config: TunerConfig = BENCH_CONFIG,
) -> dict[str, float]:
    """Estimate the disabled-obs overhead of one ``amos_compile`` run.

    Returns a dict with ``compile_s`` (disabled wall time),
    ``overhead_s`` (estimated instrumentation cost at the disabled fast
    path) and ``overhead_fraction``.  The enabled counting run includes
    any pool workers' merged spans/metrics, which over-counts in our
    favour: with obs disabled, workers never record (their initializer
    sees the parent's disabled state) and the capture wrapper costs one
    global check per task.
    """
    comp = make_operator("GMM", m=64, n=64, k=64)

    was_enabled = obs.enabled()
    try:
        # --- disabled compile wall time (best of 3, after warm-up) ----
        obs.disable()
        obs.reset()
        amos_compile(comp, "v100", config)
        compile_s = min(
            timeit.repeat(
                lambda: amos_compile(comp, "v100", config),
                number=1,
                repeat=3,
            )
        )

        # --- instrumentation hit counts from one enabled run ----------
        # The bus is enabled too so event-publication call sites are
        # counted: each costs one module-global check when disabled.
        obs.reset()
        was_events = obs_events.events_enabled()
        event_hits = 0

        def count_event(_event: dict) -> None:
            nonlocal event_hits
            event_hits += 1

        token = obs_events.get_bus().subscribe(count_event)
        obs.enable()
        obs_events.enable_events()
        try:
            amos_compile(comp, "v100", config)
        finally:
            if not was_events:
                obs_events.disable_events()
            obs_events.get_bus().unsubscribe(token)
        span_hits = len(obs.get_tracer().spans())
        registry = obs.get_registry()
        metric_hits = (
            _METRIC_HITS_PER_SIM * registry.counter("sim.runs").value
            + _METRIC_HITS_PER_VALIDATION
            * registry.counter("mapping.validation.calls").value
            + registry.counter("model.predictions").value
            + registry.counter("tuner.measurements").value
            + _METRIC_HITS_SLACK
        )
        obs.disable()
        obs.reset()

        # --- per-hit disabled fast-path costs -------------------------
        n = 100_000

        def span_hit() -> None:
            with obs_trace.span("bench"):
                pass

        def metric_hit() -> None:
            obs_metrics.counter("bench").inc()

        def event_hit() -> None:
            obs_events.emit("bench")

        span_cost_s = timeit.timeit(span_hit, number=n) / n
        metric_cost_s = timeit.timeit(metric_hit, number=n) / n
        event_cost_s = timeit.timeit(event_hit, number=n) / n
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
        obs.reset()

    overhead_s = (
        span_hits * span_cost_s
        + metric_hits * metric_cost_s
        + event_hits * event_cost_s
    )
    return {
        "compile_s": compile_s,
        "span_hits": float(span_hits),
        "metric_hits": float(metric_hits),
        "event_hits": float(event_hits),
        "span_cost_ns": span_cost_s * 1e9,
        "metric_cost_ns": metric_cost_s * 1e9,
        "event_cost_ns": event_cost_s * 1e9,
        "overhead_s": overhead_s,
        "overhead_fraction": overhead_s / compile_s if compile_s else 0.0,
    }


def check_disabled_overhead_bound(
    max_fraction: float = 0.05, config: TunerConfig = BENCH_CONFIG
) -> dict[str, float]:
    """Assert the disabled-obs overhead bound; returns the measurements."""
    stats = measure_disabled_overhead(config)
    assert stats["overhead_fraction"] < max_fraction, (
        f"disabled-obs overhead {stats['overhead_fraction']:.2%} exceeds "
        f"{max_fraction:.0%}: {stats}"
    )
    return stats


def measure_enabled_bus_overhead(
    config: TunerConfig = BENCH_CONFIG,
) -> dict[str, float]:
    """Wall-time cost of compiling with the event bus *on* (the opt-in
    ``--live`` path): events published to one counting subscriber, no
    tracing.  Returned as A/B wall times plus the event count; reported
    rather than tightly gated, since the enabled path is only paid when
    the user asks for live telemetry.
    """
    comp = make_operator("GMM", m=64, n=64, k=64)
    was_enabled = obs.enabled()
    was_events = obs_events.events_enabled()
    events_seen = 0

    def count_event(_event: dict) -> None:
        nonlocal events_seen
        events_seen += 1

    try:
        obs.disable()
        obs.reset()
        obs_events.disable_events()
        amos_compile(comp, "v100", config)  # warm-up (memo, imports)
        disabled_s = min(
            timeit.repeat(
                lambda: amos_compile(comp, "v100", config), number=1, repeat=3
            )
        )
        token = obs_events.get_bus().subscribe(count_event)
        obs_events.enable_events()
        try:
            enabled_s = min(
                timeit.repeat(
                    lambda: amos_compile(comp, "v100", config), number=1, repeat=3
                )
            )
        finally:
            obs_events.disable_events()
            obs_events.get_bus().unsubscribe(token)
    finally:
        if was_events:
            obs_events.enable_events()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()
        obs.reset()

    return {
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "events": float(events_seen),
        "overhead_fraction": (
            (enabled_s - disabled_s) / disabled_s if disabled_s else 0.0
        ),
    }


def _report(label: str, stats: dict[str, float]) -> None:
    print(
        f"\nobs disabled overhead ({label}): "
        f"{stats['overhead_fraction']:.3%} of "
        f"{stats['compile_s'] * 1e3:.1f}ms compile "
        f"({stats['span_hits']:.0f} spans x {stats['span_cost_ns']:.0f}ns + "
        f"{stats['metric_hits']:.0f} metric hits x {stats['metric_cost_ns']:.0f}ns + "
        f"{stats['event_hits']:.0f} events x {stats['event_cost_ns']:.0f}ns)"
    )


# ----------------------------------------------------------------------
# Telemetry-warehouse ingest throughput
# ----------------------------------------------------------------------
def _synthetic_run(i: int, base: datetime) -> RunRecord:
    """One realistic-shape manifest; four (operator, hardware) series."""
    operator = ("GMM", "CONV", "GMM", "MTTKRP")[i % 4]
    hardware = ("v100", "v100", "a100", "v100")[i % 4]
    return RunRecord(
        run_id=f"synth{i:06d}",
        created_at=(base + timedelta(seconds=i)).isoformat(timespec="seconds"),
        kind="tune",
        operator=operator,
        hardware=hardware,
        fingerprints={"tuner_config": f"fp_{i % 4}"},
        outcome={"latency_us": 100.0 + (i % 17)},
        wall_s=1.0,
        candidates_per_sec=50.0,
        phases={"tune": {"count": 1.0, "total_us": 9e5, "self_us": 4e5}},
        funnel={"enumerated": 64, "validated": 32, "prefiltered": 16, "measured": 8},
        cache={"memo_hits": 40.0, "memo_misses": 10.0},
        model_quality={"pairwise_accuracy": 0.9},
        critical_path=[{"name": "tune", "duration_us": 9e5, "self_us": 4e5}],
    )


def measure_ingest_throughput(n_runs: int = 1000) -> dict[str, float]:
    """Warehouse throughput on a synthetic ``n_runs``-manifest corpus.

    Measures cold ingest (manifests/sec end to end, parse + append +
    index), the idempotent re-ingest (must leave store and index
    byte-identical), and the indexed series lookup on a freshly opened
    warehouse — the read path that must not re-parse the corpus.
    """
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_warehouse_"))
    try:
        run_dir = tmp / "runs"
        base = datetime(2026, 1, 1, tzinfo=timezone.utc)
        for i in range(n_runs):
            write_run(_synthetic_run(i, base), run_dir)

        corpus_dir = tmp / "corpus"
        t0 = time.perf_counter()
        warehouse = Warehouse(corpus_dir)
        report = warehouse.ingest(run_dir)
        ingest_s = time.perf_counter() - t0
        assert report.new_runs == n_runs, report.to_dict()

        store_before = warehouse.store_path.read_bytes()
        index_before = warehouse.index_path.read_bytes()
        t0 = time.perf_counter()
        again = Warehouse(corpus_dir).ingest(run_dir)
        reingest_s = time.perf_counter() - t0
        assert again.new_runs == 0 and again.known_runs == n_runs
        assert warehouse.store_path.read_bytes() == store_before
        assert warehouse.index_path.read_bytes() == index_before

        reopened = Warehouse(corpus_dir)
        key = reopened.series_keys()[0]
        t0 = time.perf_counter()
        series = reopened.series(key)
        lookup_s = time.perf_counter() - t0
        assert series, "series lookup returned nothing"

        return {
            "n_runs": float(n_runs),
            "ingest_s": ingest_s,
            "ingest_runs_per_s": n_runs / ingest_s if ingest_s else 0.0,
            "reingest_s": reingest_s,
            "series_len": float(len(series)),
            "series_lookup_s": lookup_s,
            "store_bytes": float(len(store_before)),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_warehouse_bench(quick: bool = False) -> dict[str, object]:
    """Run the ingest benchmark and return its report."""
    stats = measure_ingest_throughput(n_runs=120 if quick else 1000)
    return {"quick": quick, "ingest": stats}


def test_obs_disabled_overhead_under_5_percent():
    _report("in-process", check_disabled_overhead_bound(0.05))


def test_obs_disabled_overhead_parallel_under_5_percent(monkeypatch):
    monkeypatch.setattr(engine, "MIN_POOL_BATCH", 1)
    _report(
        "pool",
        check_disabled_overhead_bound(0.05, BENCH_CONFIG_PARALLEL),
    )


def test_warehouse_ingest_throughput_quick():
    report = run_warehouse_bench(quick=True)
    stats = report["ingest"]
    print(
        f"\nwarehouse ingest: {stats['ingest_runs_per_s']:.0f} runs/s "
        f"({stats['n_runs']:.0f} manifests in {stats['ingest_s'] * 1e3:.0f}ms), "
        f"no-op re-ingest {stats['reingest_s'] * 1e3:.0f}ms, "
        f"series lookup ({stats['series_len']:.0f} runs) "
        f"{stats['series_lookup_s'] * 1e3:.2f}ms"
    )
    # Correctness is asserted inside the measurement (idempotent byte-
    # identical re-ingest, non-empty indexed lookup); here only a loose
    # liveness floor — shared CI runners are too noisy for a tight gate.
    assert stats["ingest_runs_per_s"] > 10


def test_enabled_bus_overhead_reported():
    stats = measure_enabled_bus_overhead()
    print(
        f"\nevent bus enabled overhead: {stats['overhead_fraction']:+.1%} wall "
        f"({stats['disabled_s'] * 1e3:.1f}ms -> {stats['enabled_s'] * 1e3:.1f}ms, "
        f"{stats['events']:.0f} events published)"
    )
    # Sanity only: the bus actually published, and turning it on does not
    # blow the compile up by an order of magnitude.  Wall-clock ratios on
    # shared CI runners are too noisy for a tight gate.
    assert stats["events"] > 0
    assert stats["enabled_s"] < stats["disabled_s"] * 10


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument(
        "--quick", action="store_true", help="120-manifest corpus instead of 1000"
    )
    ns = cli.parse_args()
    full = run_warehouse_bench(quick=ns.quick)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / WAREHOUSE_RESULT_FILE).write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(full, indent=2))
