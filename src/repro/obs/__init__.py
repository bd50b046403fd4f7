"""repro.obs — observability for the compile-explore-simulate pipeline.

Zero-dependency modules, all near-free when disabled:

* :mod:`repro.obs.trace` — nested wall-time spans (where time goes);
* :mod:`repro.obs.metrics` — named counters (how often things happen);
* :mod:`repro.obs.events` — the live event stream: span closes, counter
  increments, funnel stages and GA generations as typed records;
* :mod:`repro.obs.live` — the JSONL sink behind ``--live``, the health
  detectors and the ``repro watch`` dashboard over that stream;
* :mod:`repro.obs.logging` — the structured, rate-limited logger;
* :mod:`repro.obs.explore_log` — per-tune-run telemetry: the mapping
  funnel, genetic-search convergence, and paired model/simulator samples
  (the signals behind the paper's Fig 5 and Table 6);
* :mod:`repro.obs.runlog` — the flight recorder: per-run
  :class:`RunRecord` manifests written by ``amos_compile``/``Tuner.tune``
  (via ``TunerConfig.run_dir``) and the ``compare_runs`` regression
  tracker behind ``python -m repro report --compare``;
* :mod:`repro.obs.report` — the ``repro profile`` / ``repro report RUN``
  text report, rendered from one run's manifest and event stream;
* :mod:`repro.obs.chrome_trace` — Chrome-trace/Perfetto export of the
  merged span timeline, one lane per pool worker;
* :mod:`repro.obs.warehouse` — the telemetry warehouse: an append-only,
  indexed corpus over every run manifest and event stream, queryable by
  (operator, hardware, budget) series without re-parsing;
* :mod:`repro.obs.analytics` — longitudinal analytics over the corpus:
  Theil–Sen trend detection, the history-aware regression gate behind
  ``report --compare --history N``, wall-time attribution and
  critical-path aggregation (``python -m repro corpus``).

A run's record is its manifest plus, with ``--live``, its event stream;
nothing else is written per run.

Everything is off by default.  ``enable()`` flips one module-global
switch; instrumented hot paths pay one global check when it is off, so
compilation results are bit-identical with obs enabled or disabled.
"""

from repro.obs.analytics import (
    aggregate_critical_paths,
    compare_runs_with_history,
    corpus_rows,
    detect_trend,
    phase_attribution,
    series_trends,
    theil_sen,
)
from repro.obs.chrome_trace import chrome_trace_events, export_chrome_trace
from repro.obs.events import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    Event,
    EventBus,
    disable_events,
    emit,
    enable_events,
    events_enabled,
    get_bus,
    reset_events,
    validate_event,
)
from repro.obs.explore_log import ExploreLog, FunnelCounts, current_log, use_log
from repro.obs.live import (
    HealthConfig,
    HealthMonitor,
    JsonlSink,
    WatchState,
    attach_health_monitor,
    load_events,
    render_dashboard,
)
from repro.obs.logging import (
    StructuredLogger,
    configure_logging,
    flush_suppressed,
    get_logger,
    log_level,
    set_log_level,
    set_log_stream,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    counter,
    get_registry,
)
from repro.obs.report import load_run_views, render_report
from repro.obs.runlog import (
    CompareThresholds,
    FlightRecorder,
    RunRecord,
    active_recorder,
    compare_runs,
    load_runs,
    render_comparison,
    write_run,
)
from repro.obs.trace import (
    Span,
    Tracer,
    aggregate_spans,
    clock_offset_s,
    critical_path,
    current_span_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    traced,
    tracing,
    tracing_enabled,
)
from repro.obs.warehouse import IngestReport, Warehouse

__all__ = [
    "CompareThresholds",
    "Counter",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "ExploreLog",
    "FlightRecorder",
    "FunnelCounts",
    "HealthConfig",
    "HealthMonitor",
    "IngestReport",
    "JsonlSink",
    "MetricsRegistry",
    "RunRecord",
    "Span",
    "StructuredLogger",
    "Tracer",
    "WatchState",
    "Warehouse",
    "active_recorder",
    "aggregate_critical_paths",
    "aggregate_spans",
    "attach_health_monitor",
    "chrome_trace_events",
    "clock_offset_s",
    "compare_runs",
    "compare_runs_with_history",
    "configure_logging",
    "corpus_rows",
    "counter",
    "critical_path",
    "current_log",
    "current_span_id",
    "detect_trend",
    "disable",
    "disable_events",
    "emit",
    "enable",
    "enable_events",
    "enabled",
    "events_enabled",
    "export_chrome_trace",
    "flush_suppressed",
    "get_bus",
    "get_logger",
    "get_registry",
    "get_tracer",
    "load_events",
    "load_run_views",
    "load_runs",
    "log_level",
    "phase_attribution",
    "render_comparison",
    "render_dashboard",
    "render_report",
    "reset",
    "reset_events",
    "series_trends",
    "set_log_level",
    "set_log_stream",
    "span",
    "theil_sen",
    "traced",
    "tracing",
    "use_log",
    "validate_event",
    "write_run",
]


def enable() -> None:
    """Turn on span + metric collection globally."""
    enable_tracing()


def disable() -> None:
    disable_tracing()


def enabled() -> bool:
    return tracing_enabled()


def reset() -> None:
    """Drop all collected spans and metrics (toggle state unchanged)."""
    get_tracer().clear()
    get_registry().reset()
