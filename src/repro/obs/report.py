"""The profiling report: one recorded run rendered as plain text.

A run is its flight-recorder manifest (:class:`RunRecord`, written by
``TunerConfig.run_dir``) plus, when it was recorded with ``--live``, its
events in the same directory's ``events_*.jsonl`` streams.  The report
reads those two records and nothing else, so ``repro profile`` and
``repro report RUN`` print the same text for a run:

* header, span timings, critical path, mapping funnel, model quality
  and the engine cache/pool lines come from the manifest;
* genetic-search convergence comes from the ``ga.generation`` events
  and the compile-cache damage line from the stream's counters.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Any, Sequence

from repro.obs.explore_log import FUNNEL_STAGES
from repro.obs.live import WatchState, events_by_run
from repro.obs.runlog import RunRecord, load_runs

__all__ = [
    "load_run_views",
    "render_report",
]


def load_run_views(path: str | os.PathLike) -> list[tuple[RunRecord, WatchState]]:
    """Every run manifest at ``path`` (a run directory or one manifest),
    each paired with the :class:`WatchState` of its events in that
    directory's streams (empty when the run was not recorded live).

    Raises ``FileNotFoundError`` when ``path`` is missing or holds no
    readable manifest.
    """
    runs = load_runs(path)
    if not runs:
        raise FileNotFoundError(f"no run manifest at {path}")
    p = Path(path)
    streams, _ = events_by_run(p if p.is_dir() else p.parent)
    return [
        (run, WatchState().apply_all(streams.get(run.run_id, ("", []))[1]))
        for run in runs
    ]


def _fmt_us(us: float) -> str:
    if not math.isfinite(us):
        return str(us)
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.1f}us"


def _span_section(phases: dict[str, dict[str, float]]) -> list[str]:
    if not phases:
        return ["  (no spans recorded)"]
    lines = [f"  {'span':36} {'calls':>6} {'total':>10} {'self':>10} {'mean':>10}"]
    by_total = sorted(phases.items(), key=lambda kv: kv[1]["total_us"], reverse=True)
    for name, phase in by_total:
        count = int(phase["count"])
        mean = phase["total_us"] / count if count else 0.0
        lines.append(
            f"  {name:36} {count:>6} {_fmt_us(phase['total_us']):>10} "
            f"{_fmt_us(phase['self_us']):>10} {_fmt_us(mean):>10}"
        )
    return lines


def _funnel_section(funnel: dict[str, int]) -> list[str]:
    if not funnel:
        return ["  (no funnel recorded)"]
    lines = []
    base = max((funnel.get(s, 0) for s in FUNNEL_STAGES), default=0)
    for stage in FUNNEL_STAGES:
        count = funnel.get(stage, 0)
        bar = "#" * int(30 * count / base) if base else ""
        lines.append(f"  {stage:12} {count:>8}  {bar}")
    return lines


def _generation_section(generations: Sequence[dict[str, Any]]) -> list[str]:
    if not generations:
        return ["  (no genetic-search generations recorded)"]
    lines = [f"  {'gen':>4} {'best':>12} {'mean':>12} {'worst':>12} {'diversity':>10}"]
    for g in generations:
        lines.append(
            f"  {g['generation']:>4} {_fmt_us(g['best_fitness']):>12} "
            f"{_fmt_us(g['mean_fitness']):>12} {_fmt_us(g['worst_fitness']):>12} "
            f"{g['diversity']:>10.2f}"
        )
    return lines


def _model_quality_section(quality: dict[str, float]) -> list[str]:
    if quality.get("num_samples", 0) < 2:
        return ["  (fewer than two measured samples; rank metrics undefined)"]
    lines = [f"  measured samples:        {int(quality['num_samples'])}"]
    lines.append(f"  pairwise rank accuracy:  {quality['pairwise_accuracy']:.3f}")
    for key, value in sorted(quality.items()):
        if key.startswith("top_"):
            rate = key[len("top_"):-len("pct_recall")]
            lines.append(f"  top-{rate}% recall:          {value:.3f}")
    return lines


def _engine_section(record: RunRecord, skipped_lines: float) -> list[str]:
    """Cache and pool behaviour from the manifest's counter
    sections; compile-cache damage from the event stream."""
    cache = record.cache

    def rate(hits: float, misses: float) -> str:
        total = hits + misses
        if not total:
            return "n/a"
        return f"{hits / total:.1%} ({int(hits)}/{int(total)})"

    lines = []
    memo_hits = cache.get("memo_hits", 0.0)
    memo_misses = cache.get("memo_misses", 0.0)
    if memo_hits or memo_misses:
        lines.append(f"  memo cache hit rate:     {rate(memo_hits, memo_misses)}")
    evictions = cache.get("memo_evictions", 0.0)
    if evictions:
        lines.append(
            f"  memo cache evictions:    {int(evictions)} "
            "(working set exceeds capacity; hit rate understates re-evaluation)"
        )
    cc_hits = cache.get("compile_cache_hits", 0.0)
    cc_misses = cache.get("compile_cache_misses", 0.0)
    if cc_hits or cc_misses:
        lines.append(f"  compile cache hit rate:  {rate(cc_hits, cc_misses)}")
    tasks = cache.get("pool_tasks", 0.0)
    batches = cache.get("pool_batches", 0.0)
    if batches:
        lines.append(
            f"  pool batches:            {int(batches)} "
            f"(mean {tasks / batches:.1f} tasks/batch)"
        )
    if skipped_lines:
        lines.append(
            f"  compile cache damage:    {int(skipped_lines)} "
            "unreadable line(s) skipped"
        )
    if not lines:
        return ["  (no engine cache/pool activity recorded)"]
    return lines


def _critical_path_section(path: Sequence[dict[str, Any]]) -> list[str]:
    """The heaviest-child chain through the span tree: which stages
    actually bound this run's wall time."""
    if not path:
        return ["  (no spans recorded)"]
    lines = []
    for depth, entry in enumerate(path):
        lane = f" [lane {entry['lane']}]" if "lane" in entry else ""
        lines.append(
            f"  {'  ' * depth}{entry['name']}{lane}: "
            f"{_fmt_us(entry['duration_us'])} "
            f"(self {_fmt_us(entry['self_us'])})"
        )
    return lines


def render_report(record: RunRecord, state: WatchState | None = None) -> str:
    """Render one run — its manifest plus the :class:`WatchState` of its
    events — as a plain-text report: per-stage timings, critical path,
    mapping funnel, GA convergence, model quality and engine behaviour."""
    state = state or WatchState()
    title_bits = [b for b in (record.operator, record.hardware) if b]
    title = " on ".join(title_bits) if title_bits else "profiled run"
    lines = [f"== AMOS profile: {title} =="]
    if record.latency_us is not None:
        lines.append(f"   best simulated latency: {_fmt_us(record.latency_us)}")
    if record.outcome.get("num_mappings") is not None:
        lines.append(f"   valid mappings explored: {record.outcome['num_mappings']}")
    lines.append("")
    lines.append("-- span timings (wall time per pipeline stage) --")
    lines.extend(_span_section(record.phases))
    lines.append("")
    lines.append("-- critical path (heaviest span chain) --")
    lines.extend(_critical_path_section(record.critical_path))
    lines.append("")
    lines.append("-- mapping funnel (Table 6-style counts) --")
    lines.extend(_funnel_section(record.funnel))
    lines.append("")
    lines.append("-- genetic search convergence --")
    lines.extend(_generation_section(state.generations))
    lines.append("")
    lines.append("-- model vs simulator (Fig 5-style rank quality) --")
    lines.extend(_model_quality_section(record.model_quality))
    lines.append("")
    lines.append("-- engine caches & pool --")
    skipped = state.counters.get("engine.compile_cache.skipped_lines", 0.0)
    lines.extend(_engine_section(record, skipped))
    return "\n".join(lines)
