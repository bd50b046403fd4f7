"""Trend analytics over the telemetry warehouse.

Everything here consumes :class:`repro.obs.warehouse.Warehouse` corpora
(or plain :class:`RunRecord` lists) and answers the longitudinal
questions one run — or one base-vs-current pair — cannot:

* **Trajectories** — per-series best-latency and Fig 5 rank-accuracy
  curves over the corpus (:func:`series_trends`), the longitudinal view
  behind the paper's evaluation tables.
* **Robust trend detection** — :func:`detect_trend` fits a
  median-of-slopes (Theil–Sen) line through a value sequence.  A single
  noisy run cannot flip the verdict, and a slow monotone drift shows up
  even when every pairwise step stays inside the threshold — exactly
  the failure mode the pairwise ``compare_runs`` gate cannot see.
* **History-aware regression gating** —
  :func:`compare_runs_with_history` reproduces the pairwise
  ``compare_runs`` verdict (it *is* the pairwise report when
  ``history=1``) and, for deeper windows, appends trend regressions
  when the fitted drift across the window exceeds the same thresholds.
  This is the engine behind ``repro report --compare --history N``.
* **Wall-time attribution** — :func:`phase_attribution` ranks pipeline
  phases by corpus-wide self-time, and
  :func:`aggregate_critical_paths` tallies the heaviest-child span
  chains the flight recorder stamps into each manifest: which phase
  actually bounds tune time, and how consistently.

All pure functions over already-loaded records; the warehouse does the
indexed I/O.
"""

from __future__ import annotations

import csv
import io
import json
from statistics import median
from typing import Any, Callable, Sequence

from repro.obs.explore_log import FUNNEL_STAGES
from repro.obs.runlog import CompareThresholds, RunRecord, compare_runs
from repro.obs.warehouse import Warehouse

__all__ = [
    "aggregate_critical_paths",
    "compare_runs_with_history",
    "corpus_rows",
    "detect_trend",
    "phase_attribution",
    "render_attribution",
    "render_corpus_stats",
    "render_trends",
    "rows_to_csv",
    "series_trends",
    "theil_sen",
]


# ----------------------------------------------------------------------
# Robust trend fitting
# ----------------------------------------------------------------------
def theil_sen(values: Sequence[float]) -> tuple[float, float]:
    """Median-of-slopes line fit; returns ``(slope, intercept)``.

    x is the run ordinal (0..n-1).  The slope is the median over all
    pairwise slopes, the intercept the median residual under it — the
    classic Theil–Sen estimator, robust to ~29% outliers, so one noisy
    CI run cannot fabricate or mask a drift.
    """
    n = len(values)
    if n < 2:
        return 0.0, float(values[0]) if values else 0.0
    slopes = [
        (values[j] - values[i]) / (j - i)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    slope = median(slopes)
    intercept = median(values[i] - slope * i for i in range(n))
    return slope, intercept


def detect_trend(
    values: Sequence[float], rel_tol: float = 0.02
) -> dict[str, Any]:
    """Classify a value sequence as ``rising`` / ``falling`` / ``flat``.

    ``rel_drift`` is the fitted total change across the window relative
    to the fitted starting level (``slope * (n-1) / intercept``) — the
    quantity the history gate thresholds, deliberately *not* the
    last-pair delta.  ``rel_tol`` is only the flat-band width for the
    direction label.
    """
    n = len(values)
    if n < 2:
        return {
            "n": n,
            "slope": 0.0,
            "intercept": float(values[0]) if values else 0.0,
            "rel_drift": 0.0,
            "direction": "flat",
        }
    slope, intercept = theil_sen(values)
    base = intercept if intercept > 0 else (median(values) or 1.0)
    rel_drift = slope * (n - 1) / base
    if rel_drift > rel_tol:
        direction = "rising"
    elif rel_drift < -rel_tol:
        direction = "falling"
    else:
        direction = "flat"
    return {
        "n": n,
        "slope": slope,
        "intercept": intercept,
        "rel_drift": rel_drift,
        "direction": direction,
    }


# ----------------------------------------------------------------------
# History-aware regression gate
# ----------------------------------------------------------------------
def compare_runs_with_history(
    baseline: Sequence[RunRecord],
    current: Sequence[RunRecord],
    thresholds: CompareThresholds | None = None,
    history: int = 1,
) -> dict[str, Any]:
    """The pairwise :func:`compare_runs` report, plus trend gating.

    ``history=1`` returns exactly the pairwise report (same verdict, same
    regressions) with empty ``trends`` — the existing CI gate is the
    degenerate case.  For ``history >= 2`` the last ``history`` baseline
    runs of each series plus the current run form a window; a Theil–Sen
    drift across it beyond ``max_latency_increase`` (relative) or
    ``max_accuracy_drop`` (absolute) appends a ``latency_trend`` /
    ``accuracy_trend`` regression — catching the slow monotone creep
    where every individual PR stayed under the pairwise threshold.
    Windows shorter than 3 points carry no information beyond the
    pairwise check and are skipped.
    """
    if history < 1:
        raise ValueError(f"history must be >= 1, got {history}")
    thresholds = thresholds or CompareThresholds()
    report = compare_runs(baseline, current, thresholds)
    report["history"] = history
    report["trends"] = []
    if history < 2:
        return report

    by_series: dict[tuple, list[RunRecord]] = {}
    for run in sorted(baseline, key=lambda r: (r.created_at, r.run_id)):
        by_series.setdefault(run.series_key(), []).append(run)
    latest_current: dict[tuple, RunRecord] = {}
    for run in sorted(current, key=lambda r: (r.created_at, r.run_id)):
        latest_current[run.series_key()] = run

    for key in sorted(latest_current):
        cur = latest_current[key]
        hist = by_series.get(key, [])[-history:]
        if len(hist) < 2:
            continue  # the window adds nothing over the pairwise check
        label = f"{cur.operator} on {cur.hardware}"

        latencies = [r.latency_us for r in hist] + [cur.latency_us]
        if all(isinstance(v, (int, float)) and v > 0 for v in latencies):
            trend = detect_trend(latencies)
            report["trends"].append(
                {
                    "metric": "latency",
                    "where": label,
                    "window": trend["n"],
                    "direction": trend["direction"],
                    "rel_drift": trend["rel_drift"],
                    "limit": thresholds.max_latency_increase,
                    "values": latencies,
                }
            )
            if (
                "latency" not in thresholds.ignore
                and trend["rel_drift"] > thresholds.max_latency_increase
            ):
                report["regressions"].append(
                    {
                        "metric": "latency_trend",
                        "where": label,
                        "baseline": latencies[0],
                        "current": latencies[-1],
                        "drift": trend["rel_drift"],
                        "limit": thresholds.max_latency_increase,
                    }
                )

        accuracies = [r.model_quality.get("pairwise_accuracy") for r in hist]
        accuracies.append(cur.model_quality.get("pairwise_accuracy"))
        if all(isinstance(v, (int, float)) for v in accuracies):
            slope, _ = theil_sen(accuracies)
            drop = -slope * (len(accuracies) - 1)  # absolute, positive = worse
            direction = (
                "falling" if drop > 1e-9 else "rising" if drop < -1e-9 else "flat"
            )
            report["trends"].append(
                {
                    "metric": "accuracy",
                    "where": label,
                    "window": len(accuracies),
                    "direction": direction,
                    "rel_drift": drop,
                    "limit": thresholds.max_accuracy_drop,
                    "values": accuracies,
                }
            )
            if (
                "accuracy" not in thresholds.ignore
                and drop > thresholds.max_accuracy_drop
            ):
                report["regressions"].append(
                    {
                        "metric": "accuracy_trend",
                        "where": label,
                        "baseline": accuracies[0],
                        "current": accuracies[-1],
                        "drift": drop,
                        "limit": thresholds.max_accuracy_drop,
                    }
                )
    return report


# ----------------------------------------------------------------------
# Trajectories
# ----------------------------------------------------------------------
def _memo_hit_rate(run: RunRecord) -> float | None:
    hits = run.cache.get("memo_hits", 0.0)
    total = hits + run.cache.get("memo_misses", 0.0)
    return hits / total if total else None

#: ``repro corpus trend --metric`` extractors.  Latency and wall are
#: lower-is-better; accuracy and hit_rate higher-is-better.
TREND_METRICS: dict[str, Callable[[RunRecord], float | None]] = {
    "latency": lambda r: r.latency_us,
    "accuracy": lambda r: r.model_quality.get("pairwise_accuracy"),
    "hit_rate": _memo_hit_rate,
    "wall": lambda r: r.wall_s,
}

#: Metrics where smaller values are better (for the ``best`` column).
_LOWER_IS_BETTER = frozenset({"latency", "wall"})


def series_trends(
    warehouse: Warehouse,
    metric: str = "latency",
    operator: str | None = None,
    hardware: str | None = None,
    window: int | None = None,
) -> list[dict[str, Any]]:
    """Per-series value trajectory + robust trend verdict for one metric.

    One row per (operator, hardware, budget-fingerprint) series that
    survives the filters, each carrying the chronological ``points``
    (created_at, value), the running ``best``, the ``latest`` value and
    the :func:`detect_trend` fit over the (optionally ``window``-bounded)
    sequence.
    """
    extract = TREND_METRICS.get(metric)
    if extract is None:
        raise ValueError(
            f"unknown trend metric {metric!r}; expected one of {sorted(TREND_METRICS)}"
        )
    rows: list[dict[str, Any]] = []
    for key in warehouse.series_keys():
        op, hw, _fp = key
        if operator is not None and op != operator:
            continue
        if hardware is not None and hw != hardware:
            continue
        runs = warehouse.series(key)
        if window is not None:
            runs = runs[-window:]
        points = []
        for run in runs:
            value = extract(run)
            if isinstance(value, (int, float)):
                points.append((run.created_at, float(value)))
        values = [v for _, v in points]
        best: float | None = None
        if values:
            best = min(values) if metric in _LOWER_IS_BETTER else max(values)
        rows.append(
            {
                "series": key,
                "metric": metric,
                "runs": len(runs),
                "points": points,
                "best": best,
                "latest": values[-1] if values else None,
                "trend": detect_trend(values),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Wall-time attribution
# ----------------------------------------------------------------------
def phase_attribution(runs: Sequence[RunRecord]) -> list[dict[str, Any]]:
    """Rank pipeline phases by corpus-wide self-time.

    Sums each manifest's per-phase ``self_us`` (time in the phase minus
    its children, so shares add up instead of double-counting nested
    stages) and returns rows sorted by total self-time descending, with
    the fraction of all attributed time each phase owns.
    """
    totals: dict[str, dict[str, float]] = {}
    for run in runs:
        for name, stat in run.phases.items():
            agg = totals.setdefault(
                name, {"self_us": 0.0, "total_us": 0.0, "count": 0.0, "runs": 0.0}
            )
            agg["self_us"] += stat.get("self_us", 0.0)
            agg["total_us"] += stat.get("total_us", 0.0)
            agg["count"] += stat.get("count", 0.0)
            agg["runs"] += 1
    grand = sum(agg["self_us"] for agg in totals.values())
    rows = [
        {
            "phase": name,
            "self_us": agg["self_us"],
            "total_us": agg["total_us"],
            "count": int(agg["count"]),
            "runs": int(agg["runs"]),
            "share": agg["self_us"] / grand if grand else 0.0,
        }
        for name, agg in totals.items()
    ]
    rows.sort(key=lambda row: row["self_us"], reverse=True)
    return rows


def aggregate_critical_paths(runs: Sequence[RunRecord]) -> list[dict[str, Any]]:
    """Tally the critical-path chains stamped into the manifests.

    Groups runs by the *name chain* of their critical path (lanes and
    durations vary run to run; the chain is the structural signal) and
    reports how often each chain bounded a run and its mean end-to-end
    time — "the GA measure phase bounds 80% of tunes" is an
    optimisation roadmap in one line.
    """
    by_chain: dict[tuple[str, ...], dict[str, float]] = {}
    for run in runs:
        if not run.critical_path:
            continue
        chain = tuple(entry.get("name", "?") for entry in run.critical_path)
        agg = by_chain.setdefault(chain, {"count": 0.0, "total_us": 0.0})
        agg["count"] += 1
        agg["total_us"] += run.critical_path[0].get("duration_us", 0.0)
    rows = [
        {
            "path": list(chain),
            "count": int(agg["count"]),
            "mean_us": agg["total_us"] / agg["count"],
        }
        for chain, agg in by_chain.items()
    ]
    rows.sort(key=lambda row: (-row["count"], -row["mean_us"]))
    return rows


# ----------------------------------------------------------------------
# Flat export (the table a learned cost model trains from)
# ----------------------------------------------------------------------
def corpus_rows(
    warehouse: Warehouse,
    operator: str | None = None,
    hardware: str | None = None,
) -> list[dict[str, Any]]:
    """One flat row per run: identity, outcome, cache behaviour,
    funnel counts and model quality — CSV/JSON-ready."""
    rows = []
    for run in warehouse.query(operator=operator, hardware=hardware):
        rate = _memo_hit_rate(run)
        row: dict[str, Any] = {
            "run_id": run.run_id,
            "created_at": run.created_at,
            "kind": run.kind,
            "operator": run.operator,
            "hardware": run.hardware,
            "budget_fingerprint": run.fingerprints.get("tuner_config", ""),
            "latency_us": run.latency_us,
            "wall_s": run.wall_s,
            "candidates_per_sec": run.candidates_per_sec,
            "pairwise_accuracy": run.model_quality.get("pairwise_accuracy"),
            "memo_hits": run.cache.get("memo_hits", 0.0),
            "memo_misses": run.cache.get("memo_misses", 0.0),
            "memo_evictions": run.cache.get("memo_evictions", 0.0),
            "memo_hit_rate": rate,
            "compile_cache_hits": run.cache.get("compile_cache_hits", 0.0),
            "compile_cache_misses": run.cache.get("compile_cache_misses", 0.0),
            "pool_tasks": run.cache.get("pool_tasks", 0.0),
            "health_warnings": sum(run.health.values()),
            "critical_phase": (
                run.critical_path[-1]["name"] if run.critical_path else ""
            ),
        }
        for stage in FUNNEL_STAGES:
            row[f"funnel_{stage}"] = run.funnel.get(stage, 0)
        rows.append(row)
    return rows


def rows_to_csv(rows: Sequence[dict[str, Any]]) -> str:
    """Serialise :func:`corpus_rows` output as CSV text."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Renderers (the `repro corpus` CLI surfaces)
# ----------------------------------------------------------------------
def _fmt_us(us: float | None) -> str:
    if us is None:
        return "-"
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.1f}us"


def render_corpus_stats(stats: dict[str, Any]) -> str:
    """Human-readable `repro corpus stats` block."""
    lines = [f"== corpus {stats['corpus']} =="]
    lines.append(
        f"  runs: {stats['runs']}  series: {stats['series']}  "
        f"with events: {stats['runs_with_events']}  "
        f"store: {stats['store_bytes']} bytes"
    )
    if stats["runs"]:
        lines.append(
            f"  span: {stats['first_created_at']} .. {stats['last_created_at']}"
        )
    for label in ("operators", "hardware"):
        if stats[label]:
            parts = ", ".join(
                f"{name}={count}" for name, count in stats[label].items()
            )
            lines.append(f"  {label}: {parts}")
    return "\n".join(lines)


def render_trends(rows: Sequence[dict[str, Any]], metric: str) -> str:
    """Human-readable `repro corpus trend` table."""
    lines = [f"== corpus trend: {metric} =="]
    if not rows:
        lines.append("  (no matching series)")
        return "\n".join(lines)
    fmt = _fmt_us if metric in _LOWER_IS_BETTER else (
        lambda v: "-" if v is None else f"{v:.3f}"
    )
    for row in rows:
        op, hw, fp = row["series"]
        trend = row["trend"]
        lines.append(
            f"  {op} on {hw} [{fp[:8] or '-'}]: {row['runs']} run(s)  "
            f"best {fmt(row['best'])}  latest {fmt(row['latest'])}  "
            f"{trend['direction']} ({trend['rel_drift']:+.2%} over window)"
        )
        values = [v for _, v in row["points"]][-10:]
        if values:
            lines.append("    " + " > ".join(fmt(v) for v in values))
    return "\n".join(lines)


def render_attribution(
    phases: Sequence[dict[str, Any]],
    paths: Sequence[dict[str, Any]],
    top: int = 10,
) -> str:
    """Human-readable `repro corpus attribution` report."""
    lines = ["== corpus attribution: where tune wall-time goes =="]
    if not phases:
        lines.append("  (no phase data in the corpus)")
    else:
        lines.append(
            f"  {'phase':36} {'share':>7} {'self':>10} {'calls':>8} {'runs':>5}"
        )
        for row in phases[:top]:
            lines.append(
                f"  {row['phase']:36} {row['share']:>6.1%} "
                f"{_fmt_us(row['self_us']):>10} {row['count']:>8} {row['runs']:>5}"
            )
    lines.append("")
    lines.append("-- critical paths (heaviest span chain per run) --")
    if not paths:
        lines.append("  (no critical paths recorded)")
    else:
        for row in paths[:5]:
            lines.append(
                f"  {row['count']:>3} run(s)  mean {_fmt_us(row['mean_us']):>9}  "
                + " > ".join(row["path"])
            )
    return "\n".join(lines)


def render_ingest_report(report: dict[str, Any]) -> str:
    """One-line summary of a `repro corpus ingest`."""
    return (
        f"ingested {report['source']}: {report['new_runs']} new run(s), "
        f"{report['known_runs']} already known, "
        f"{report['runs_with_events']} with event streams "
        f"({report['event_streams']} stream file(s))"
    )


def to_json(obj: Any) -> str:
    """Stable JSON for CLI --json exports."""
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
