"""Chrome-trace (Perfetto) exporter for merged span timelines.

Renders the tracer's spans — including worker spans adopted across the
process boundary by :class:`~repro.engine.pool.WorkerPool` — as a Chrome
Trace Event Format JSON file.  Open the result in ``chrome://tracing``
or https://ui.perfetto.dev to see the tune run as a flame chart with one
lane per process: lane 0 is the parent (enumeration, GA, batching), and
each pool worker gets its own lane showing the ``worker.eval`` /
``worker.eval_chunk`` spans the parent merged in, already rebased onto
the parent's clock.

Only the "complete" (``ph: "X"``) and "metadata" (``ph: "M"``) event
types are emitted, which every Chrome-trace consumer understands.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Sequence

from repro.obs.trace import Span, get_tracer

__all__ = ["chrome_trace_events", "export_chrome_trace"]


def _lane_name(lane: int) -> str:
    return "main" if lane == 0 else f"worker-{lane}"


def chrome_trace_events(spans: Sequence[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome trace events (one ``X`` each, plus lane metadata).

    Timestamps are rebased so the earliest span starts at t=0 — raw
    ``perf_counter`` values are arbitrary and huge, and trace viewers
    render absolute offsets poorly.  In-flight spans (no end time) are
    skipped.  A span's lane is its ``lane`` attribute when the pool
    merge tagged one, else lane 0 (the parent process).
    """
    finished = [s for s in spans if s.end_s is not None]
    if not finished:
        return []
    t0 = min(s.start_s for s in finished)
    lanes: set[int] = set()
    events: list[dict[str, Any]] = []
    for s in finished:
        lane = s.attrs.get("lane", 0)
        if not isinstance(lane, int):
            lane = 0
        lanes.add(lane)
        args: dict[str, Any] = {
            k: v for k, v in s.attrs.items() if k != "lane"
        }
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start_s - t0) * 1e6,
                "dur": s.duration_us,
                "pid": 0,
                "tid": lane,
                "args": args,
            }
        )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": lane,
            "args": {"name": _lane_name(lane)},
        }
        for lane in sorted(lanes)
    ]
    # Sort order metadata keeps lanes in pid order in the viewer.
    meta.extend(
        {
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 0,
            "tid": lane,
            "args": {"sort_index": lane},
        }
        for lane in sorted(lanes)
    )
    return meta + events


def export_chrome_trace(
    path: str | os.PathLike, spans: Sequence[Span] | None = None
) -> Path:
    """Write the spans (default: the global tracer's) as a Chrome trace.

    Returns the written path.  The file is a standard ``traceEvents``
    JSON object loadable by ``chrome://tracing`` and Perfetto.
    """
    if spans is None:
        spans = get_tracer().spans()
    doc = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return out
