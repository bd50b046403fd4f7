"""Live telemetry: event sinks, the health monitor, and ``repro watch``.

Everything here consumes the event bus (:mod:`repro.obs.events`):

* :class:`JsonlSink` — streams every event to an append-only JSONL file
  using the same crash-safe O_APPEND single-``write`` discipline as the
  compile cache: a crash can tear at most the final line, and
  :func:`load_events` resynchronises past torn lines instead of dying.
* :class:`HealthMonitor` — pure, replayable detectors over the event
  stream: no-progress intervals and fitness stagnation over k
  generations.
  :func:`attach_health_monitor` wires one to the live bus, republishing
  detections as ``health.warning`` events and ``obs.health.*`` counters
  (which the flight recorder folds into the run manifest).
* :class:`WatchState` + :func:`render_dashboard` — the aggregation and
  terminal rendering behind ``python -m repro watch <run-dir>``:
  generation fitness/diversity, the mapping funnel, engine rows and
  compile-cache hits, pool counters, health warnings and an ETA from
  budget progress.

Counted facts reach the stream only as ``metric.inc`` events published
by ``Counter.inc`` itself.  :class:`WatchState` sums them per counter
name and derives its cache/health sections through
:func:`repro.obs.runlog.counter_sections` — the function the manifest
uses — so a finished stream and its manifest agree by definition.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.events import EVENT_SCHEMA, validate_event
from repro.obs.explore_log import FUNNEL_STAGES
from repro.obs.logging import get_logger
from repro.obs.runlog import counter_sections

__all__ = [
    "HealthConfig",
    "HealthMonitor",
    "JsonlSink",
    "WatchState",
    "attach_health_monitor",
    "find_event_stream",
    "load_events",
    "render_dashboard",
    "watch",
]

_log = get_logger("repro.obs.live")


# ----------------------------------------------------------------------
# JSONL file sink
# ----------------------------------------------------------------------
class JsonlSink:
    """Append-only JSONL event sink (crash-safe, mid-run readable).

    Each event is serialised to one newline-terminated line and written
    with a single ``os.write`` on an ``O_APPEND`` descriptor — the same
    discipline as the compile cache — so concurrent readers (a live
    ``repro watch``) see only whole lines plus at most one torn tail
    after a crash, which :func:`load_events` skips.
    """

    def __init__(self, path: str | os.PathLike, bus: _events.EventBus | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._lock = threading.Lock()
        self._bus = bus
        self._token = bus.subscribe(self) if bus is not None else None

    def __call__(self, event: dict[str, Any]) -> None:
        line = (json.dumps(event, sort_keys=True, default=str) + "\n").encode()
        with self._lock:
            if self._fd < 0:
                return
            view = memoryview(line)
            while view:
                written = os.write(self._fd, view)
                view = view[written:]

    def close(self) -> None:
        if self._token is not None and self._bus is not None:
            self._bus.unsubscribe(self._token)
            self._token = None
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_events(path: str | os.PathLike) -> tuple[list[dict[str, Any]], int]:
    """Read an event stream file; returns ``(events, skipped_lines)``.

    Unparseable lines (torn tail after a crash, mid-write reads) and
    events from another schema are skipped and counted, never fatal — a
    live ``watch`` over an in-flight file must not crash on a partial
    line.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], 0
    return _parse_lines(raw)


def _parse_lines(raw: bytes) -> tuple[list[dict[str, Any]], int]:
    """Events of this schema in ``raw`` JSONL bytes, plus the number of
    other non-blank lines (unparseable or another schema)."""
    events: list[dict[str, Any]] = []
    skipped = 0
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(event, dict) or event.get("schema") != EVENT_SCHEMA:
            skipped += 1
            continue
        events.append(event)
    return events, skipped


def events_by_run(
    directory: str | os.PathLike,
) -> tuple[dict[str, tuple[str, list[dict[str, Any]]]], int]:
    """The events of every ``events_*.jsonl`` stream in ``directory``,
    grouped by run id — ``run_id -> (stream file name, events)`` — and
    the number of streams read.  Events published outside a recorded run
    (no run id) are dropped; a run id found in several streams keeps the
    last stream's events (by name)."""
    grouped: dict[str, tuple[str, list[dict[str, Any]]]] = {}
    streams = sorted(Path(directory).glob("events_*.jsonl"))
    for stream in streams:
        by_run: dict[str, list[dict[str, Any]]] = {}
        for event in load_events(stream)[0]:
            run_id = event.get("run_id")
            if isinstance(run_id, str) and run_id:
                by_run.setdefault(run_id, []).append(event)
        for run_id, events in by_run.items():
            grouped[run_id] = (stream.name, events)
    return grouped, len(streams)


def find_event_stream(source: str | os.PathLike) -> Path:
    """Resolve a watch source to an event file: a file is itself, a
    directory yields its newest ``events_*.jsonl``."""
    p = Path(source)
    if p.is_file():
        return p
    if p.is_dir():
        streams = sorted(p.glob("events_*.jsonl"), key=lambda f: f.stat().st_mtime)
        if not streams:
            raise FileNotFoundError(
                f"no runs/events found: no events_*.jsonl stream under {p} "
                "(was the run started with --live?)"
            )
        return streams[-1]
    raise FileNotFoundError(
        f"no runs/events found: {p} is not an event stream or run directory"
    )


# ----------------------------------------------------------------------
# Health monitor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HealthConfig:
    """Detector thresholds.

    ``no_progress_s``: seconds without any progress event before the
    search is flagged stalled.  ``stagnation_generations``: GA window —
    the best finite fitness of the last k generations must improve on
    the best before them by ``stagnation_rel_tol`` (relative) or the
    search is flagged stagnant.
    """

    no_progress_s: float = 30.0
    stagnation_generations: int = 5
    stagnation_rel_tol: float = 1e-3


class HealthMonitor:
    """Pure, replayable stall/anomaly detectors over an event stream.

    Feed events (live via :func:`attach_health_monitor`, or replayed
    from a JSONL stream) through :meth:`observe`; call :meth:`check_idle`
    from a render/poll loop to detect silence between events.  Each
    detector is latched: it fires once per episode and re-arms when the
    condition clears, so a render loop polling every second does not
    emit a warning per tick.

    The detectors' own ``obs.health.*`` records are ignored; every other
    event counts as progress.
    """

    #: Event types that never count as (or affect) health signals.
    IGNORED_TYPES = frozenset({"health.warning", "log"})

    def __init__(self, config: HealthConfig | None = None):
        self.config = config or HealthConfig()
        self.last_progress_wall: float | None = None
        self.best_history: list[float] = []  # per-generation best (inf for none)
        self._latched: set[str] = set()
        self.warnings: list[dict[str, Any]] = []

    # -- detectors ------------------------------------------------------
    def observe(self, event: dict[str, Any]) -> list[dict[str, Any]]:
        """Consume one event; returns newly fired warnings (usually [])."""
        etype = event.get("type")
        data = event.get("data")
        if etype in self.IGNORED_TYPES or not isinstance(data, dict):
            return []
        name = data.get("name", "") if etype == "metric.inc" else ""
        if name.startswith("obs.health."):
            return []
        t_wall = event.get("t_wall", 0.0)
        fired: list[dict[str, Any]] = []

        gap = self._progress_gap(t_wall)
        if gap is not None:
            fired.append(
                self._warn(
                    "no_progress",
                    f"no progress events for {gap:.1f}s "
                    f"(threshold {self.config.no_progress_s:.0f}s)",
                    gap_s=round(gap, 3),
                )
            )
        self.last_progress_wall = t_wall
        self._latched.discard("no_progress")  # progress resumed; re-arm

        if etype == "ga.generation":
            fired.extend(self._observe_generation(data))
        self.warnings.extend(fired)
        return fired

    def check_idle(self, now_wall: float) -> list[dict[str, Any]]:
        """Poll-side no-progress check (no event arrived to trigger it)."""
        gap = self._progress_gap(now_wall)
        if gap is None:
            return []
        self._latched.add("no_progress")
        warning = self._warn(
            "no_progress",
            f"no progress events for {gap:.1f}s "
            f"(threshold {self.config.no_progress_s:.0f}s)",
            gap_s=round(gap, 3),
        )
        self.warnings.append(warning)
        return [warning]

    def _progress_gap(self, now_wall: float) -> float | None:
        if self.last_progress_wall is None or "no_progress" in self._latched:
            return None
        gap = now_wall - self.last_progress_wall
        return gap if gap > self.config.no_progress_s else None

    def _observe_generation(self, data: dict[str, Any]) -> list[dict[str, Any]]:
        best = data.get("best_fitness")
        self.best_history.append(
            float(best) if isinstance(best, (int, float)) else float("inf")
        )
        k = self.config.stagnation_generations
        if len(self.best_history) <= k:
            return []
        prior = min(self.best_history[:-k])
        recent = min(self.best_history[-k:])
        improved = recent < prior * (1.0 - self.config.stagnation_rel_tol)
        if improved:
            self._latched.discard("stagnation")
            return []
        if "stagnation" in self._latched or prior == float("inf"):
            return []
        self._latched.add("stagnation")
        return [
            self._warn(
                "stagnation",
                f"best fitness has not improved over the last {k} generations "
                f"(stuck at {recent:.4g})",
                generations=k,
                best_fitness=recent,
            )
        ]

    def _warn(self, detector: str, message: str, **extra: Any) -> dict[str, Any]:
        return {"detector": detector, "message": message, **extra}


class _BusHealth:
    """Bus-attached monitor: republishes detections as ``health.warning``
    events and ``obs.health.*`` counters (manifest-bound)."""

    def __init__(self, bus: _events.EventBus, monitor: HealthMonitor):
        self.bus = bus
        self.monitor = monitor
        self._token = bus.subscribe(self)

    def __call__(self, event: dict[str, Any]) -> None:
        for warning in self.monitor.observe(event):
            _metrics.counter(f"obs.health.{warning['detector']}").inc()
            self.bus.publish("health.warning", warning)
            _log.warning(
                "health detector fired",
                detector=warning["detector"],
                detail=warning["message"],
            )

    def close(self) -> None:
        self.bus.unsubscribe(self._token)


def attach_health_monitor(
    bus: _events.EventBus | None = None, config: HealthConfig | None = None
) -> _BusHealth:
    """Wire a :class:`HealthMonitor` to the (default) live bus."""
    return _BusHealth(bus or _events.get_bus(), HealthMonitor(config))


# ----------------------------------------------------------------------
# Watch: aggregation + dashboard
# ----------------------------------------------------------------------
@dataclass
class WatchState:
    """Cumulative view of one event stream, updated event by event.

    ``counters`` sums the stream's ``metric.inc`` events per counter
    name; :meth:`sections` maps them to the manifest's ``cache`` /
    ``health`` sections with the manifest's own function, and ``funnel``
    sums the ``funnel.stage`` counts the manifest's funnel holds, so a
    finished stream and its run manifest agree to the digit.
    """

    run_id: str = ""
    kind: str = ""
    operator: str = ""
    hardware: str = ""
    budget: dict[str, Any] = field(default_factory=dict)
    started_wall: float | None = None
    ended: dict[str, Any] | None = None
    funnel: dict[str, int] = field(default_factory=dict)
    generations: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: Engine batches seen: one ``engine.rows`` record per batch (one
    #: ``engine.cache.miss`` record in streams recorded while the engine
    #: kept a row memo).
    heartbeats: int = 0
    lanes: set = field(default_factory=set)
    warnings: list[dict[str, Any]] = field(default_factory=list)
    log_tail: deque = field(default_factory=lambda: deque(maxlen=5))
    events_seen: int = 0
    invalid_events: int = 0
    last_t_wall: float | None = None

    def apply(self, event: dict[str, Any]) -> None:
        if validate_event(event):
            self.invalid_events += 1
            return
        self.events_seen += 1
        self.last_t_wall = max(self.last_t_wall or 0.0, event["t_wall"])
        if event.get("lane") is not None:
            self.lanes.add(event["lane"])
        if event.get("run_id") and not self.run_id:
            self.run_id = event["run_id"]
        data = event["data"]
        etype = event["type"]
        if etype == "run.start":
            self.kind = data.get("kind", "")
            self.operator = data.get("operator", "")
            self.hardware = data.get("hardware", "")
            self.budget = dict(data.get("budget") or {})
            self.started_wall = event["t_wall"]
        elif etype == "run.end":
            self.ended = dict(data)
        elif etype == "funnel.stage":
            stage = data.get("stage", "?")
            self.funnel[stage] = self.funnel.get(stage, 0) + int(data.get("count", 0))
        elif etype == "ga.generation":
            self.generations.append(data)
        elif etype == "metric.inc":
            name = str(data["name"])
            self.counters[name] = self.counters.get(name, 0.0) + data["amount"]
            if name in ("engine.rows", "engine.cache.miss"):
                self.heartbeats += 1
        elif etype == "health.warning":
            self.warnings.append(data)
        elif etype == "log":
            self.log_tail.append(data)

    def apply_all(self, events: Sequence[dict[str, Any]]) -> "WatchState":
        for event in events:
            self.apply(event)
        return self

    # -- derived --------------------------------------------------------
    def sections(self) -> dict[str, dict[str, float]]:
        """The manifest's counter sections, folded from this stream."""
        return counter_sections(self.counters)

    def eta_s(self, now_wall: float | None = None) -> float | None:
        """Rough remaining time from GA budget progress (None once the
        search phase is over or before the budget is known)."""
        total = self.budget.get("generations")
        if not total or self.ended is not None or not self.generations:
            return None
        done = len(self.generations)
        if done >= total + 1 or self.started_wall is None:
            return None
        now = now_wall if now_wall is not None else (self.last_t_wall or 0.0)
        elapsed = max(0.0, now - self.started_wall)
        per_gen = elapsed / done
        return max(0.0, (total + 1 - done) * per_gen)


def _fmt_span(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.2f}ms"
    return f"{us:.1f}us"


def _fmt_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


def _fmt_fitness(value: Any) -> str:
    if not isinstance(value, (int, float)) or value != value or value == float("inf"):
        return "inf"
    return _fmt_span(float(value))


def render_dashboard(state: WatchState, now_wall: float | None = None) -> str:
    """Render one :class:`WatchState` snapshot as a terminal dashboard."""
    now = now_wall if now_wall is not None else time.time()
    title_bits = [b for b in (state.operator, "on", state.hardware) if b]
    title = " ".join(title_bits) if state.operator else "waiting for run.start"
    head = f"== repro watch: {title}"
    if state.kind or state.run_id:
        head += f" ({' '.join(b for b in (state.kind, state.run_id) if b)})"
    lines = [head + " =="]

    if state.ended is not None:
        status = state.ended.get("status", "?")
        lines.append(f"  status: finished ({status})")
    elif state.last_t_wall is not None:
        age = max(0.0, now - state.last_t_wall)
        lines.append(f"  status: running (last event {age:.1f}s ago)")
    else:
        lines.append("  status: no events yet")
    if state.started_wall is not None:
        end = state.last_t_wall if state.ended is not None else now
        lines.append(f"  elapsed: {max(0.0, (end or now) - state.started_wall):.1f}s")
    eta = state.eta_s(now)
    if eta is not None:
        lines.append(f"  eta: ~{eta:.0f}s (search phase)")

    lines.append("")
    lines.append("-- genetic search --")
    if state.generations:
        total = state.budget.get("generations")
        last = state.generations[-1]
        of = f"/{total}" if total else ""
        lines.append(
            f"  generation {last.get('generation', '?')}{of}  "
            f"best {_fmt_fitness(last.get('best_fitness'))}  "
            f"mean {_fmt_fitness(last.get('mean_fitness'))}  "
            f"diversity {last.get('diversity', 0.0):.2f}"
        )
        curve = [
            g.get("best_fitness")
            for g in state.generations[-12:]
            if isinstance(g.get("best_fitness"), (int, float))
        ]
        if curve:
            lines.append(
                "  best curve: " + " > ".join(_fmt_fitness(v) for v in curve)
            )
    else:
        lines.append("  (no generations yet)")

    lines.append("")
    lines.append("-- mapping funnel --")
    if state.funnel:
        base = max(state.funnel.values())
        for stage in FUNNEL_STAGES:
            if stage not in state.funnel:
                continue
            count = state.funnel[stage]
            bar = "#" * int(30 * count / base) if base else ""
            lines.append(f"  {stage:12} {count:>8}  {bar}")
    else:
        lines.append("  (no funnel events yet)")

    lines.append("")
    lines.append("-- engine --")
    sections = state.sections()
    cache = sections["cache"]
    if state.heartbeats:
        lines.append(
            f"  rows evaluated: {_fmt_count(cache['rows'])} "
            f"over {state.heartbeats} batches"
        )
    else:
        lines.append("  (no engine batches yet)")
    if cache["compile_cache_hits"] or cache["compile_cache_misses"]:
        lines.append(
            f"  compile cache: {_fmt_count(cache['compile_cache_hits'])} hit(s), "
            f"{_fmt_count(cache['compile_cache_misses'])} miss(es)"
        )
    if state.lanes:
        lines.append(f"  pool lanes seen: {len(state.lanes)}")

    lines.append("")
    lines.append("-- health --")
    if state.warnings:
        for warning in state.warnings[-5:]:
            lines.append(
                f"  WARNING [{warning.get('detector', '?')}] "
                f"{warning.get('message', '')}"
            )
    else:
        lines.append("  (no warnings)")
    for entry in state.log_tail:
        lines.append(f"  log[{entry.get('level', '?')}]: {entry.get('msg', '')}")

    if state.ended is not None:
        outcome = state.ended.get("outcome") or {}
        latency = outcome.get("latency_us")
        if isinstance(latency, (int, float)):
            lines.append("")
            lines.append(f"run ended: best simulated latency {_fmt_span(latency)}")
    if state.invalid_events:
        lines.append("")
        lines.append(f"  ({state.invalid_events} invalid event(s) skipped)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The watch entry point
# ----------------------------------------------------------------------
def _tail_file(path: Path, offset: int) -> tuple[list[dict[str, Any]], int]:
    """Events appended past ``offset``; returns (events, new_offset).
    Only whole lines are consumed — a partial tail stays for next poll."""
    try:
        with path.open("rb") as stream:
            stream.seek(offset)
            raw = stream.read()
    except OSError:
        return [], offset
    if not raw:
        return [], offset
    complete, sep, _rest = raw.rpartition(b"\n")
    if not sep:
        return [], offset
    return _parse_lines(complete)[0], offset + len(complete) + 1


def watch(
    source: str,
    once: bool = False,
    validate: bool = False,
    interval_s: float = 1.0,
    out: Callable[[str], None] = print,
    max_updates: int | None = None,
) -> int:
    """``python -m repro watch`` engine; returns a process exit code.

    ``source`` is an event-stream file or a run directory (newest
    ``events_*.jsonl`` wins).  With ``once`` the current state is
    rendered exactly once (CI snapshot mode); ``validate`` additionally
    schema-checks every event and fails the exit code on violations.
    ``max_updates`` bounds the follow loop (tests); interactive runs
    follow until interrupted.
    """
    problems: list[str] = []
    state = WatchState()
    try:
        path = find_event_stream(source)
        raw = path.read_bytes()
    except OSError as exc:
        out(f"watch: {exc}")
        return 1

    events, skipped = _parse_lines(raw)
    if validate:
        for event in events:
            problems.extend(
                f"seq {event.get('seq')}: {p}" for p in validate_event(event)
            )
        if skipped:
            problems.append(f"{skipped} unreadable line(s) skipped")
    state.apply_all(events)
    if once:
        # CI snapshot mode: an empty stream is a failure, not a blank
        # dashboard — a green "waiting for run.start" snapshot would hide
        # a tune that never emitted anything.
        if not state.events_seen and not state.invalid_events:
            detail = (
                f"{skipped} unreadable or other-schema line(s)"
                if skipped
                else "stream is empty"
            )
            out(f"watch: no runs/events found in {path} ({detail})")
            return 1
        out(render_dashboard(state))
        return _finish_watch(state, problems, validate, out)

    # Follow from the end of the last whole line: a line still being
    # written is read once it is complete, never skipped.
    offset = raw.rfind(b"\n") + 1
    monitor = HealthMonitor()
    for event in events:
        monitor.observe(event)
    updates = 0
    try:
        while True:
            out("\x1b[2J\x1b[H" + render_dashboard(state))
            updates += 1
            if max_updates is not None and updates >= max_updates:
                break
            if state.ended is not None:
                break
            time.sleep(interval_s)
            fresh, offset = _tail_file(path, offset)
            for event in fresh:
                state.apply(event)
                monitor.observe(event)
            for warning in monitor.check_idle(time.time()):
                state.warnings.append(warning)
    except KeyboardInterrupt:
        pass
    return _finish_watch(state, problems, validate, out)


def _finish_watch(
    state: WatchState,
    problems: list[str],
    validate: bool,
    out: Callable[[str], None],
) -> int:
    if validate:
        if problems:
            out(f"\nvalidation: {len(problems)} problem(s)")
            for problem in problems[:20]:
                out(f"  {problem}")
            return 1
        out(f"\nvalidation: {state.events_seen} event(s), all schema-valid")
    return 0
