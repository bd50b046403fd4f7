"""Live telemetry: event sinks, the health monitor, and ``repro watch``.

Everything here consumes the event bus (:mod:`repro.obs.events`):

* :class:`JsonlSink` — streams every event to an append-only JSONL file
  using the same crash-safe O_APPEND single-``write`` discipline as the
  compile cache: a crash can tear at most the final line, and
  :func:`load_events` resynchronises past torn lines instead of dying.
* :class:`EventSocketServer` — a line-protocol TCP/Unix socket server;
  external clients connect mid-run, receive a ``stream.hello`` greeting
  and then every event as one JSON line.  A slow or dead client is
  dropped, never waited on — telemetry must not stall the tune.
* :class:`HealthMonitor` — pure, replayable detectors over the event
  stream: no-progress intervals, fitness stagnation over k generations,
  cache-hit-rate collapse after warm-up, divergence-watchdog spikes.
  :func:`attach_health_monitor` wires one to the live bus, republishing
  detections as ``health.warning`` events and ``obs.health.*`` counters
  (which the flight recorder folds into the run manifest).
* :class:`WatchState` + :func:`render_dashboard` — the aggregation and
  terminal rendering behind ``python -m repro watch <run-dir|socket>``:
  generation fitness/diversity, the mapping funnel, cache hit rates,
  pool/fault counters, health warnings and an ETA from budget progress.

The cumulative counters a finished stream aggregates (funnel, memo
cache, faults) are *identical by construction* to the run manifest's
sections: both sides sum the same per-event deltas.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.events import EVENT_SCHEMA, validate_event
from repro.obs.explore_log import FUNNEL_STAGES
from repro.obs.logging import get_logger

__all__ = [
    "EventSocketServer",
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
    events: list[dict[str, Any]] = []
    skipped = 0
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], 0
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
        f"no runs/events found: {p} is not an event stream, run directory "
        "or socket endpoint"
    )


# ----------------------------------------------------------------------
# Socket server sink (line protocol)
# ----------------------------------------------------------------------
class EventSocketServer:
    """Stream events to external subscribers over a TCP or Unix socket.

    ``address`` is ``"host:port"`` / ``"port"`` for TCP (port 0 picks a
    free one; see :attr:`endpoint`) or a filesystem path for a Unix
    socket.  Each client receives a ``stream.hello`` line (schema
    handshake) and then every event as one JSON line.  Writes use a
    short timeout; a client that cannot keep up is dropped so the
    publishing thread — the tune itself — never blocks on telemetry.
    """

    def __init__(
        self,
        address: str,
        bus: _events.EventBus | None = None,
        timeout_s: float = 1.0,
    ):
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._clients: list[socket.socket] = []
        self._closed = False
        self._unix_path: Path | None = None
        if _looks_like_tcp(address):
            host, port = _parse_tcp(address)
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind((host, port))
            bound = self._server.getsockname()
            self.endpoint = f"{bound[0]}:{bound[1]}"
        else:
            self._unix_path = Path(address)
            if self._unix_path.exists():
                self._unix_path.unlink()
            self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._server.bind(str(self._unix_path))
            self.endpoint = str(self._unix_path)
        self._server.listen(8)
        self._server.settimeout(0.2)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-event-socket", daemon=True
        )
        self._accept_thread.start()
        self._bus = bus
        self._token = bus.subscribe(self) if bus is not None else None

    def _accept_loop(self) -> None:
        hello = (
            json.dumps(
                _events.get_bus().publish("stream.hello", {"endpoint": self.endpoint})
                if _events.events_enabled()
                else {
                    "type": "stream.hello",
                    "t_s": time.perf_counter(),
                    "t_wall": time.time(),
                    "seq": -1,
                    "pid": os.getpid(),
                    "data": {"endpoint": self.endpoint},
                    "lane": None,
                    "run_id": "",
                    "span_id": None,
                    "schema": EVENT_SCHEMA,
                },
                sort_keys=True,
            )
            + "\n"
        ).encode()
        while not self._closed:
            try:
                client, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            client.settimeout(self.timeout_s)
            try:
                client.sendall(hello)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._clients.append(client)

    def __call__(self, event: dict[str, Any]) -> None:
        line = (json.dumps(event, sort_keys=True, default=str) + "\n").encode()
        with self._lock:
            clients = list(self._clients)
        dead = []
        for client in clients:
            try:
                client.sendall(line)
            except (OSError, socket.timeout):
                dead.append(client)
        if dead:
            with self._lock:
                for client in dead:
                    if client in self._clients:
                        self._clients.remove(client)
                    client.close()

    @property
    def n_clients(self) -> int:
        with self._lock:
            return len(self._clients)

    def close(self) -> None:
        if self._token is not None and self._bus is not None:
            self._bus.unsubscribe(self._token)
            self._token = None
        self._closed = True
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
        with self._lock:
            for client in self._clients:
                client.close()
            self._clients.clear()
        if self._unix_path is not None and self._unix_path.exists():
            try:
                self._unix_path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "EventSocketServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _looks_like_tcp(address: str) -> bool:
    if address.isdigit():
        return True
    host, sep, port = address.rpartition(":")
    return bool(sep) and port.isdigit() and "/" not in host


def _parse_tcp(address: str) -> tuple[str, int]:
    if address.isdigit():
        return "127.0.0.1", int(address)
    host, _, port = address.rpartition(":")
    return host or "127.0.0.1", int(port)


def subscribe_events(
    address: str, timeout_s: float | None = None
) -> Iterator[dict[str, Any]]:
    """Connect to an :class:`EventSocketServer` and yield events.

    Terminates when the server closes the connection (run over) or a
    read times out (``timeout_s``).
    """
    if _looks_like_tcp(address):
        host, port = _parse_tcp(address)
        sock = socket.create_connection((host, port), timeout=timeout_s)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        sock.connect(address)
    try:
        buffer = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                return
            if not chunk:
                return
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict) and event.get("schema") == EVENT_SCHEMA:
                    yield event
    finally:
        sock.close()


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
    search is flagged stagnant.  Cache collapse: once the rolling hit
    rate over the last ``cache_window`` heartbeats has ever reached
    ``cache_warm_rate``, dropping below ``cache_collapse_rate`` flags a
    collapse (a cold start is not a collapse).  Any divergence-watchdog
    mismatch is flagged immediately.
    """

    no_progress_s: float = 30.0
    stagnation_generations: int = 5
    stagnation_rel_tol: float = 1e-3
    cache_window: int = 20
    cache_min_heartbeats: int = 8
    cache_collapse_rate: float = 0.05
    cache_warm_rate: float = 0.20


class HealthMonitor:
    """Pure, replayable stall/anomaly detectors over an event stream.

    Feed events (live via :func:`attach_health_monitor`, or replayed
    from a JSONL stream) through :meth:`observe`; call :meth:`check_idle`
    from a render/poll loop to detect silence between events.  Each
    detector is latched: it fires once per episode and re-arms when the
    condition clears, so a render loop polling every second does not
    emit a warning per tick.
    """

    #: Event types that never count as (or affect) health signals.
    IGNORED_TYPES = frozenset({"health.warning", "log", "stream.hello", "metric.delta"})

    def __init__(self, config: HealthConfig | None = None):
        self.config = config or HealthConfig()
        self.last_progress_wall: float | None = None
        self.best_history: list[float] = []  # per-generation best (inf for none)
        self._heartbeats: deque[tuple[float, float]] = deque(
            maxlen=self.config.cache_window
        )
        self._best_rate = 0.0
        self._latched: set[str] = set()
        self.warnings: list[dict[str, Any]] = []

    # -- detectors ------------------------------------------------------
    def observe(self, event: dict[str, Any]) -> list[dict[str, Any]]:
        """Consume one event; returns newly fired warnings (usually [])."""
        etype = event.get("type")
        if etype in self.IGNORED_TYPES or not isinstance(event.get("data"), dict):
            return []
        t_wall = event.get("t_wall", 0.0)
        data = event["data"]
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
        elif etype == "engine.heartbeat":
            fired.extend(self._observe_heartbeat(data))
        elif etype == "engine.divergence" and data.get("mismatched", 0) > 0:
            fired.append(
                self._warn(
                    "divergence",
                    f"{data['mismatched']} batch/scalar mismatch(es) "
                    f"in {data.get('checked', 0)} checked evaluations",
                    mismatched=data["mismatched"],
                )
            )
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

    def _observe_heartbeat(self, data: dict[str, Any]) -> list[dict[str, Any]]:
        self._heartbeats.append(
            (float(data.get("hits", 0)), float(data.get("misses", 0)))
        )
        if len(self._heartbeats) < self.config.cache_min_heartbeats:
            return []
        hits = sum(h for h, _ in self._heartbeats)
        total = hits + sum(m for _, m in self._heartbeats)
        if not total:
            return []
        rate = hits / total
        self._best_rate = max(self._best_rate, rate)
        if rate >= self.config.cache_collapse_rate:
            self._latched.discard("cache_collapse")
            return []
        if (
            self._best_rate < self.config.cache_warm_rate
            or "cache_collapse" in self._latched
        ):
            return []
        self._latched.add("cache_collapse")
        return [
            self._warn(
                "cache_collapse",
                f"memo cache hit rate collapsed to {rate:.1%} "
                f"(was {self._best_rate:.1%})",
                hit_rate=round(rate, 4),
                best_rate=round(self._best_rate, 4),
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

    The counter aggregates (``funnel``, ``memo_hits``/``memo_misses``,
    ``faults``) sum exactly the per-event deltas the manifest's sections
    sum, so a finished stream and its run manifest agree to the digit.
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
    heartbeats: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    compile_cache: dict[str, int] = field(default_factory=dict)
    faults: dict[str, float] = field(default_factory=dict)
    divergence_checked: int = 0
    divergence_mismatched: int = 0
    lanes: set = field(default_factory=set)
    warnings: list[dict[str, Any]] = field(default_factory=list)
    log_tail: deque = field(default_factory=lambda: deque(maxlen=5))
    metric_deltas: list[dict[str, Any]] = field(default_factory=list)
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
        elif etype == "engine.heartbeat":
            self.heartbeats += 1
            self.memo_hits += int(data.get("hits", 0))
            self.memo_misses += int(data.get("misses", 0))
        elif etype == "cache.compile":
            key = str(data.get("event", "?"))
            self.compile_cache[key] = self.compile_cache.get(key, 0) + 1
        elif etype == "engine.fault":
            name = str(data.get("name", "?"))
            self.faults[name] = self.faults.get(name, 0.0) + float(
                data.get("amount", 1)
            )
        elif etype == "engine.divergence":
            self.divergence_checked += int(data.get("checked", 0))
            self.divergence_mismatched += int(data.get("mismatched", 0))
        elif etype == "health.warning":
            self.warnings.append(data)
        elif etype == "log":
            self.log_tail.append(data)
        elif etype == "metric.delta":
            self.metric_deltas = list(data.get("deltas") or [])

    def apply_all(self, events: Sequence[dict[str, Any]]) -> "WatchState":
        for event in events:
            self.apply(event)
        return self

    # -- derived --------------------------------------------------------
    @property
    def memo_hit_rate(self) -> float | None:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else None

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
    rate = state.memo_hit_rate
    if rate is not None:
        lines.append(
            f"  memo cache hit rate: {rate:.1%} "
            f"({state.memo_hits}/{state.memo_hits + state.memo_misses}) "
            f"over {state.heartbeats} batches"
        )
    else:
        lines.append("  (no engine heartbeats yet)")
    if state.compile_cache:
        hits = state.compile_cache.get("hit", 0)
        misses = state.compile_cache.get("miss", 0)
        lines.append(f"  compile cache: {hits} hit(s), {misses} miss(es)")
    if state.lanes:
        lines.append(f"  pool lanes seen: {len(state.lanes)}")
    if state.divergence_checked:
        lines.append(
            f"  divergence watchdog: {state.divergence_mismatched} mismatch(es) "
            f"in {state.divergence_checked} checked"
        )
    if state.faults:
        parts = ", ".join(
            f"{name}={int(v) if float(v).is_integer() else v}"
            for name, v in sorted(state.faults.items())
        )
        lines.append(f"  faults: {parts}")
    else:
        lines.append("  faults: none")

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
    events = []
    for line in complete.split(b"\n"):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict) and event.get("schema") == EVENT_SCHEMA:
            events.append(event)
    return events, offset + len(complete) + 1


def watch(
    source: str,
    once: bool = False,
    validate: bool = False,
    interval_s: float = 1.0,
    out: Callable[[str], None] = print,
    max_updates: int | None = None,
) -> int:
    """``python -m repro watch`` engine; returns a process exit code.

    ``source`` is an event-stream file, a run directory (newest
    ``events_*.jsonl`` wins) or a ``host:port`` socket endpoint.  With
    ``once`` the current state is rendered exactly once (CI snapshot
    mode); ``validate`` additionally schema-checks every event and fails
    the exit code on violations.  ``max_updates`` bounds the follow loop
    (tests); interactive runs follow until interrupted.
    """
    is_socket = _looks_like_tcp(source) and not Path(source).exists()
    problems: list[str] = []
    state = WatchState()

    if is_socket:
        updates = 0
        try:
            for event in subscribe_events(source, timeout_s=interval_s * 10):
                if validate:
                    problems.extend(
                        f"seq {event.get('seq')}: {p}" for p in validate_event(event)
                    )
                state.apply(event)
                if event["type"] in ("run.end", "ga.generation", "run.start"):
                    if not once:
                        out("\x1b[2J\x1b[H" + render_dashboard(state))
                    updates += 1
                    if max_updates is not None and updates >= max_updates:
                        break
                if once and event["type"] == "run.end":
                    break
        except KeyboardInterrupt:
            pass
        except OSError as exc:
            out(f"watch: cannot subscribe to {source}: {exc}")
            return 1
        out(render_dashboard(state))
        return _finish_watch(state, problems, validate, out)

    try:
        path = find_event_stream(source)
    except FileNotFoundError as exc:
        out(f"watch: {exc}")
        return 1

    events, skipped = load_events(path)
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
            out(f"watch: no runs/events found in {path} (stream is empty)")
            return 1
        out(render_dashboard(state))
        return _finish_watch(state, problems, validate, out)

    offset = path.stat().st_size
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
