"""The telemetry event bus: typed, schema-versioned streaming events.

Run manifests (:mod:`repro.obs.runlog`) are *post-hoc*: they tell you
what a tune did after it finished.  The bus is
the live counterpart — instrumented code publishes small typed events
(run start/end, funnel transitions, GA generations, span closes, counter
increments, health warnings) as they happen, and any number of
in-process subscribers (the JSONL sink behind ``--live``, the health
monitor, tests) observe them mid-run; ``repro watch`` tails the sink.

Design constraints mirror the tracer's:

1. **Near-zero cost when disabled.**  Hot call sites guard on the
   module-global ``_enabled`` (one attribute load + branch) before
   building any payload; :func:`emit` itself re-checks and returns
   immediately.  The bus is off by default.
2. **Leaf module.**  ``repro.obs.trace`` publishes span-close events, so
   this module must not import trace (or anything else in ``repro``) —
   correlation hooks are injected (``_span_id_provider``) instead.
3. **Parent-side only.**  Events are stamped with the local
   ``perf_counter`` clock (``t_s``) plus the derived wall time
   (``t_wall``).  Pool workers run no bus: their spans and counter
   deltas ship home in the per-task obs payload, and the parent's
   ``Tracer.merge`` / ``MetricsRegistry.merge`` publish them
   (``span.close`` tagged with the worker lane, ``metric.inc`` through
   ``Counter.inc``) — one stream, whatever the process count.

Events are plain dicts on the wire (JSON-ready); :class:`Event` is the
typed construction/validation surface.  ``EVENT_SCHEMA`` versions the
envelope: consumers skip events from a future schema instead of
misreading them.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "disable_events",
    "emit",
    "enable_events",
    "events_enabled",
    "get_bus",
    "reset_events",
    "validate_event",
]

#: Envelope layout version; bump on incompatible changes.  Consumers
#: skip events carrying another schema instead of misreading them.
EVENT_SCHEMA = 2

#: Known event types -> required keys inside ``data``.  The registry is
#: the validation contract for sinks and the ``watch --validate`` CI
#: step; emitting an unregistered type is a programming error that
#: :func:`validate_event` surfaces downstream.
EVENT_TYPES: dict[str, tuple[str, ...]] = {
    # Run lifecycle (flight recorder).
    "run.start": ("kind", "operator", "hardware"),
    "run.end": ("status",),
    # One per closed span whose name passes the curated prefix filter.
    "span.close": ("name", "duration_us"),
    # Mapping funnel transitions (ExploreLog.record_funnel).
    "funnel.stage": ("stage", "count", "total"),
    # Genetic-search convergence, one per generation.
    "ga.generation": ("generation", "best_fitness", "mean_fitness", "population"),
    # One per increment of a streamed counter (engine.* / obs.health.*):
    # engine rows, compile-cache hits/misses, pool dispatch,
    # health-detector fires.
    "metric.inc": ("name", "amount"),
    # Health-monitor detections.
    "health.warning": ("detector", "message"),
    # Structured-logger records republished at WARNING+.
    "log": ("level", "msg"),
}

#: Injected by repro.obs.trace at import (this module must stay a leaf):
#: returns the calling thread's innermost live span id, or None.
_span_id_provider: Callable[[], int | None] | None = None


def _wall_offset_s() -> float:
    """Local wall-clock minus perf-counter offset (see trace.clock_offset_s)."""
    return time.time() - time.perf_counter()


@dataclass
class Event:
    """One telemetry event.

    ``t_s`` is a local ``perf_counter`` timestamp; ``t_wall`` the derived
    wall time sinks and dashboards display.  ``lane`` marks a pool
    worker's span (parent is None, workers 1..n in pid order, same
    assignment as span lanes); ``seq`` is the bus's monotonic sequence
    number.
    """

    type: str
    t_s: float
    t_wall: float
    seq: int
    pid: int
    data: dict[str, Any] = field(default_factory=dict)
    lane: int | None = None
    run_id: str = ""
    span_id: int | None = None
    schema: int = EVENT_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.type,
            "t_s": self.t_s,
            "t_wall": self.t_wall,
            "seq": self.seq,
            "pid": self.pid,
            "data": self.data,
            "lane": self.lane,
            "run_id": self.run_id,
            "span_id": self.span_id,
            "schema": self.schema,
        }


#: Envelope keys every event dict must carry.
_ENVELOPE_KEYS = ("type", "t_s", "t_wall", "seq", "pid", "data", "schema")


def validate_event(event: Any) -> list[str]:
    """Validate one event dict; returns a list of problems (empty = valid).

    Checks the envelope (required keys, schema version, field types) and
    the per-type ``data`` contract from :data:`EVENT_TYPES`.
    """
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, not dict"]
    problems = [f"missing envelope key {k!r}" for k in _ENVELOPE_KEYS if k not in event]
    if problems:
        return problems
    if event["schema"] != EVENT_SCHEMA:
        return [f"schema {event['schema']!r} != {EVENT_SCHEMA}"]
    etype = event["type"]
    if not isinstance(etype, str):
        return [f"type is {type(etype).__name__}, not str"]
    if not isinstance(event["data"], dict):
        problems.append("data is not a dict")
    for key in ("t_s", "t_wall"):
        if not isinstance(event[key], (int, float)):
            problems.append(f"{key} is not a number")
    if not isinstance(event["seq"], int):
        problems.append("seq is not an int")
    if not isinstance(event["pid"], int):
        problems.append("pid is not an int")
    required = EVENT_TYPES.get(etype)
    if required is None:
        problems.append(f"unknown event type {etype!r}")
    elif isinstance(event["data"], dict):
        problems.extend(
            f"{etype}: data missing {k!r}" for k in required if k not in event["data"]
        )
    return problems


class EventBus:
    """In-process pub/sub hub for telemetry events.

    Subscribers are callables receiving each event as a plain dict (the
    JSON-ready wire form).  A raising subscriber never breaks the
    publisher: its exception is swallowed and tallied in ``errors`` —
    telemetry must not alter the computation it observes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: dict[int, Callable[[dict[str, Any]], None]] = {}
        self._next_token = 0
        self._seq = 0
        #: Current run id (set by the flight recorder for the run's
        #: duration) stamped onto every published event.
        self.run_id = ""
        #: Subscriber exceptions swallowed so far.
        self.errors = 0

    # -- subscription ---------------------------------------------------
    def subscribe(self, fn: Callable[[dict[str, Any]], None]) -> int:
        """Register a subscriber; returns a token for :meth:`unsubscribe`."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._subscribers[token] = fn
        return token

    def unsubscribe(self, token: int) -> None:
        with self._lock:
            self._subscribers.pop(token, None)

    # -- publishing -----------------------------------------------------
    def publish(
        self,
        type: str,
        data: dict[str, Any] | None = None,
        *,
        lane: int | None = None,
    ) -> dict[str, Any]:
        """Stamp and dispatch one event; returns its dict form."""
        t_s = time.perf_counter()
        span_id = _span_id_provider() if _span_id_provider is not None else None
        with self._lock:
            seq = self._seq
            self._seq += 1
            subscribers = list(self._subscribers.values())
        event = Event(
            type=type,
            t_s=t_s,
            t_wall=t_s + _wall_offset_s(),
            seq=seq,
            pid=os.getpid(),
            data=data or {},
            lane=lane,
            run_id=self.run_id,
            span_id=span_id,
        ).to_dict()
        for fn in subscribers:
            try:
                fn(event)
            except Exception:
                self.errors += 1
        return event

    def clear(self) -> None:
        """Drop subscribers and state (seq restarts)."""
        with self._lock:
            self._subscribers.clear()
            self._seq = 0
            self._next_token = 0
            self.run_id = ""
            self.errors = 0


# ----------------------------------------------------------------------
# Global toggle + default bus
# ----------------------------------------------------------------------
_enabled = False
_bus = EventBus()


def enable_events() -> None:
    """Turn event publication on (module-global switch)."""
    global _enabled
    _enabled = True


def disable_events() -> None:
    global _enabled
    _enabled = False


def events_enabled() -> bool:
    return _enabled


def get_bus() -> EventBus:
    """The process-wide event bus."""
    return _bus


def reset_events() -> None:
    """Drop all bus state (subscribers, run id); toggle unchanged."""
    _bus.clear()


def emit(type: str, data: dict[str, Any] | None = None, **fields: Any) -> dict[str, Any] | None:
    """Publish one event on the global bus, or no-op while disabled.

    Hot call sites should guard on ``_enabled`` themselves before
    building the payload; this re-check makes unguarded use safe too.
    """
    if not _enabled:
        return None
    if fields:
        data = {**(data or {}), **fields}
    return _bus.publish(type, data)
