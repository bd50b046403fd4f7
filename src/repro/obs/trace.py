"""Zero-dependency structured span tracer.

The tracer answers the question every perf PR must answer first: *where
does the wall-time of a tune run actually go?*  It records nested spans
(name, wall-time, call attributes) with a context-manager / decorator API
and aggregates them by name.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  ``span()`` checks one module
   global and returns a shared no-op singleton; a disabled span costs one
   function call and one attribute load — no allocation, no locking, no
   clock read.  Instrumented code therefore never needs ``if enabled:``
   guards of its own.
2. **Thread-safe collection.**  Each thread keeps its own span stack (so
   nesting is tracked per thread of execution) while finished spans land
   in one lock-protected list.
3. **No side effects on the traced computation.**  Tracing never touches
   RNG state or the values flowing through the pipeline, so results with
   tracing enabled are bit-identical to results with it disabled.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import events as _events

__all__ = [
    "Span",
    "Tracer",
    "aggregate_spans",
    "clock_offset_s",
    "critical_path",
    "current_span_id",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "span",
    "traced",
    "tracing",
    "tracing_enabled",
]


@dataclass
class Span:
    """One completed (or in-flight) traced region."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        if self.end_s is None:
            return 0.0
        return (self.end_s - self.start_s) * 1e6

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_s * 1e6,
            "duration_us": self.duration_us,
            "attrs": self.attrs,
        }

    def to_payload(self) -> dict[str, Any]:
        """Picklable form for cross-process shipping (raw clock values)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager binding a live span to the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_: Span):
        self._tracer = tracer
        self._span = span_

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self._span)

    # Convenience so ``with span(...) as s`` and ``span(...).set(...)``
    # both work on the same object shape as the null span.
    def set(self, **attrs: Any) -> "_ActiveSpan":
        self._span.set(**attrs)
        return self


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

#: Span-name prefixes whose closures are also published as ``span.close``
#: telemetry events (coarse pipeline stages only; see Tracer._finish).
_EVENT_SPAN_PREFIXES = ("compile", "tuner.", "engine.", "worker.")


def _publish_close(s: Span, lane: int | None = None) -> None:
    # Streamed span-close events cover only the coarse pipeline stages
    # (the curated prefixes): per-candidate micro-spans would swamp
    # sinks without telling a dashboard anything new.
    if _events._enabled and s.name.startswith(_EVENT_SPAN_PREFIXES):
        _events.get_bus().publish(
            "span.close", {"name": s.name, "duration_us": s.duration_us}, lane=lane
        )


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list[Span] = []
        self._next_id = 0

    # -- internal ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: dict[str, Any] | None = None) -> _ActiveSpan:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        s = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start_s=time.perf_counter(),
            attrs=dict(attrs) if attrs else {},
        )
        stack.append(s)
        return _ActiveSpan(self, s)

    def _finish(self, s: Span) -> None:
        s.end_s = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is s:
            stack.pop()
        else:  # out-of-order exit; drop s wherever it sits
            try:
                stack.remove(s)
            except ValueError:
                pass
        with self._lock:
            self._spans.append(s)
        _publish_close(s)

    # -- public --------------------------------------------------------
    def spans(self) -> list[Span]:
        """Snapshot of all completed spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def current_span_id(self) -> int | None:
        """The innermost live span on this thread's stack, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def drain(self) -> list[Span]:
        """Return all completed spans and forget them (ids keep counting,
        so later spans never collide with already-drained ones)."""
        with self._lock:
            drained = list(self._spans)
            self._spans.clear()
        return drained

    def merge(
        self,
        payload: list[dict[str, Any]],
        parent_id: int | None = None,
        lane: int | None = None,
        shift_s: float = 0.0,
    ) -> list[Span]:
        """Adopt foreign spans (e.g. shipped home from a pool worker).

        Spans arrive as :meth:`Span.to_payload` dicts recorded against the
        worker's own clock and id space.  They are re-identified into this
        tracer's id space (so merges from many workers never collide),
        roots of the payload are re-parented under ``parent_id`` (the
        caller's live span, typically), every span is tagged with its
        ``lane``, and start/end times are shifted by ``shift_s`` onto this
        process's clock.  Adopted spans are published as lane-tagged
        ``span.close`` events under the same prefix rule as local ones.
        Returns the adopted spans.
        """
        if not payload:
            return []
        with self._lock:
            id_map = {}
            for d in payload:
                id_map[d["span_id"]] = self._next_id
                self._next_id += 1
        adopted: list[Span] = []
        for d in payload:
            old_parent = d.get("parent_id")
            attrs = dict(d.get("attrs") or {})
            if lane is not None:
                attrs["lane"] = lane
            end_s = d.get("end_s")
            adopted.append(
                Span(
                    name=d["name"],
                    span_id=id_map[d["span_id"]],
                    parent_id=(
                        id_map[old_parent] if old_parent in id_map else parent_id
                    ),
                    start_s=d["start_s"] + shift_s,
                    end_s=end_s + shift_s if end_s is not None else None,
                    attrs=attrs,
                )
            )
        with self._lock:
            self._spans.extend(adopted)
        for s in adopted:
            _publish_close(s, lane)
        return adopted

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._next_id = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# Global toggle + default tracer
# ----------------------------------------------------------------------
_enabled = False
_tracer = Tracer()


def enable_tracing() -> None:
    """Turn span collection on (module-global switch)."""
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    global _enabled
    _enabled = False


def tracing_enabled() -> bool:
    return _enabled


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _tracer


def current_span_id() -> int | None:
    """Id of the innermost live span on the calling thread, or None."""
    return _tracer.current_span_id()


# The event bus is a leaf module and cannot import this one, so the
# correlation hook is injected: events published on the bus carry the
# calling thread's innermost live span id.
_events._span_id_provider = current_span_id


def clock_offset_s() -> float:
    """This process's wall-clock minus perf-counter offset.

    ``perf_counter`` has an unspecified per-process epoch, so spans
    shipped across processes cannot be placed on the parent's timeline
    directly.  Pairing it with ``time.time`` (a shared epoch) gives each
    process a constant offset; the difference of two processes' offsets
    is the shift that maps one perf-counter timeline onto the other's.
    """
    return time.time() - time.perf_counter()


def span(name: str, **attrs: Any):
    """Trace a region: ``with span("tuner.prefilter", kept=4): ...``.

    When tracing is disabled this returns a shared no-op object — the
    fast path is a single global check.
    """
    if not _enabled:
        return _NULL_SPAN
    return _tracer.start(name, attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form: ``@traced("compile")``; defaults to the function
    ``__qualname__``."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not _enabled:
                return fn(*args, **kwargs)
            with _tracer.start(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


class tracing:
    """Context manager that enables tracing, yields the tracer, and
    restores the previous state (clearing is the caller's choice)."""

    def __init__(self, clear: bool = True):
        self._clear = clear
        self._was_enabled = False

    def __enter__(self) -> Tracer:
        self._was_enabled = _enabled
        if self._clear:
            _tracer.clear()
        enable_tracing()
        return _tracer

    def __exit__(self, *exc_info: object) -> None:
        if not self._was_enabled:
            disable_tracing()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass
class SpanStats:
    """Aggregate of all spans sharing one name: the manifest's
    ``phases`` entry (mean = total / count)."""

    name: str
    count: int
    total_us: float
    self_us: float


def aggregate_spans(spans: list[Span]) -> list[SpanStats]:
    """Per-name totals, sorted by total time descending.

    ``self_us`` excludes time attributed to child spans, so the report
    shows where time is actually spent rather than double-counting
    every enclosing stage.
    """
    child_us: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_us[s.parent_id] = child_us.get(s.parent_id, 0.0) + s.duration_us
    stats: dict[str, SpanStats] = {}
    for s in spans:
        d = s.duration_us
        self_d = max(0.0, d - child_us.get(s.span_id, 0.0))
        st = stats.get(s.name)
        if st is None:
            stats[s.name] = SpanStats(s.name, 1, d, self_d)
        else:
            st.count += 1
            st.total_us += d
            st.self_us += self_d
    return sorted(stats.values(), key=lambda st: st.total_us, reverse=True)


def critical_path(spans: list[Span], max_depth: int = 32) -> list[dict[str, Any]]:
    """Heaviest-child walk through a span tree: the chain of nested spans
    that actually bounds the wall time of the run.

    Starting from the longest root (a span whose parent is absent from
    ``spans``), each step descends into the child with the largest
    duration.  Aggregates like :func:`aggregate_spans` say how much time a
    *name* consumed in total; the critical path says which single chain of
    stages an optimiser must shorten before the end-to-end time can move.

    Each entry carries ``name``, ``duration_us``, ``self_us`` (duration
    minus all children, the slack attributable to this span alone) and,
    for spans merged home from a pool worker, the worker ``lane``.
    """
    if not spans:
        return []
    ids = {s.span_id for s in spans}
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in ids else None
        children.setdefault(parent, []).append(s)
    roots = children.get(None)
    if not roots:
        return []
    path: list[dict[str, Any]] = []
    node: Span | None = max(roots, key=lambda s: s.duration_us)
    while node is not None and len(path) < max_depth:
        kids = children.get(node.span_id, [])
        child_us = sum(k.duration_us for k in kids)
        entry: dict[str, Any] = {
            "name": node.name,
            "duration_us": node.duration_us,
            "self_us": max(0.0, node.duration_us - child_us),
        }
        if "lane" in node.attrs:
            entry["lane"] = node.attrs["lane"]
        path.append(entry)
        node = max(kids, key=lambda s: s.duration_us) if kids else None
    return path

