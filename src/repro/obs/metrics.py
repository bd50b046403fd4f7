"""In-process metrics: named counters.

The registry complements the span tracer: spans say *where time goes*,
counters say *how often things happen* — how many candidate mappings the
enumerator rejected, how many engine rows hit the memo, which pipeline
bounded each simulated kernel, and so on.

Like the tracer, every recording call is gated on the module-global obs
switch in :mod:`repro.obs.trace` via the ``counter`` helper returning a
shared no-op when disabled, so hot paths stay unconditionally
instrumented with near-zero disabled cost.

Counters are also the live stream's only source of counted facts: while
the event bus is on, every :meth:`Counter.inc` of a *streamed* counter
(``engine.*`` / ``obs.health.*``) publishes one ``metric.inc`` event
``{name, amount}`` — tracing on or off — so the stream and the run
manifest fold the very same increments.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro.obs import events as _events
from repro.obs import trace as _trace

__all__ = [
    "Counter",
    "MetricsRegistry",
    "counter",
    "get_registry",
]


#: Counter-name prefixes whose increments are streamed as ``metric.inc``
#: events: the engine's cache and pool counts and the health
#: detectors' fire counts — exactly what the manifest's counter sections
#: and the live view fold (see :func:`repro.obs.runlog.counter_sections`).
STREAMED_PREFIXES = ("engine.", "obs.health.")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock", "_streamed")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()
        self._streamed = name.startswith(STREAMED_PREFIXES)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount``; a streamed counter also publishes it (zero
        amounts included, so per-batch records keep their cadence)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount
        if self._streamed and _events._enabled:
            _events.get_bus().publish(
                "metric.inc", {"name": self.name, "amount": amount}
            )

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": "counter", "name": self.name, "value": self._value}


class _NullMetric:
    """No-op counter returned while obs is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named counters, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = Counter(name)
        return metric

    def snapshot(self) -> list[dict[str, Any]]:
        """Point-in-time copy of every counter, sorted by name.

        Each record is captured under its counter's own lock, and the
        result is a plain data structure safe to diff against later.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return [m.to_dict() for m in sorted(metrics, key=lambda m: m.name)]

    def diff(self, base: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
        """What happened since ``base`` (an earlier :meth:`snapshot`).

        Returns snapshot-shaped records holding period *deltas*, so a
        delta can be merged into another registry exactly once per period
        — shipping cumulative totals (which double-count when the same
        worker reports twice) is impossible by construction.  Counters
        with no activity in the period are omitted.
        """
        before = {record["name"]: record["value"] for record in base}
        deltas: list[dict[str, Any]] = []
        for record in self.snapshot():
            value = record["value"] - before.get(record["name"], 0.0)
            if value:
                deltas.append({**record, "value": value})
        return deltas

    def merge(self, deltas: Sequence[dict[str, Any]]) -> None:
        """Fold diff records from another registry (e.g. a pool worker)
        into this one through :meth:`Counter.inc`, so a worker's streamed
        counters reach the live stream like local ones."""
        for record in deltas:
            name = record["name"]
            kind = record.get("kind")
            if kind != "counter":
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            self.counter(name).inc(record["value"])

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def counter(name: str):
    """Hot-path accessor: the named counter, or a no-op when obs is off.

    A streamed counter is live whenever the event bus is on, even with
    tracing off: the stream must see every increment the manifest would.
    """
    if _trace._enabled or (_events._enabled and name.startswith(STREAMED_PREFIXES)):
        return _registry.counter(name)
    return _NULL_METRIC
