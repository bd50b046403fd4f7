"""In-process metrics: counters, gauges, fixed-bucket histograms.

The registry complements the span tracer: spans say *where time goes*,
metrics say *how often things happen and how values distribute* — how
many candidate mappings the enumerator rejected, how the simulator's
compute/memory/shared components distribute over a tune run, and so on.

Like the tracer, every recording call is gated on the module-global obs
switch in :mod:`repro.obs.trace` via the helpers ``counter``/``gauge``/
``histogram`` returning a shared no-op when disabled, so hot paths stay
unconditionally instrumented with near-zero disabled cost.

Counters are also the live stream's only source of counted facts: while
the event bus is on, every :meth:`Counter.inc` of a *streamed* counter
(``engine.*`` / ``obs.health.*``) publishes one ``metric.inc`` event
``{name, amount}`` — tracing on or off — so the stream and the run
manifest fold the very same increments.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Sequence

from repro.obs import events as _events
from repro.obs import trace as _trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
]


#: Counter-name prefixes whose increments are streamed as ``metric.inc``
#: events: the engine's cache/divergence/fault/pool counts and the health
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


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {"kind": "gauge", "name": self.name, "value": self._value}


#: Default histogram buckets: log-spaced microsecond latencies covering
#: everything from a single intrinsic call to a full network evaluation.
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


class Histogram:
    """Fixed-bucket histogram (cumulative-style buckets, like Prometheus).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; one
    overflow slot counts the rest.  Also tracks sum/count/min/max so the
    report can show a mean without retaining samples.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """(upper_bound, count) pairs; the overflow bucket is +inf."""
        bounds = [*self.buckets, float("inf")]
        with self._lock:
            return list(zip(bounds, self._counts))

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        seen = 0
        for bound, n in self.bucket_counts():
            seen += n
            if seen >= target:
                return min(bound, self._max)
        return self._max

    def to_dict(self) -> dict[str, Any]:
        """Atomic snapshot: one lock acquisition covers counts, sum and
        extrema, so a concurrent ``observe`` can never tear the record
        (e.g. a count that includes an observation whose sum does not)."""
        bounds = [*self.buckets, float("inf")]
        with self._lock:
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
            counts = list(self._counts)
        return {
            "kind": "histogram",
            "name": self.name,
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo if count else None,
            "max": hi if count else None,
            "buckets": [
                [bound if bound != float("inf") else "inf", n]
                for bound, n in zip(bounds, counts)
            ],
        }

    def merge_snapshot(self, delta: dict[str, Any]) -> None:
        """Fold a snapshot/diff record from another registry into this
        histogram (bucket layouts must match)."""
        buckets = delta.get("buckets") or []
        if len(buckets) != len(self._counts):
            raise ValueError(
                f"histogram {self.name!r}: cannot merge {len(buckets)} buckets "
                f"into {len(self._counts)}"
            )
        with self._lock:
            for i, (_, n) in enumerate(buckets):
                self._counts[i] += n
            self._sum += delta.get("sum", 0.0)
            self._count += delta.get("count", 0)
            lo = delta.get("min")
            hi = delta.get("max")
            if lo is not None and lo < self._min:
                self._min = lo
            if hi is not None and hi > self._max:
                self._max = hi


class _NullMetric:
    """No-op counter/gauge/histogram returned while obs is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metric instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = factory()
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get(name, lambda: Counter(name))
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get(name, lambda: Gauge(name))
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get(name, lambda: Histogram(name, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def snapshot(self) -> list[dict[str, Any]]:
        """Point-in-time copy of every metric, sorted by name.

        Each record is captured under its metric's own lock, so a record
        is internally consistent even under concurrent updates, and the
        result is a plain data structure safe to diff against later.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return [m.to_dict() for m in sorted(metrics, key=lambda m: m.name)]

    def diff(self, base: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
        """What happened since ``base`` (an earlier :meth:`snapshot`).

        Returns snapshot-shaped records holding period *deltas*: counter
        values and histogram bucket counts / sums are subtracted, so a
        delta can be merged into another registry exactly once per period
        — shipping cumulative totals (which double-count when the same
        worker reports twice, e.g. on a pool retry) is impossible by
        construction.  Gauges are last-write-wins and carry their current
        value; histogram min/max are the observed extrema (idempotent
        under re-merge).  Metrics with no activity in the period are
        omitted.
        """
        before = {record["name"]: record for record in base}
        deltas: list[dict[str, Any]] = []
        for record in self.snapshot():
            prev = before.get(record["name"])
            if record["kind"] == "counter":
                value = record["value"] - (prev["value"] if prev else 0.0)
                if value:
                    deltas.append({**record, "value": value})
            elif record["kind"] == "gauge":
                if prev is None or record["value"] != prev["value"]:
                    deltas.append(record)
            else:  # histogram
                prev_count = prev["count"] if prev else 0
                count = record["count"] - prev_count
                if not count:
                    continue
                prev_buckets = prev["buckets"] if prev else []
                prev_by_bound = {bound: n for bound, n in prev_buckets}
                buckets = [
                    [bound, n - prev_by_bound.get(bound, 0)]
                    for bound, n in record["buckets"]
                ]
                total = record["sum"] - (prev["sum"] if prev else 0.0)
                deltas.append(
                    {
                        **record,
                        "count": count,
                        "sum": total,
                        "mean": total / count,
                        "buckets": buckets,
                    }
                )
        return deltas

    def merge(self, deltas: Sequence[dict[str, Any]]) -> None:
        """Fold diff records from another registry (e.g. a pool worker)
        into this one: counters add (through :meth:`Counter.inc`, so a
        worker's streamed counters reach the live stream like local
        ones), gauges last-write-win, histograms merge bucket-by-bucket."""
        for record in deltas:
            name = record["name"]
            kind = record.get("kind")
            if kind == "counter":
                self.counter(name).inc(record["value"])
            elif kind == "gauge":
                self.gauge(name).set(record["value"])
            elif kind == "histogram":
                bounds = tuple(
                    float(b) for b, _ in record.get("buckets", []) if b != "inf"
                )
                self.histogram(name, bounds or DEFAULT_BUCKETS).merge_snapshot(record)
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

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


def gauge(name: str):
    if not _trace._enabled:
        return _NULL_METRIC
    return _registry.gauge(name)


def histogram(name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
    if not _trace._enabled:
        return _NULL_METRIC
    return _registry.histogram(name, buckets)
