"""Spawn-safe process pool for batch candidate evaluation.

The pool exists because ``predict_latency`` and ``simulate_cycles`` are
pure CPU-bound Python: a tune run evaluates hundreds of candidates per
generation and the GIL serialises them on one core.  Workers are started
with the ``spawn`` method (safe on every platform, no inherited state)
and receive the evaluation *context* — the list of physical mappings and
the hardware parameters — exactly once, pickled into the initializer.
Work items come in two shapes.  The scalar path ships tiny picklable
descriptors ``(mapping_index, schedule_dict, measure)``; workers rebuild
the ``Schedule`` from its descriptor and look the mapping up by index,
so per-task payloads stay a few hundred bytes regardless of mapping
complexity.  The engine's path ships *row chunks* ``(mapping_indices,
ScheduleBatch, measure)`` — a contiguous slice of a batch's miss rows,
any mix of mappings — and workers evaluate each chunk through the
engine's one evaluation body
(:func:`~repro.engine.engine.evaluate_batch`) against the
:class:`~repro.schedule.features.MappingTable` each worker builds once,
from the context, in its initializer.  No per-candidate objects ever
cross the process boundary on that path: chunks are plain contiguous
ndarray buffers, and workers render the describe half of each jitter
key lazily inside ``batch_simulate`` for exactly the rows that need it.

**Failures raise.**  The evaluators are pure functions of the candidate
(paper Sec 5.3 scores with the analytic model and the deterministic
simulator), so a pooled evaluation can only return the in-process answer
or fail.  The pool is a :class:`concurrent.futures.ProcessPoolExecutor`:
a task's own exception reaches the caller with its type intact (the
pool stays usable), and a worker that dies makes the batch raise
:class:`~concurrent.futures.process.BrokenProcessPool` at once, instead
of waiting forever for the lost task.  Nothing is retried, respawned or
re-run inline.

**Observability crosses the process boundary.**  When the parent has obs
enabled at pool creation, workers enable their own local tracer/metrics
registry and every task returns an *obs payload* next to its result:
the task's span tree (:meth:`Span.to_payload` dicts) and the worker
registry's counter *deltas* for exactly that task (via the atomic
``snapshot()``/``diff()`` pair, so a task is never counted twice).  Each
task starts by draining whatever an earlier, raising task left in the
worker tracer, so worker activity never leaks into the next task's
payload.  The parent merges payloads as results arrive: spans are
re-identified into the parent tracer, re-parented under the caller's
live span, tagged with a per-worker *lane* (assigned in pid order of
first appearance) and shifted onto the parent's clock via the wall/perf
clock-offset pairing; metric deltas fold into the parent registry.
Workers run no event bus: the parent's merge publishes the adopted
spans (lane-tagged ``span.close``) and counter deltas (``metric.inc``)
on its own bus, so the live stream has one source.  When obs is
disabled nothing is captured and the task payload shape is unchanged —
the disabled path costs one global check.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from typing import Any, Callable, Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.model.hardware_params import HardwareParams
from repro.model.perf_model import predict_latency
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.schedule.features import MappingTable, ScheduleBatch
from repro.schedule.lowering import lower_schedule
from repro.schedule.schedule import Schedule
from repro.sim.timing import simulate_cycles

__all__ = ["WorkerPool"]

#: Worker-global evaluation context set by the initializer:
#: (physical mappings, hardware params).
_CONTEXT: tuple[list[PhysicalMapping], HardwareParams] | None = None

#: Worker-global mapping table of the context's mappings, built once by
#: the initializer.
_TABLE: MappingTable | None = None


def _init_worker(payload: bytes, obs_enabled: bool) -> None:
    global _CONTEXT, _TABLE
    _CONTEXT = pickle.loads(payload)
    _TABLE = MappingTable(_CONTEXT[0])
    if obs_enabled:
        _obs_trace.enable_tracing()


def _context() -> tuple[list[PhysicalMapping], HardwareParams]:
    if _CONTEXT is None:
        raise RuntimeError("worker used before its context was initialised")
    return _CONTEXT


#: (pid, clock_offset_s, span payloads, metric deltas) — one per task
#: when obs is on in the worker, else None.
ObsPayload = tuple[int, float, list[dict], list[dict]]


def _run_task(fn: Callable[[Any], Any], item: Any) -> tuple[Any, ObsPayload | None]:
    """Run one task in a worker and capture its obs payload.

    An exception out of ``fn`` propagates to the parent; the spans it
    left open are drained at the start of the worker's next task.
    """
    if not _obs_trace.tracing_enabled():
        return fn(item), None
    tracer = _obs_trace.get_tracer()
    registry = _obs_metrics.get_registry()
    tracer.drain()  # anything left over belongs to no task
    base = registry.snapshot()
    value = fn(item)
    spans = [s.to_payload() for s in tracer.drain()]
    payload = (
        os.getpid(),
        _obs_trace.clock_offset_s(),
        spans,
        registry.diff(base),
    )
    return value, payload


def _eval_item_with(
    physical: Sequence[PhysicalMapping],
    hw: HardwareParams,
    item: tuple[int, dict, bool],
) -> tuple[float, float | None]:
    """Evaluate one candidate: (predicted_us, measured_us?).  Pure
    function of (context, item)."""
    mapping_index, schedule_dict, measure = item
    with _obs_trace.span("worker.eval", mapping=mapping_index, measure=measure):
        sched = lower_schedule(
            physical[mapping_index], Schedule.from_dict(schedule_dict)
        )
        predicted = predict_latency(sched, hw).total_us
        measured = simulate_cycles(sched, hw).total_us if measure else None
    return predicted, measured


def _eval_item(item: tuple[int, dict, bool]):
    physical, hw = _context()
    return _run_task(lambda it: _eval_item_with(physical, hw, it), item)


def _eval_chunk(item: tuple[np.ndarray, ScheduleBatch, bool]):
    """Evaluate one row chunk through the engine's evaluation body."""
    # Imported here: the engine module imports this one.
    from repro.engine.engine import evaluate_batch

    _, hw = _context()
    mapping_indices, batch, measure = item

    def run(_item):
        with _obs_trace.span("worker.eval_chunk", rows=len(batch), measure=measure):
            return evaluate_batch(_TABLE, mapping_indices, batch, hw, measure)

    return _run_task(run, item)


class WorkerPool:
    """A process pool bound to one (mappings, hardware) context."""

    def __init__(
        self,
        physical: Sequence[PhysicalMapping],
        hardware: HardwareParams,
        n_workers: int,
    ):
        if n_workers < 2:
            raise ValueError("WorkerPool needs n_workers >= 2; use in-process execution")
        # Imported here, not at module level: only an opted-into pool
        # needs it, and ``import repro`` should not pay for it.
        from concurrent.futures import ProcessPoolExecutor

        self.n_workers = n_workers
        #: Obs state captured at creation: workers enable their local
        #: tracer in the initializer, so toggling obs after the pool is
        #: up does not retroactively change what workers collect.
        self.obs_enabled = _obs_trace.tracing_enabled()
        #: pid -> lane number, in order of first appearance (lane 0 is
        #: the parent process; workers get 1..n).
        self._lanes: dict[int, int] = {}
        payload = pickle.dumps(
            (list(physical), hardware), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(payload, self.obs_enabled),
        )

    # -- obs merge ------------------------------------------------------
    def lane_of(self, pid: int) -> int:
        lane = self._lanes.get(pid)
        if lane is None:
            lane = self._lanes[pid] = len(self._lanes) + 1
        return lane

    def _merge_payloads(self, payloads: Sequence[ObsPayload | None]) -> None:
        """Adopt worker span trees and metric deltas into the parent's
        tracer/registry, under the caller's live span (both merges also
        publish what they adopt when the event bus is on)."""
        tracer = _obs_trace.get_tracer()
        registry = _obs_metrics.get_registry()
        parent_id = _obs_trace.current_span_id()
        parent_offset = _obs_trace.clock_offset_s()
        for payload in payloads:
            if payload is None:
                continue
            pid, worker_offset, spans, deltas = payload
            tracer.merge(
                spans,
                parent_id=parent_id,
                lane=self.lane_of(pid),
                shift_s=worker_offset - parent_offset,
            )
            registry.merge(deltas)

    # -- evaluation -----------------------------------------------------
    def evaluate(
        self, items: Sequence[tuple[int, dict, bool]]
    ) -> list[tuple[float, float | None]]:
        """Evaluate a batch; results in submission order."""
        if not items:
            return []
        chunksize = max(1, math.ceil(len(items) / (self.n_workers * 4)))
        return self._map(_eval_item, items, chunksize)

    def evaluate_groups(
        self, chunks: Sequence[tuple[np.ndarray, ScheduleBatch, bool]]
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Evaluate ``(mapping_indices, batch, measure)`` row chunks; one
        ``(predicted_us, measured_us or None)`` array pair per chunk, in
        submission order.  Each chunk is already a unit of parallel work
        (the engine sizes them to the pool), so ``chunksize=1``."""
        if not chunks:
            return []
        return self._map(_eval_chunk, chunks, 1)

    def _map(self, fn: Callable, items: Sequence[Any], chunksize: int) -> list[Any]:
        """Run one batch; a raising task or a dead worker raises here."""
        outcomes = list(self._executor.map(fn, items, chunksize=chunksize))
        if self.obs_enabled:
            self._merge_payloads([payload for _, payload in outcomes])
        return [value for value, _ in outcomes]

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def terminate(self) -> None:
        """Shut down without waiting: queued tasks are cancelled and the
        workers exit once their in-flight task returns."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On exception the batch's results are gone; do not wait for
        # the rest of it.
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
