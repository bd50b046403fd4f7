"""The batch evaluation engine: rows in, float64 arrays out, in-process
by default.

:class:`EvaluationEngine` is the single funnel through which the tuner
evaluates candidates.  Its currency is rows: a :class:`ScheduleBatch`
of raw schedule columns plus a per-row mapping-index vector, handed to
``predict_rows`` / ``measure_rows``.  Every batch goes straight through
:func:`evaluate_batch`, the one evaluation body: one array call each of
``batch_predict`` and (when measuring) ``batch_simulate`` over all its
rows, whatever mix of mappings they hold, in row order.  Rows are
evaluated exactly as given; a row that repeats (within a batch or
across batches) is evaluated again.  Both evaluators are pure array
functions of the row, so recomputing costs about what a lookup keyed
by the row would, and keeps no state that could go stale.

In-process is the default because it is the fastest configuration
measured: every compile otherwise spawns and tears down its own pool,
and on the end-to-end compile benchmark (``perfbench/``, 2 vCPUs) the
pool's start-up, dispatch and shutdown took 86-91% of a cold ResNet-18
or MobileNet compile's self-time.  When a pool was opted into
(``n_workers > 1``) and a batch holds at least ``MIN_POOL_BATCH`` rows,
the rows ship as contiguous chunks ``(mapping_indices, batch, measure)``
of plain ndarray buffers, and each worker evaluates them through the
same body against its own table, built once from the pool's context.

The engine evaluates against one
:class:`~repro.schedule.features.MappingTable` of all its mappings: the
one a memoized lowered set carries (a repeat compile of a computation
gets the same set, see :func:`~repro.explore.tuner.lowered_mappings`),
else one it builds.

``predict_many`` / ``measure_many`` accept ``(mapping_index, Schedule)``
objects.  They are thin adapters over :meth:`EvaluationEngine.encode_rows`,
which hands the objects to the shared row codec of
:mod:`repro.schedule.features`.  The codec canonicalises each schedule
(every spatial split materialised), so an object and its row form
evaluate identically and share one simulator jitter key.

Determinism is the design invariant: the batch evaluators are pure
functions of the candidate and results come back positionally, so a
row's value does not depend on the batch it rides in, and
``n_workers=1`` (pure in-process) and ``n_workers=N`` produce
byte-identical results.  For the same reason a pooled evaluation is
never retried: a raising task or a dead worker raises out of the batch
(see :mod:`repro.engine.pool`).

Observability: every batch opens an ``engine.batch`` span and adds its
row count to the ``engine.rows`` counter (one increment per batch, zero
included), and pooled batches feed ``engine.pool.{tasks,batches}``
(no-ops while obs is disabled); with the event bus on, these counters
also stream themselves as ``metric.inc`` events.  Worker-side spans and
counters are shipped home and merged by the pool (see
:mod:`repro.engine.pool`), so pooled evaluation appears in the same
trace under per-worker lanes.  The batch evaluators' bit-identity with
the scalar oracle (``predict_latency`` / ``simulate_cycles`` of the
lowered schedule) is a test-time contract: the test suite re-checks the
rows the engine evaluates (``tests/conftest.py``, ``scalar_parity``),
not the engine.
"""

from __future__ import annotations

import math
import os
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.engine.pool import WorkerPool
from repro.ir.compute import ReduceComputation
from repro.mapping.physical import PhysicalMapping
from repro.model.batch_model import batch_predict
from repro.model.hardware_params import HardwareParams
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span as _obs_span
from repro.schedule.features import (
    MappingTable,
    ScheduleBatch,
    derive_batch,
    encode_rows,
    take_rows,
)
from repro.schedule.schedule import Schedule
from repro.sim.batch_timing import batch_simulate

__all__ = ["EvaluationEngine", "evaluate_batch", "resolve_workers"]

#: Smallest batch worth shipping to the pool: below this the
#: pickle/IPC round trip costs more than the evaluations save.  Read at
#: every batch, so tests force the pool by patching it to 1.
MIN_POOL_BATCH = 16


def evaluate_batch(
    table: MappingTable,
    mapping_indices: np.ndarray,
    batch: ScheduleBatch,
    hardware: HardwareParams,
    measure: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The one evaluation body, in-process and on pool workers alike:
    the model (and, when ``measure``, the simulator) on every row, rows
    of any mix of mappings in one array call each.  Returns float64
    ``(predicted_us, measured_us or None)`` in row order."""
    quantities = derive_batch(table, mapping_indices, batch)
    predicted = batch_predict(
        table, mapping_indices, batch, hardware, quantities=quantities
    ).total_us
    if not measure:
        return predicted, None
    measured = batch_simulate(
        table, mapping_indices, batch, hardware, quantities=quantities
    ).total_us
    return predicted, measured


def resolve_workers(n_workers: int | None) -> int:
    """``None`` means "use every core"; 1 (the default) is in-process."""
    if n_workers is None:
        return os.cpu_count() or 1
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


class _RowCount:
    def __init__(self) -> None:
        self.rows = 0

    def __len__(self) -> int:
        return self.rows


class EvaluationEngine:
    """Batch evaluator for one (computation, mapping set, hardware) context."""

    def __init__(
        self,
        comp: ReduceComputation,
        physical: Sequence[PhysicalMapping],
        hardware: HardwareParams,
        n_workers: int | None = 1,
        table: MappingTable | None = None,
    ):
        self.comp = comp
        self.physical = list(physical)
        self.hardware = hardware
        self.n_workers = resolve_workers(n_workers)
        self._pool: WorkerPool | None = None
        #: Every mapping's features as arrays: ``table`` when the caller
        #: has one of exactly these mappings (a memoized lowered set's),
        #: else built here.
        self.table = table if table is not None else MappingTable(self.physical)
        #: perfbench's surface (``perfbench/spans.py`` reads the lengths
        #: of ``memo.predictions`` and ``memo.measurements`` around each
        #: engine call as the rows that call evaluated): the rows this
        #: engine has predicted and measured, so its traced memo hit
        #: fraction reads the true 0.  Goes with the perfbench change
        #: that drops those reads (ROADMAP.md).
        self.memo = SimpleNamespace(predictions=_RowCount(), measurements=_RowCount())

    # ------------------------------------------------------------------
    def encode_rows(
        self, items: Sequence[tuple[int, Schedule]]
    ) -> tuple[np.ndarray, ScheduleBatch]:
        """Encode ``(mapping_index, schedule)`` pairs as joint-width
        canonical rows through the shared codec
        (:func:`~repro.schedule.features.encode_rows`): a schedule and its
        canonical form get the same row and the same simulator jitter
        key."""
        mapping_indices = np.asarray([mi for mi, _ in items], dtype=np.int64)
        names = [self.table.spatial_names(mi) for mi, _ in items]
        return mapping_indices, encode_rows(names, [sched for _, sched in items])

    def predict_many(self, items: Sequence[tuple[int, Schedule]]) -> list[float]:
        """Model predictions (us) for schedule objects, in submission
        order: the :meth:`predict_rows` result of their canonical rows."""
        predicted, _ = self._evaluate_rows(*self.encode_rows(items), measure=False)
        return predicted.tolist()

    def measure_many(
        self, items: Sequence[tuple[int, Schedule]]
    ) -> list[tuple[float, float]]:
        """(predicted_us, measured_us) pairs for schedule objects, in
        order: the :meth:`measure_rows` result of their canonical rows."""
        predicted, measured = self._evaluate_rows(
            *self.encode_rows(items), measure=True
        )
        return list(zip(predicted.tolist(), measured.tolist()))

    # -- row entry points -----------------------------------------------
    def predict_rows(
        self, mapping_indices: np.ndarray | Sequence[int], batch: ScheduleBatch
    ) -> np.ndarray:
        """Model predictions (us) for batch rows, in row order.

        The caller hands rows (a :class:`ScheduleBatch`, possibly padded
        to a joint width, plus a per-row mapping index); no
        ``describe()`` string is rendered except lazily for the rows
        that reach the simulator's jitter encoding.
        """
        predicted, _ = self._evaluate_rows(mapping_indices, batch, measure=False)
        return predicted

    def measure_rows(
        self, mapping_indices: np.ndarray | Sequence[int], batch: ScheduleBatch
    ) -> tuple[np.ndarray, np.ndarray]:
        """(predicted_us, measured_us) arrays for batch rows, in order."""
        predicted, measured = self._evaluate_rows(
            mapping_indices, batch, measure=True
        )
        assert measured is not None
        return predicted, measured

    # ------------------------------------------------------------------
    def _evaluate_rows(
        self,
        mapping_indices: np.ndarray | Sequence[int],
        batch: ScheduleBatch,
        measure: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The engine's one evaluation call, behind all four entry
        points: every row through :func:`evaluate_batch`, inline or (a
        large enough batch on an opted-in pool) as contiguous row chunks,
        ~4 per worker so stragglers even out, concatenated back in row
        order."""
        mapping_indices = np.asarray(mapping_indices, dtype=np.int64)
        n = len(batch)
        self.memo.predictions.rows += n
        self.memo.measurements.rows += n if measure else 0
        # One increment per batch, zero included: the live view counts
        # engine batches by these records.
        _obs_metrics.counter("engine.rows").inc(n)
        use_pool = self.n_workers > 1 and n >= MIN_POOL_BATCH
        with _obs_span("engine.batch", items=n, measure=measure, pooled=use_pool):
            if not use_pool:
                return evaluate_batch(
                    self.table, mapping_indices, batch, self.hardware, measure
                )
            pool = self._ensure_pool()
            _obs_metrics.counter("engine.pool.tasks").inc(n)
            _obs_metrics.counter("engine.pool.batches").inc()
            size = max(1, math.ceil(n / (self.n_workers * 4)))
            chunks = [
                (
                    mapping_indices[start : start + size],
                    take_rows(batch, np.arange(start, min(start + size, n))),
                    measure,
                )
                for start in range(0, n, size)
            ]
            results = pool.evaluate_groups(chunks)
        predicted = np.concatenate([p for p, _ in results])
        if not measure:
            return predicted, None
        return predicted, np.concatenate([m for _, m in results])

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            with _obs_span("engine.pool.start", workers=self.n_workers):
                self._pool = WorkerPool(self.physical, self.hardware, self.n_workers)
        return self._pool

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def terminate(self) -> None:
        """Shut the pool down without waiting for in-flight work — the
        exit path for aborted tunes."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
