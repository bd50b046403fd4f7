"""The batch evaluation engine: memoized, in-process by default.

:class:`EvaluationEngine` is the single funnel through which the tuner
evaluates candidates.  Its currency is rows: a :class:`ScheduleBatch`
of raw schedule columns plus a per-row mapping-index vector, handed to
``predict_rows`` / ``measure_rows``.  For every batch the engine

1. computes each row's canonical memo key in one pass (the per-mapping
   :func:`candidate_row_prefix` plus the row's raw column bytes),
2. serves whatever the memo cache already knows,
3. evaluates the misses — in-process, or, when a pool was opted into
   (``n_workers > 1``), on the worker pool if there are enough of them
   to amortise inter-process transfer — and
4. returns float64 arrays in row order.

In-process is the default because it is the fastest configuration
measured: every compile otherwise spawns and tears down its own pool,
and on the end-to-end compile benchmark (``perfbench/``, 2 vCPUs) the
pool's start-up, dispatch and shutdown took 86-91% of a cold ResNet-18
or MobileNet compile's self-time.

The engine evaluates against one
:class:`~repro.schedule.features.MappingTable` of all its mappings: the
one a memoized lowered set carries (a repeat compile of a computation
gets the same set, see :func:`~repro.explore.tuner.lowered_mappings`),
else one it builds.  A batch's distinct misses —
whatever mix of mappings they hold — are evaluated in one array call
each of ``batch_predict`` and (when measuring) ``batch_simulate``
through :func:`evaluate_batch`, the one evaluation body.  A batch of a
single mapping takes the same call.  On the pool the misses ship as
contiguous row chunks ``(mapping_indices, batch, measure)`` of plain
ndarray buffers, and each worker evaluates them through the same body
against its own table, built once from the pool's context.

``predict_many`` / ``measure_many`` accept ``(mapping_index, Schedule)``
objects.  They are thin adapters over :meth:`EvaluationEngine.encode_rows`,
which hands the objects to the shared row codec of
:mod:`repro.schedule.features` — the same encoder and key builder the
genetic search uses.  The codec canonicalises each schedule (every
spatial split materialised) before it is keyed, so an object and its
row form share one memo entry and one simulator jitter key.

Determinism is the design invariant: the batch evaluators are pure
functions of the candidate, batches are reassembled positionally, and
the memo only short-circuits recomputation of identical values, so
``n_workers=1`` (pure in-process), ``n_workers=N`` and warm-cache runs
all produce byte-identical results.  For the same reason a pooled
evaluation is never retried: a raising task or a dead worker raises out
of the batch (see :mod:`repro.engine.pool`).

Observability: every batch opens an ``engine.batch`` span and feeds the
``engine.cache.{hit,miss}`` and ``engine.pool.{tasks,batches}`` counters
(no-ops while obs is disabled), which is how the benchmarks prove cache
hit rates and pool utilisation; with the event bus on, these counters
also stream themselves as ``metric.inc`` events.  Worker-side spans and counters are
shipped home and merged by the pool (see :mod:`repro.engine.pool`), so
pooled evaluation appears in the same trace under per-worker lanes.
The batch evaluators' bit-identity with the scalar oracle
(``predict_latency`` / ``simulate_cycles`` of the lowered schedule) is
a test-time contract: the test suite re-checks the rows the engine
evaluates (``tests/conftest.py``, ``scalar_parity``), not the engine.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

from repro.engine.cache import MemoCache, global_memo
from repro.engine.fingerprint import (
    candidate_row_prefix,
    computation_fingerprint,
    hardware_fingerprint,
    mapping_fingerprint,
)
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
    row_keys,
    take_rows,
)
from repro.schedule.schedule import Schedule
from repro.sim.batch_timing import batch_simulate

__all__ = ["EvaluationEngine", "evaluate_batch", "resolve_workers"]

#: Smallest miss-batch worth shipping to the pool: below this the
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


class EvaluationEngine:
    """Batch evaluator for one (computation, mapping set, hardware) context."""

    def __init__(
        self,
        comp: ReduceComputation,
        physical: Sequence[PhysicalMapping],
        hardware: HardwareParams,
        n_workers: int | None = 1,
        memo: MemoCache | None = None,
        table: MappingTable | None = None,
    ):
        self.comp = comp
        self.physical = list(physical)
        self.hardware = hardware
        self.n_workers = resolve_workers(n_workers)
        self.memo = memo if memo is not None else global_memo()
        self.comp_fp = computation_fingerprint(comp)
        self.hw_fp = hardware_fingerprint(hardware)
        self._pool: WorkerPool | None = None
        #: Every mapping's features as arrays: ``table`` when the caller
        #: has one of exactly these mappings (a memoized lowered set's),
        #: else built here.
        self.table = table if table is not None else MappingTable(self.physical)
        #: Per-mapping byte prefixes of the row memo keys (lazy, cached).
        self._row_prefixes: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    def encode_rows(
        self, items: Sequence[tuple[int, Schedule]]
    ) -> tuple[np.ndarray, ScheduleBatch]:
        """Encode ``(mapping_index, schedule)`` pairs as joint-width
        canonical rows through the shared codec
        (:func:`~repro.schedule.features.encode_rows`): a schedule and its
        canonical form get the same row key, the same memo entry and the
        same simulator jitter key."""
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
        to a joint width, plus a per-row mapping index).  Memo keys are
        computed for the whole batch in one pass (:meth:`row_keys`) and
        no ``describe()`` string is rendered except lazily for memo-miss
        rows that reach the simulator's jitter encoding.
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

    def _row_prefix(self, mapping_index: int) -> bytes:
        prefix = self._row_prefixes.get(mapping_index)
        if prefix is None:
            prefix = candidate_row_prefix(
                self.comp_fp,
                self.hw_fp,
                mapping_fingerprint(self.physical[mapping_index]),
            )
            self._row_prefixes[mapping_index] = prefix
        return prefix

    def row_keys(
        self, mapping_indices: np.ndarray, batch: ScheduleBatch
    ) -> list[bytes]:
        """Canonical memo keys of batch rows: the shared
        :func:`~repro.schedule.features.row_keys` with the cached
        :func:`candidate_row_prefix` of each row's mapping, splits
        trimmed to that mapping's own ``n_spatial``."""
        return row_keys(
            mapping_indices,
            batch,
            self._row_prefix,
            lambda mi: int(self.table.n_spatial[mi]),
        )

    # ------------------------------------------------------------------
    def _evaluate_rows(
        self,
        mapping_indices: np.ndarray | Sequence[int],
        batch: ScheduleBatch,
        measure: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The engine's one evaluation body, behind all four entry
        points: key every row, serve the memo, evaluate each distinct
        miss once, return float64 arrays in row order."""
        n = len(batch)
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, (np.empty(0, dtype=np.float64) if measure else None)
        mapping_indices = np.asarray(mapping_indices, dtype=np.int64)
        keys = self.row_keys(mapping_indices, batch)
        predictions: list[float | None] = [self.memo.get_prediction(k) for k in keys]
        measurements: list[float | None] = [
            self.memo.get_measurement(k) if measure else None for k in keys
        ]

        # A position is a miss when any requested value is unknown; each
        # distinct key is evaluated once per batch no matter how often it
        # repeats within the batch.
        miss_positions: list[int] = []
        first_position: dict[bytes, int] = {}
        duplicate_of: dict[int, int] = {}
        for pos, key in enumerate(keys):
            missing = predictions[pos] is None or (measure and measurements[pos] is None)
            if not missing:
                continue
            if key in first_position:
                duplicate_of[pos] = first_position[key]
                continue
            first_position[key] = pos
            miss_positions.append(pos)

        hits = n - len(miss_positions) - len(duplicate_of)
        # One hit and one miss increment per batch, zero amounts included:
        # the live stream's cache detector counts batches by them.
        _obs_metrics.counter("engine.cache.hit").inc(hits)
        _obs_metrics.counter("engine.cache.miss").inc(len(miss_positions))

        with _obs_span(
            "engine.batch",
            items=n,
            misses=len(miss_positions),
            measure=measure,
        ) as batch_span:
            use_pool = (
                self.n_workers > 1 and len(miss_positions) >= MIN_POOL_BATCH
            )
            batch_span.set(pooled=use_pool)
            if miss_positions:
                rows = np.asarray(miss_positions, dtype=np.int64)
                predicted_new, measured_new = self._evaluate_misses(
                    mapping_indices[rows], take_rows(batch, rows), measure, use_pool
                )
                for pos, predicted in zip(miss_positions, predicted_new.tolist()):
                    predictions[pos] = predicted
                    self.memo.put_prediction(keys[pos], predicted)
                if measure:
                    for pos, measured in zip(miss_positions, measured_new.tolist()):
                        measurements[pos] = measured
                        self.memo.put_measurement(keys[pos], measured)

        for pos, src in duplicate_of.items():
            predictions[pos] = predictions[src]
            measurements[pos] = measurements[src]
        predicted_arr = np.array(predictions, dtype=np.float64)
        measured_arr = np.array(measurements, dtype=np.float64) if measure else None
        return predicted_arr, measured_arr

    # -- batch evaluation -----------------------------------------------
    def _evaluate_misses(
        self,
        mapping_indices: np.ndarray,
        batch: ScheduleBatch,
        measure: bool,
        use_pool: bool,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Evaluate a batch's distinct miss rows (any mix of mappings)
        through :func:`evaluate_batch`: in one call inline, or on the
        pool as contiguous row chunks, ~4 per worker so stragglers even
        out, concatenated back in row order."""
        if not use_pool:
            return evaluate_batch(
                self.table, mapping_indices, batch, self.hardware, measure
            )
        pool = self._ensure_pool()
        n = len(batch)
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
