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

Misses are grouped by mapping; each mapping's :class:`MappingFeatures`
table is derived once per engine and every group is evaluated through
``batch_predict`` / ``batch_simulate``.  On the pool the groups ship as
contiguous row slices of the caller's arrays — feature tables are
rebuilt worker-side from the context, so nothing but ndarray buffers
crosses the process boundary.

``predict_many`` / ``measure_many`` accept ``(mapping_index, Schedule)``
objects.  They are thin adapters: :meth:`EvaluationEngine.encode_rows`,
the engine's only object→row boundary, canonicalises each schedule
(every spatial split materialised) before it is keyed, so an object and
its row form share one memo entry and one simulator jitter key.

Determinism is the design invariant: the batch evaluators are pure
functions of the candidate, batches are reassembled positionally, and
the memo only short-circuits recomputation of identical values, so
``n_workers=1`` (pure in-process), ``n_workers=N`` and warm-cache runs
all produce byte-identical results.  Fault recovery preserves the same
invariant: pooled evaluation runs under a
:class:`~repro.engine.faults.FaultPolicy` (batch deadlines, bounded
retry with backoff, pool respawn, per-task quarantine, degradation to
inline evaluation — see :mod:`repro.engine.pool`), and because every
recovery path re-runs the same pure function, a fault-ridden run
returns byte-identical results to a fault-free one.

Observability: every batch opens an ``engine.batch`` span and feeds the
``engine.cache.{hit,miss}`` and ``engine.pool.{tasks,batches}`` counters
(no-ops while obs is disabled), which is how the benchmarks prove cache
hit rates and pool utilisation; with the event bus on, these counters
also stream themselves as ``metric.inc`` events.  Worker-side spans and counters are
shipped home and merged by the pool (see :mod:`repro.engine.pool`), so
pooled evaluation appears in the same trace under per-worker lanes.  A
sampled *divergence watchdog* (``divergence_rate > 0``) re-runs a
deterministic fraction of evaluated rows through the scalar oracle
(``predict_latency`` / ``simulate_cycles``) and records parity as
``engine.divergence.*`` — the bit-identity contract as a continuously
monitored invariant rather than a test-time claim.
"""

from __future__ import annotations

import math
import os
import zlib
from typing import Sequence

import numpy as np

from repro.engine.cache import MemoCache, global_memo
from repro.engine.faults import FaultPlan, FaultPolicy, fresh_fault_stats
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
from repro.model.perf_model import predict_latency
from repro.obs import metrics as _obs_metrics
from repro.obs.trace import span as _obs_span
from repro.schedule.features import (
    MappingFeatures,
    ScheduleBatch,
    derive_batch,
    schedules_from_rows,
    take_rows,
)
from repro.schedule.lowering import lower_schedule
from repro.schedule.schedule import Schedule
from repro.sim.batch_timing import batch_simulate
from repro.sim.timing import simulate_cycles

__all__ = ["EvaluationEngine", "resolve_workers"]

#: Smallest miss-batch worth shipping to the pool: below this the
#: pickle/IPC round trip costs more than the evaluations save.
DEFAULT_MIN_POOL_BATCH = 16


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
        min_pool_batch: int = DEFAULT_MIN_POOL_BATCH,
        divergence_rate: float = 0.0,
        fault_policy: FaultPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if not 0.0 <= divergence_rate <= 1.0:
            raise ValueError(
                f"divergence_rate must be in [0, 1], got {divergence_rate}"
            )
        self.comp = comp
        self.physical = list(physical)
        self.hardware = hardware
        self.n_workers = resolve_workers(n_workers)
        self.min_pool_batch = min_pool_batch
        self.divergence_rate = divergence_rate
        self.fault_policy = fault_policy or FaultPolicy()
        self.fault_plan = fault_plan
        #: Running watchdog tally (see :meth:`_watchdog_rows`), readable even
        #: when obs is off.
        self.divergence_stats = {"checked": 0, "mismatched": 0}
        #: Fault-recovery tally; rebound to the pool's live dict when a
        #: pool starts, so it stays readable after close() (obs on or off).
        self.fault_stats = fresh_fault_stats()
        self.memo = memo if memo is not None else global_memo()
        self.comp_fp = computation_fingerprint(comp)
        self.hw_fp = hardware_fingerprint(hardware)
        self.mapping_fps = [mapping_fingerprint(pm) for pm in self.physical]
        self._pool: WorkerPool | None = None
        # Feature tables are pure functions of the mapping; derived lazily
        # (a tune run touches a prefiltered subset) and kept for the
        # engine's lifetime.
        self._features: dict[int, MappingFeatures] = {}
        #: Per-mapping byte prefixes of the row memo keys (lazy, cached).
        self._row_prefixes: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    def encode_rows(
        self, items: Sequence[tuple[int, Schedule]]
    ) -> tuple[np.ndarray, ScheduleBatch]:
        """Encode ``(mapping_index, schedule)`` pairs as joint-width rows.

        The engine's only object→row boundary.  Every spatial split of
        the row's mapping is materialised (a split the schedule leaves
        out reads as the identity split), so rows are canonical: a
        schedule and its canonical form get the same row key, the same
        memo entry and the same simulator jitter key.
        """
        names_of = {mi: self.features_of(mi).spatial_names for mi, _ in items}
        joint = max((len(names) for names in names_of.values()), default=0)
        n = len(items)
        mi_arr = np.asarray([mi for mi, _ in items], dtype=np.int64)
        warp = np.ones((n, joint), dtype=np.int64)
        seq = np.ones((n, joint), dtype=np.int64)
        stage = np.empty(n, dtype=np.int64)
        db = np.empty(n, dtype=bool)
        unroll = np.empty(n, dtype=np.int64)
        vectorize = np.empty(n, dtype=np.int64)
        for i, (mi, sched) in enumerate(items):
            for j, name in enumerate(names_of[mi]):
                split = sched.split_for(name)
                warp[i, j] = split.warp
                seq[i, j] = split.seq
            stage[i] = sched.reduce_stage
            db[i] = sched.double_buffer
            unroll[i] = sched.unroll
            vectorize[i] = sched.vectorize
        return mi_arr, ScheduleBatch(
            warp=warp,
            seq=seq,
            reduce_stage=stage,
            double_buffer=db,
            unroll=unroll,
            vectorize=vectorize,
        )

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
                self.comp_fp, self.hw_fp, self.mapping_fps[mapping_index]
            )
            self._row_prefixes[mapping_index] = prefix
        return prefix

    def row_keys(
        self, mapping_indices: np.ndarray, batch: ScheduleBatch
    ) -> list[bytes]:
        """Canonical memo keys of batch rows, computed in one pass.

        Per mapping: the cached :func:`candidate_row_prefix` plus the raw
        int64 bytes of the row's width-trimmed columns.  Trimming to the
        mapping's own ``n_spatial`` (populations are padded to the widest
        mapping's width with identity splits) keeps a schedule's key
        independent of the batch it rides in.
        """
        n = len(batch)
        keys: list[bytes] = [b""] * n
        for mi in np.unique(mapping_indices):
            mi = int(mi)
            rows = np.nonzero(mapping_indices == mi)[0]
            d = len(self.features_of(mi).spatial_names)
            cols = np.column_stack(
                (
                    batch.warp[rows, :d],
                    batch.seq[rows, :d],
                    batch.reduce_stage[rows],
                    batch.double_buffer[rows].astype(np.int64),
                    batch.unroll[rows],
                    batch.vectorize[rows],
                )
            )
            raw = np.ascontiguousarray(cols).tobytes()
            stride = cols.shape[1] * 8
            prefix = self._row_prefix(mi)
            for k, pos in enumerate(rows):
                keys[pos] = prefix + raw[k * stride : (k + 1) * stride]
        return keys

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
                self.n_workers > 1 and len(miss_positions) >= self.min_pool_batch
            )
            batch_span.set(pooled=use_pool)
            results = self._eval_grouped(
                miss_positions, mapping_indices, batch, measure, use_pool
            )

        if self.divergence_rate > 0.0 and miss_positions:
            self._watchdog_rows(
                miss_positions, mapping_indices, batch, keys, results, measure
            )

        for pos, (predicted, measured) in zip(miss_positions, results):
            key = keys[pos]
            predictions[pos] = predicted
            self.memo.put_prediction(key, predicted)
            if measure:
                measurements[pos] = measured
                self.memo.put_measurement(key, measured)
        for pos, src in duplicate_of.items():
            predictions[pos] = predictions[src]
            measurements[pos] = measurements[src]
        predicted_arr = np.array(predictions, dtype=np.float64)
        measured_arr = np.array(measurements, dtype=np.float64) if measure else None
        return predicted_arr, measured_arr

    def _watchdog_rows(
        self,
        miss_positions: list[int],
        mapping_indices: np.ndarray,
        batch: ScheduleBatch,
        keys: list[bytes],
        results: list[tuple[float, float | None]],
        measure: bool,
    ) -> None:
        """Divergence watchdog: re-run a sampled fraction of evaluated
        rows through the scalar oracle and record parity.

        The batch evaluators are *claimed* bit-identical to the scalar
        ones; this turns that claim into a continuously monitored
        invariant.  Sampling is deterministic per candidate (a CRC of the
        row key against ``divergence_rate``), never drawn from an RNG, so
        the watchdog cannot perturb exploration and the same candidates
        are checked on every run.  Only the sampled rows are decoded into
        :class:`Schedule` objects.  Parity lands in the
        ``engine.divergence.{checked,mismatched}`` counters (and the
        engine's ``divergence_stats`` tally, readable with obs off); a
        mismatch is recorded, not raised — the batch results stand, the
        flight recorder flags the broken invariant.
        """
        threshold = int(self.divergence_rate * 0x100000000)
        checked = 0
        mismatched = 0
        for pos, result in zip(miss_positions, results):
            if zlib.crc32(keys[pos]) >= threshold:
                continue
            checked += 1
            mi = int(mapping_indices[pos])
            names = self.features_of(mi).spatial_names
            (schedule,) = schedules_from_rows(names, batch, [pos])
            oracle = self._oracle_evaluate(mi, schedule, measure)
            if oracle != result:
                mismatched += 1
                with _obs_span(
                    "engine.divergence.mismatch",
                    key=repr(keys[pos]),
                    batch=list(result),
                    oracle=list(oracle),
                ):
                    pass
        self.divergence_stats["checked"] += checked
        self.divergence_stats["mismatched"] += mismatched
        _obs_metrics.counter("engine.divergence.checked").inc(checked)
        if mismatched:
            _obs_metrics.counter("engine.divergence.mismatched").inc(mismatched)

    def _oracle_evaluate(
        self, mapping_index: int, schedule: Schedule, measure: bool
    ) -> tuple[float, float | None]:
        """The scalar oracle: ``predict_latency`` / ``simulate_cycles``
        of the lowered schedule."""
        sched = lower_schedule(self.physical[mapping_index], schedule)
        predicted = predict_latency(sched, self.hardware).total_us
        measured = simulate_cycles(sched, self.hardware).total_us if measure else None
        return predicted, measured

    # -- batch evaluation -----------------------------------------------
    def features_of(self, mapping_index: int) -> MappingFeatures:
        """The mapping's feature table, derived once per engine."""
        features = self._features.get(mapping_index)
        if features is None:
            features = MappingFeatures.from_physical(self.physical[mapping_index])
            self._features[mapping_index] = features
        return features

    def _eval_grouped(
        self,
        miss_positions: list[int],
        mapping_indices: np.ndarray,
        batch: ScheduleBatch,
        measure: bool,
        use_pool: bool,
    ) -> list[tuple[float, float | None]]:
        """Evaluate the miss rows grouped by mapping: chunk each group,
        take each chunk as a zero-copy row slice of the incoming batch
        (width-trimmed to its mapping), evaluate on the pool or inline,
        reassemble aligned with ``miss_positions``."""
        groups: dict[int, list[int]] = {}
        for pos in miss_positions:
            groups.setdefault(int(mapping_indices[pos]), []).append(pos)

        # Each chunk is one parallel work unit; aim for ~4 per worker so
        # stragglers even out.
        if use_pool:
            target = max(1, math.ceil(len(miss_positions) / (self.n_workers * 4)))
        else:
            target = len(miss_positions)
        chunks: list[tuple[int, list[int]]] = []
        for mapping_index, positions in groups.items():
            for start in range(0, len(positions), target):
                chunks.append((mapping_index, positions[start : start + target]))

        payload = [
            (
                mapping_index,
                take_rows(
                    batch,
                    positions,
                    width=len(self.features_of(mapping_index).spatial_names),
                ),
                measure,
            )
            for mapping_index, positions in chunks
        ]
        if use_pool:
            self._ensure_pool()
            _obs_metrics.counter("engine.pool.tasks").inc(len(miss_positions))
            _obs_metrics.counter("engine.pool.batches").inc()
            chunk_results = self._pool.evaluate_groups(payload)
        else:
            chunk_results = [
                self._eval_batch_inline(mapping_index, chunk_batch, m)
                for mapping_index, chunk_batch, m in payload
            ]

        by_position: dict[int, tuple[float, float | None]] = {}
        for (_, positions), results in zip(chunks, chunk_results):
            for pos, result in zip(positions, results):
                by_position[pos] = result
        return [by_position[pos] for pos in miss_positions]

    def _eval_batch_inline(
        self, mapping_index: int, batch: ScheduleBatch, measure: bool
    ) -> list[tuple[float, float | None]]:
        features = self.features_of(mapping_index)
        quantities = derive_batch(features, batch)
        prediction = batch_predict(features, batch, self.hardware, quantities=quantities)
        if not measure:
            return [(float(p), None) for p in prediction.total_us]
        timing = batch_simulate(features, batch, self.hardware, quantities=quantities)
        return [
            (float(p), float(m))
            for p, m in zip(prediction.total_us, timing.total_us)
        ]

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            with _obs_span("engine.pool.start", workers=self.n_workers):
                self._pool = WorkerPool(
                    self.physical,
                    self.hardware,
                    self.n_workers,
                    policy=self.fault_policy,
                    fault_plan=self.fault_plan,
                )
            # One dict, shared live: the pool mutates it, the engine
            # (and the tuner's caller) reads it, even after close().
            self.fault_stats = self._pool.fault_stats
        return self._pool

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def terminate(self) -> None:
        """Kill the pool without waiting for in-flight work — the exit
        path for aborted tunes, where a wedged worker must not be joined."""
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
