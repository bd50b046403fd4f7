"""The AMOS tuner: enumerate mappings, explore schedules, measure the best.

``Tuner.tune`` is the operational core of the compiler: it enumerates all
valid mappings for the operator on the target's intrinsics, runs the
genetic search with the analytic model as fitness, measures the
model-selected top candidates on the cycle simulator, and returns the best
measured (mapping, schedule) pair with its exploration history — the
history is what Fig 5's model-validation curves are drawn from.

Exploration runs on schedule rows from the prefilter to the trial table,
and every model prediction and simulator measurement flows through one
:class:`~repro.engine.engine.EvaluationEngine` per tune run as a batch
of rows: every mapping's default row (:func:`default_rows`) is ranked by
the prefilter and, at the kept mappings, seeds the genetic search
(:func:`genetic_search_rows`, whose population is a
:class:`~repro.schedule.features.ScheduleBatch` drawn from the kept
mappings' :class:`~repro.schedule.space.SpaceTable`); the measurement
pass takes row slices of the GA's ranked archive, the safety net
measures the kept default rows, and each refinement round mutates one
row into a batch of neighbours.  Every batch lands in a
:class:`TrialTable` as rows; only the best row is decoded and lowered,
and :attr:`ExplorationResult.trials` decodes the rest on first read.
The engine evaluates every row it is handed, in-process by default;
with an opt-in ``TunerConfig.n_workers`` above 1 it evaluates large
batches on a spawn-safe process pool — with results reassembled in
submission order, so the tuner's output is byte-identical for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.engine.engine import EvaluationEngine
from repro.engine.fingerprint import (
    computation_fingerprint,
    hardware_fingerprint,
    tuner_config_fingerprint,
)
from repro.explore.genetic import GeneticConfig, genetic_search_rows
from repro.ir.compute import ReduceComputation
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.mapping import ComputeMapping
from repro.mapping.physical import PhysicalMapping, lower_to_physical
from repro.model.hardware_params import HardwareParams
from repro.obs import metrics as _obs_metrics
from repro.obs.explore_log import ExploreLog, current_log, generation_stats, use_log
from repro.obs.logging import LEVELS, get_logger, log_level
from repro.obs.runlog import FlightRecorder, active_recorder
from repro.obs.trace import span as _obs_span
from repro.obs.trace import tracing_enabled as _obs_enabled
from repro.schedule.features import (
    MappingTable,
    ScheduleBatch,
    row_keys,
    schedules_from_rows,
    take_rows,
)
from repro.schedule.lowering import ScheduledMapping, lower_schedule
from repro.schedule.space import MUTATE_UNIFORMS, SpaceTable, default_rows

# Tuner progress goes through the structured logger (JSONL on stderr):
# silent at the WARNING library default, narrated at INFO (the CLI's
# default unless --quiet / REPRO_LOG_LEVEL says otherwise).
_log = get_logger("repro.tuner")


class LoweredSet(tuple):
    """A memoized tuple of lowered candidate mappings (see
    :func:`lowered_mappings`) that builds its
    :class:`~repro.schedule.features.MappingTable` on first use and keeps
    it, so every engine over the set shares one read-only table."""

    @cached_property
    def table(self) -> MappingTable:
        return MappingTable(self)


#: Lowered sets by the identities of what enumeration returned (see
#: :func:`lowered_mappings`); bounded by the lowered mappings held, and
#: started over when a new set would take it past the bound.
_LOWERED: dict[tuple[int, ...], LoweredSet] = {}
_LOWERED_MAX = 4096
_lowered_held = 0


def clear_lowering_memo() -> None:
    """Forget every lowered set and its table, so the next tune of each
    computation lowers its mappings and builds its table again."""
    global _lowered_held
    _LOWERED.clear()
    _lowered_held = 0


def release_lowered(comp: ReduceComputation) -> None:
    """Forget the lowered sets of ``comp``.  The compiler calls this once
    it has stored a compile of ``comp`` in the compile cache: a repeat
    compile is then served from the cache, which lowers only the stored
    mapping, so keeping the whole set would only hold memory."""
    global _lowered_held
    for key, lowered in list(_LOWERED.items()):
        if lowered[0].computation is comp:
            del _LOWERED[key]
            _lowered_held -= len(lowered)


def lowered_mappings(mappings: Sequence[ComputeMapping]) -> LoweredSet:
    """``lower_to_physical`` of every mapping, memoized per process.

    Lowering reads only the computation, the intrinsic and the matching
    matrix, and enumeration shares one admitted matrix among every
    enumeration of a structure (:mod:`repro.mapping.generation`).  So
    the memo is keyed by the identities of each mapping's computation,
    intrinsic and matching, in order; its entry's lowered mappings hold
    those objects, so no identity in a live key is ever reused.  The
    computation's identity keeps apart the layers of one structure,
    which share matchings but differ in extents; a fresh admission
    (other options, a cleared admission memo) brings fresh matchings.
    Lowered mappings are frozen, so every caller may share them.
    """
    global _lowered_held
    key = tuple(
        id(part) for m in mappings for part in (m.computation, m.intrinsic, m.matching)
    )
    lowered = _LOWERED.get(key)
    if lowered is None:
        lowered = LoweredSet(lower_to_physical(m) for m in mappings)
        if not lowered:  # nothing to keep (and no computation to release by)
            return lowered
        if _lowered_held + len(lowered) > _LOWERED_MAX:
            clear_lowering_memo()
        _LOWERED[key] = lowered
        _lowered_held += len(lowered)
    return lowered


@dataclass
class TunerConfig:
    """Exploration budget and options.

    ``prefilter_mappings`` implements the paper's model-guided filtering:
    every valid mapping is scored with the analytic model under a default
    heuristic schedule and only the top candidates enter the (more
    expensive) genetic schedule search.

    ``elite_fraction`` / ``mapping_mutation_prob`` are the GA's selection
    pressure and mapping re-draw rate (see
    :class:`~repro.explore.genetic.GeneticConfig`).  They are *budget*
    knobs — they change which candidates are explored, so they are part
    of the tuner-config fingerprint.

    ``n_workers`` / ``cache_dir`` are execution knobs: they control how
    fast the same answer is produced, never which answer.  Evaluation
    runs in-process by default (``n_workers=1``), the fastest
    configuration measured; the worker pool is opt-in: ``n_workers=N``
    spawns ``N`` workers and ``n_workers=None`` one per CPU core
    (``os.cpu_count()``).  A pooled task that raises, or a worker that
    dies, raises out of the tune.  ``cache_dir`` opts into the
    persistent compile cache consulted by
    :func:`repro.compiler.amos_compile`.  There is one
    evaluation path: the population is a
    :class:`~repro.schedule.features.ScheduleBatch` scored by the
    engine's batch evaluators, and the scalar ``predict_latency`` /
    ``simulate_cycles`` remain only as the oracle the tests check it
    against.

    ``run_dir`` is the flight-recorder knob (also execution-only,
    excluded from the budget fingerprint): it makes every compile/tune
    write a :class:`~repro.obs.runlog.RunRecord` manifest there.
    """

    population: int = 32
    generations: int = 8
    elite_fraction: float = 0.25
    mapping_mutation_prob: float = 0.15
    measure_top: int = 32
    prefilter_mappings: int = 24
    refine_rounds: int = 4
    refine_neighbors: int = 16
    seed: int = 0
    generation_options: GenerationOptions = field(default_factory=GenerationOptions)
    n_workers: int | None = 1
    cache_dir: str | None = None
    run_dir: str | None = None


@dataclass
class Trial:
    """One explored candidate with model prediction and measurement.

    ``mapping_index`` is the candidate's position in the tune run's
    (prefiltered) mapping list — carried explicitly so downstream stages
    (refinement seeding, analysis) never have to recover it by object
    identity from ``scheduled.physical``.
    """

    scheduled: ScheduledMapping
    predicted_us: float
    measured_us: float | None = None
    mapping_index: int = -1


@dataclass
class TrialTable:
    """A tune's explored candidates as row chunks, in exploration order.

    A chunk is ``(mapping_indices, batch, predicted, measured)``: kept-
    mapping indices, a :class:`ScheduleBatch`, the model's predictions
    and the measurements (``None`` for a predicted-only row).  Rows are
    decoded into :class:`Trial` records only when asked; ``selected``
    maps kept-mapping indices to rows of ``mappings``, the engine's
    table of every mapping.
    """

    mappings: MappingTable
    selected: np.ndarray
    chunks: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(predicted) for _, _, predicted, _ in self.chunks)

    def measured(self):
        """``(measured_us, mapping, batch, row)`` of every measured row,
        in exploration order."""
        for mapping_indices, batch, _, measured in self.chunks:
            for row, meas in enumerate(measured):
                if meas is not None:
                    yield meas, int(mapping_indices[row]), batch, row

    def lower(self, mapping_index: int, batch: ScheduleBatch, rows) -> list:
        """Rows of one kept mapping as :class:`ScheduledMapping` objects."""
        m = int(self.selected[mapping_index])
        schedules = schedules_from_rows(self.mappings.spatial_names(m), batch, rows)
        return [lower_schedule(self.mappings.physical[m], s) for s in schedules]

    def decode(self) -> list[Trial]:
        """Every row as a :class:`Trial`, in order; each chunk's rows
        decoded by one ``schedules_from_rows`` call per mapping."""
        trials: list[Trial] = []
        for mapping_indices, batch, predicted, measured in self.chunks:
            lowered = {}
            for mi in np.unique(mapping_indices).tolist():
                rows = np.flatnonzero(mapping_indices == mi)
                lowered.update(zip(rows.tolist(), self.lower(mi, batch, rows)))
            scheduled = [lowered[row] for row in range(len(batch))]
            trials += map(Trial, scheduled, predicted, measured, mapping_indices.tolist())
        return trials


@dataclass
class ExplorationResult:
    """Outcome of tuning one operator on one device.

    ``telemetry`` carries the run's :class:`~repro.obs.explore_log.ExploreLog`
    (funnel counts, GA convergence, model-vs-simulator samples) when
    observability was enabled during the run; ``None`` otherwise.
    """

    best: ScheduledMapping
    best_us: float
    trial_table: TrialTable
    num_mappings: int
    telemetry: ExploreLog | None = None

    @cached_property
    def trials(self) -> list[Trial]:
        """Every explored candidate in exploration order, decoded from
        ``trial_table`` on first read."""
        return self.trial_table.decode()

    def best_gflops(self) -> float:
        flops = self.best.useful_flops()
        return flops / (self.best_us * 1e-6) / 1e9 if self.best_us > 0 else 0.0

    def summary(self) -> dict:
        """Plain-dict run summary: best latency/GFLOP/s, mapping and
        trial counts (counted from the trial table, nothing decoded)."""
        measured = sum(1 for _ in self.trial_table.measured())
        return {
            "best_us": self.best_us,
            "best_gflops": self.best_gflops(),
            "num_mappings": self.num_mappings,
            "num_trials": len(self.trial_table),
            "trials_measured": measured,
            "trials_predicted_only": len(self.trial_table) - measured,
        }


class Tuner:
    """Joint mapping x schedule tuner for one hardware target."""

    def __init__(self, hardware: HardwareParams, config: TunerConfig | None = None):
        self.hardware = hardware
        self.config = config or TunerConfig()

    # ------------------------------------------------------------------
    def candidate_mappings(self, comp: ReduceComputation) -> LoweredSet:
        """All valid physical mappings across the target's intrinsics.

        Every call enumerates (cheap behind the admission memo, and it
        records the tune's funnel and counters); the lowering is served
        by :func:`lowered_mappings`, so a repeat compile of a computation
        lowers nothing and hands the engine the same set, whose table it
        then reuses."""
        with _obs_span("tuner.enumerate", operator=comp.name) as sp:
            options = self.config.generation_options
            result = lowered_mappings(
                [
                    mapping
                    for intrinsic in intrinsics_for_target(self.hardware.target)
                    for mapping in enumerate_mappings(comp, intrinsic, options)
                ]
            )
            sp.set(num_mappings=len(result))
        return result

    def _make_engine(
        self, comp: ReduceComputation, physical: Sequence[PhysicalMapping]
    ) -> EvaluationEngine:
        return EvaluationEngine(
            comp,
            physical,
            self.hardware,
            n_workers=self.config.n_workers,
            table=physical.table if isinstance(physical, LoweredSet) else None,
        )

    @property
    def _max_warps_per_block(self) -> int:
        """The device's warp cap: the budget of the default schedules the
        prefilter ranks and the GA seeds, and of the schedule spaces."""
        return self.hardware.max_warps_per_subcore * self.hardware.subcores_per_core

    def _prefilter_indices(
        self, engine: EvaluationEngine, defaults: ScheduleBatch
    ) -> np.ndarray:
        """Engine indices of the mappings the analytic model ranks best
        under their default schedules (paper Sec 5.3: the model filters
        inferior mappings); ``defaults`` holds one row per engine
        mapping, ranked in one batch prediction."""
        n = len(defaults)
        keep = self.config.prefilter_mappings
        if keep <= 0 or n <= keep:
            return np.arange(n)
        with _obs_span("tuner.prefilter", candidates=n, keep=keep):
            costs = engine.predict_rows(np.arange(n), defaults)
            _obs_metrics.counter("model.predictions").inc(n)
            return np.argsort(costs, kind="stable")[:keep]

    def tune(
        self,
        comp: ReduceComputation,
        mappings: list[PhysicalMapping] | None = None,
    ) -> ExplorationResult:
        """Explore and return the best measured candidate.

        Args:
            comp: the operator to map.
            mappings: restrict the mapping choices (used by the fixed-
                mapping baselines); defaults to the full enumeration.

        When observability is enabled (``repro.obs.enable()``) the run's
        telemetry — mapping funnel, per-generation GA stats and paired
        model/simulator samples — is collected into an
        :class:`~repro.obs.explore_log.ExploreLog` (a caller-bound one via
        ``use_log``, else a fresh one) and attached to the result.
        Telemetry never alters exploration: RNG streams, candidate order
        and measurements are identical with obs on or off.

        When ``TunerConfig.run_dir`` is set (and no outer recorder — e.g.
        a recorded ``amos_compile`` — is already active) the run also
        writes a :class:`~repro.obs.runlog.RunRecord` manifest there.
        """
        if self.config.run_dir and active_recorder() is None:
            fingerprints = {
                "computation": computation_fingerprint(comp),
                "hardware": hardware_fingerprint(self.hardware),
                "tuner_config": tuner_config_fingerprint(self.config),
            }
            with FlightRecorder(
                self.config.run_dir,
                "tune",
                comp.name,
                self.hardware.name,
                self.config,
                fingerprints,
            ) as recorder:
                result = self._tune_logged(comp, mappings)
                recorder.set_outcome(
                    latency_us=result.best_us,
                    used_intrinsics=True,
                    num_mappings=result.num_mappings,
                    num_trials=len(result.trial_table),
                    mapping=result.best.physical.compute.describe(),
                    schedule=result.best.schedule.describe(),
                )
            return result
        return self._tune_logged(comp, mappings)

    def _tune_logged(
        self,
        comp: ReduceComputation,
        mappings: list[PhysicalMapping] | None = None,
    ) -> ExplorationResult:
        log = current_log()
        if log is None and _obs_enabled():
            log = ExploreLog(operator=comp.name, hardware=self.hardware.name)
            with use_log(log):
                return self._tune_impl(comp, mappings, log)
        return self._tune_impl(comp, mappings, log)

    def _tune_impl(
        self,
        comp: ReduceComputation,
        mappings: list[PhysicalMapping] | None,
        log: ExploreLog | None,
    ) -> ExplorationResult:
        with _obs_span(
            "tuner.tune", operator=comp.name, hardware=self.hardware.name
        ) as tune_span:
            all_physical = (
                mappings if mappings is not None else self.candidate_mappings(comp)
            )
            if not all_physical:
                raise ValueError(
                    f"no valid mapping of {comp.name} onto target {self.hardware.target!r}"
                )

            # The engine's __exit__ closes the pool on success but
            # shuts it down without waiting when the tune raises.
            with self._make_engine(comp, all_physical) as engine:
                return self._explore(comp, all_physical, engine, log, tune_span)

    def _explore(
        self,
        comp: ReduceComputation,
        all_physical: list[PhysicalMapping],
        engine: EvaluationEngine,
        log: ExploreLog | None,
        tune_span,
    ) -> ExplorationResult:
        # Every mapping's default heuristic schedule as one row: the
        # prefilter ranks them, and at the kept mappings they are the
        # GA's seeds and the safety net's candidates.  ``selected`` maps
        # prefiltered positions back to engine indices.
        max_warps = self._max_warps_per_block
        defaults = default_rows(engine.table, max_warps)
        selected = self._prefilter_indices(engine, defaults)
        physical = [all_physical[i] for i in selected]
        seed_rows = take_rows(defaults, selected)
        if log is not None:
            log.record_funnel("prefiltered", len(physical))
        _log.info(
            "prefilter done",
            operator=comp.name,
            kept=len(physical),
            candidates=len(all_physical),
        )

        def fitness_rows(mapping_indices: np.ndarray, batch) -> np.ndarray:
            # The GA hands prefiltered-space indices; translate to engine
            # indices as one fancy-index, no per-candidate objects.
            _obs_metrics.counter("model.predictions").inc(len(batch))
            return engine.predict_rows(selected[mapping_indices], batch)

        space_table = SpaceTable.of_mappings(engine.table, selected, max_warps)
        ga = GeneticConfig(
            population=self.config.population,
            generations=self.config.generations,
            elite_fraction=self.config.elite_fraction,
            mapping_mutation_prob=self.config.mapping_mutation_prob,
            seed=self.config.seed,
        )
        on_generation = None
        if log is not None or log_level() <= LEVELS["info"]:
            # Pure observation either way: the GA hands over fitnesses it
            # already computed, so logging cannot perturb the search.
            def on_generation(generation, fitnesses, unique):
                if log is not None:
                    log.record_generation(generation, fitnesses, unique)
                stats = generation_stats(generation, fitnesses, unique)
                _log.info(
                    "generation",
                    generation=generation,
                    best_us=stats.best_fitness,
                    mean_us=stats.mean_fitness,
                    diversity=round(stats.diversity, 3),
                )
        with _obs_span("tuner.genetic_search", mappings=len(physical)):
            ranked = genetic_search_rows(
                physical,
                fitness_rows,
                config=ga,
                seeds=(np.arange(len(physical)), seed_rows),
                spaces=space_table,
                on_generation=on_generation,
            )

        # Every evaluated batch becomes a chunk of the trial table; no
        # per-candidate object is built until the best row is decoded.
        trials = TrialTable(engine.table, selected)

        def add_trials(
            mapping_indices: np.ndarray,
            batch: ScheduleBatch,
            predicted: list[float],
            measured: list[float | None],
        ) -> None:
            """Append rows (``measured[i]`` is ``None`` for a
            predicted-only row) and record the measured rows' telemetry."""
            trials.chunks.append((mapping_indices, batch, predicted, measured))
            samples = [(p, m) for p, m in zip(predicted, measured) if m is not None]
            if samples:
                _obs_metrics.counter("tuner.measurements").inc(len(samples))
            if log is not None:
                for sample in samples:
                    log.record_sample(*sample)

        def measure(mapping_indices: np.ndarray, batch: ScheduleBatch) -> np.ndarray:
            """Measure rows, add them as trials; returns the measurements."""
            predicted, measured = engine.measure_rows(selected[mapping_indices], batch)
            add_trials(mapping_indices, batch, predicted.tolist(), measured.tolist())
            return measured

        # Measure on the "hardware": the model's global top plus the best
        # model-ranked candidate of every surviving mapping, so a mapping
        # the model slightly misranks still gets one real measurement.
        to_measure = np.arange(len(ranked)) < self.config.measure_top
        to_measure[np.unique(ranked.mapping_index, return_index=True)[1]] = True
        measured_ranks = np.nonzero(to_measure)[0]

        _log.info(
            "measuring candidates",
            operator=comp.name,
            candidates=len(measured_ranks),
        )
        with _obs_span("tuner.measure", candidates=len(measured_ranks)):
            measured_mi = selected[ranked.mapping_index[measured_ranks]]
            measured_batch = take_rows(ranked.batch, measured_ranks)
            _, ranked_us = engine.measure_rows(measured_mi, measured_batch)
            measured = dict(zip(measured_ranks.tolist(), ranked_us.tolist()))
            add_trials(
                ranked.mapping_index,
                ranked.batch,
                ranked.costs.tolist(),
                [measured.get(rank) for rank in range(len(ranked))],
            )

            # Safety net: the default heuristic schedule of every kept
            # mapping is always measured, so a batch of model-favoured but
            # infeasible candidates cannot leave the tuner empty-handed.
            # Seed rows the ranked pass already measured (same mapping,
            # same canonical row) are skipped: re-appending them would
            # double-count measurements in the trials and telemetry.
            def keys_of(mi: np.ndarray, batch: ScheduleBatch) -> list[bytes]:
                return row_keys(
                    mi,
                    batch,
                    lambda m: m.to_bytes(8, "little"),
                    lambda m: int(engine.table.n_spatial[m]),
                )

            done = set(keys_of(measured_mi, measured_batch))
            net = np.flatnonzero(
                [key not in done for key in keys_of(selected, seed_rows)]
            )
            measure(net, take_rows(seed_rows, net))
        if not any(meas < float("inf") for meas, *_ in trials.measured()):
            raise RuntimeError(f"no feasible schedule found for {comp.name}")

        # Measured refinement rounds: AMOS's tuning loop alternates model-
        # guided proposal with hardware measurement over many rounds; here
        # the best measured row of each of the four best-measured mappings
        # is hill-climbed for a few rounds.  A round draws all its
        # neighbours from the round's starting row and measures them as
        # one batch, then steps to the first of its fastest neighbours if
        # that beats the current row — deterministic for any worker count.
        first_of: dict[int, tuple] = {}  # mapping -> its best measured row
        for start in sorted(trials.measured(), key=lambda r: r[0]):
            first_of.setdefault(start[1], start)
        starts = list(first_of.values())[:4]

        # One uniform matrix per refinement round, from a dedicated seeded
        # generator, decoded by the GA's hardware-capped space table
        # (bit-identical to the scalar ``mutate_with_uniforms`` twin).
        rng = np.random.default_rng(self.config.seed + 1)
        k = self.config.refine_neighbors
        _log.info(
            "refining",
            operator=comp.name,
            starts=len(starts),
            rounds=self.config.refine_rounds,
        )
        with _obs_span("tuner.refine", starts=len(starts)):
            for current_us, mi, batch, row in starts:
                current = take_rows(batch, [row], width=int(space_table.n_spatial[mi]))
                for _ in range(self.config.refine_rounds):
                    u = rng.random((k, MUTATE_UNIFORMS))
                    base = take_rows(current, np.zeros(k, dtype=np.int64))
                    neighbours = space_table.mutate(np.full(k, mi), base, u)
                    times = measure(np.full(k, mi), neighbours)
                    if not k or times.min() >= current_us:
                        break
                    step = int(np.argmin(times))
                    current = take_rows(neighbours, [step])
                    current_us = float(times[step])

        # The best measurement: the first row of the lowest, as a scan
        # keeping only strictly lower ones finds it.
        best_us, mi, batch, row = min(trials.measured(), key=lambda r: r[0])
        if log is not None:
            # Distinct mappings with at least one simulator measurement.
            measured_mappings = {m for _, m, _, _ in trials.measured()}
            log.record_funnel("measured", len(measured_mappings))
        _log.info(
            "tune done",
            operator=comp.name,
            best_us=best_us,
            mappings=len(physical),
            trials=len(trials),
        )
        tune_span.set(best_us=best_us, num_mappings=len(physical))
        (best,) = trials.lower(mi, batch, [row])
        return ExplorationResult(
            best=best,
            best_us=best_us,
            trial_table=trials,
            num_mappings=len(physical),
            telemetry=log,
        )
