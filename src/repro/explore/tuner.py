"""The AMOS tuner: enumerate mappings, explore schedules, measure the best.

``Tuner.tune`` is the operational core of the compiler: it enumerates all
valid mappings for the operator on the target's intrinsics, runs the
genetic search with the analytic model as fitness, measures the
model-selected top candidates on the cycle simulator, and returns the best
measured (mapping, schedule) pair with its exploration history — the
history is what Fig 5's model-validation curves are drawn from.

Every model prediction and simulator measurement flows through one
:class:`~repro.engine.engine.EvaluationEngine` per tune run: the
prefilter, the genetic search (:func:`genetic_search_rows`, whose
population is a :class:`~repro.schedule.features.ScheduleBatch`), the
measurement pass and the refinement rounds all submit *batches* of
schedule rows.  The engine memoizes by canonical candidate key and
evaluates in-process by default; with an opt-in ``TunerConfig.n_workers``
above 1 it evaluates large batches on a spawn-safe process pool — with
results reassembled in submission order, so the tuner's output is
byte-identical for any worker count and any cache temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.engine import EvaluationEngine
from repro.engine.faults import FaultPlan, FaultPolicy
from repro.engine.fingerprint import (
    computation_fingerprint,
    hardware_fingerprint,
    tuner_config_fingerprint,
)
from repro.explore.genetic import Candidate, GeneticConfig, genetic_search_rows
from repro.ir.compute import ReduceComputation
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import PhysicalMapping, lower_to_physical
from repro.model.hardware_params import HardwareParams
from repro.obs import metrics as _obs_metrics
from repro.obs.explore_log import ExploreLog, current_log, generation_stats, use_log
from repro.obs.logging import LEVELS, get_logger, log_level
from repro.obs.runlog import FlightRecorder, active_recorder
from repro.obs.trace import span as _obs_span
from repro.obs.trace import tracing_enabled as _obs_enabled
from repro.schedule.features import ScheduleBatch, schedules_from_rows, take_rows
from repro.schedule.lowering import ScheduledMapping, lower_schedule
from repro.schedule.space import MUTATE_UNIFORMS, ScheduleSpace, default_schedule

# Tuner progress goes through the structured logger (JSONL on stderr):
# silent at the WARNING library default, narrated at INFO (the CLI's
# default unless --quiet / REPRO_LOG_LEVEL says otherwise).
_log = get_logger("repro.tuner")


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

    ``n_workers`` / ``min_pool_batch`` / ``cache_dir`` are execution
    knobs: they control how fast the same answer is produced, never
    which answer.  Evaluation runs in-process by default
    (``n_workers=1``), the fastest configuration measured; the worker
    pool is opt-in: ``n_workers=N`` spawns ``N`` workers and
    ``n_workers=None`` one per CPU core (``os.cpu_count()``).  ``cache_dir`` opts into the persistent compile cache
    consulted by :func:`repro.compiler.amos_compile`.  There is one
    evaluation path: the population is a
    :class:`~repro.schedule.features.ScheduleBatch` scored by the
    engine's batch evaluators, and the scalar ``predict_latency`` /
    ``simulate_cycles`` remain only as the oracle the watchdog and the
    tests check it against.

    ``run_dir`` / ``divergence_rate`` are flight-recorder knobs (also
    execution-only, excluded from the budget fingerprint): ``run_dir``
    makes every compile/tune write a :class:`~repro.obs.runlog.RunRecord`
    manifest there; ``divergence_rate`` samples that fraction of the
    engine's evaluations back through the scalar oracle and records
    parity as ``engine.divergence.*`` metrics.

    ``eval_timeout_s`` / ``max_retries`` / ``retry_backoff_s`` are the
    fault-tolerance knobs (execution-only too — every recovery path
    re-runs the same pure evaluator): the per-batch pool deadline in
    seconds (``None`` disables it; dead workers are still detected), the
    retry budget per failing task before it is quarantined inline, and
    the base of the exponential retry backoff.  ``fault_plan`` injects
    deterministic faults (worker kills, hangs, raises, torn cache
    writes) — test harness only, never set it in production.
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
    min_pool_batch: int = 16
    cache_dir: str | None = None
    run_dir: str | None = None
    divergence_rate: float = 0.0
    eval_timeout_s: float | None = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    fault_plan: FaultPlan | None = None


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
class ExplorationResult:
    """Outcome of tuning one operator on one device.

    ``telemetry`` carries the run's :class:`~repro.obs.explore_log.ExploreLog`
    (funnel counts, GA convergence, model-vs-simulator samples) when
    observability was enabled during the run; ``None`` otherwise.
    """

    best: ScheduledMapping
    best_us: float
    trials: list[Trial]
    num_mappings: int
    telemetry: ExploreLog | None = None

    def best_gflops(self) -> float:
        flops = self.best.useful_flops()
        return flops / (self.best_us * 1e-6) / 1e9 if self.best_us > 0 else 0.0

    def summary(self) -> dict:
        """Plain-dict run summary: best latency/GFLOP/s, mapping and
        trial counts."""
        measured = sum(1 for t in self.trials if t.measured_us is not None)
        return {
            "best_us": self.best_us,
            "best_gflops": self.best_gflops(),
            "num_mappings": self.num_mappings,
            "num_trials": len(self.trials),
            "trials_measured": measured,
            "trials_predicted_only": len(self.trials) - measured,
        }


class Tuner:
    """Joint mapping x schedule tuner for one hardware target."""

    def __init__(self, hardware: HardwareParams, config: TunerConfig | None = None):
        self.hardware = hardware
        self.config = config or TunerConfig()

    # ------------------------------------------------------------------
    def candidate_mappings(self, comp: ReduceComputation) -> list[PhysicalMapping]:
        """All valid physical mappings across the target's intrinsics."""
        result: list[PhysicalMapping] = []
        with _obs_span("tuner.enumerate", operator=comp.name) as sp:
            for intrinsic in intrinsics_for_target(self.hardware.target):
                for mapping in enumerate_mappings(
                    comp, intrinsic, self.config.generation_options
                ):
                    result.append(lower_to_physical(mapping))
            sp.set(num_mappings=len(result))
        return result

    def _make_engine(
        self, comp: ReduceComputation, physical: list[PhysicalMapping]
    ) -> EvaluationEngine:
        return EvaluationEngine(
            comp,
            physical,
            self.hardware,
            n_workers=self.config.n_workers,
            min_pool_batch=self.config.min_pool_batch,
            divergence_rate=self.config.divergence_rate,
            fault_policy=FaultPolicy(
                eval_timeout_s=self.config.eval_timeout_s,
                max_retries=self.config.max_retries,
                backoff_s=self.config.retry_backoff_s,
            ),
            fault_plan=self.config.fault_plan,
        )

    def _prefilter_indices(
        self, engine: EvaluationEngine, physical: list[PhysicalMapping]
    ) -> list[int]:
        """Indices of the mappings the analytic model ranks best under a
        default schedule (paper Sec 5.3: the model filters inferior
        mappings); one batch prediction over every candidate mapping."""
        keep = self.config.prefilter_mappings
        if keep <= 0 or len(physical) <= keep:
            return list(range(len(physical)))
        with _obs_span("tuner.prefilter", candidates=len(physical), keep=keep):
            items = [(i, default_schedule(pm)) for i, pm in enumerate(physical)]
            # Row-keyed like every evaluation, so the GA's later seed
            # evaluations hit the same memo entries.
            costs = engine.predict_rows(*engine.encode_rows(items))
            _obs_metrics.counter("model.predictions").inc(len(items))
            scored = sorted(zip(costs, range(len(physical))), key=lambda pair: pair[0])
            return [int(i) for _, i in scored[:keep]]

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
                    num_trials=len(result.trials),
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
            # *terminates* it when the tune raises — joining a worker
            # that is wedged mid-task would hang the abort forever.
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
        # Model-guided mapping pre-filter: rank mappings under a default
        # heuristic schedule, keep the top few for the schedule search.
        # ``selected`` maps prefiltered positions back to engine indices.
        selected = self._prefilter_indices(engine, all_physical)
        selected_arr = np.asarray(selected, dtype=np.int64)
        physical = [all_physical[i] for i in selected]
        if log is not None:
            log.record_funnel("prefiltered", len(physical))
        _log.info(
            "prefilter done",
            operator=comp.name,
            kept=len(physical),
            candidates=len(all_physical),
        )

        # Distinct mappings that receive at least one simulator
        # measurement (the funnel's final stage).
        measured_mappings: set[int] = set()

        def record_measurement(
            mapping_index: int, predicted: float, measured: float
        ) -> None:
            measured_mappings.add(mapping_index)
            _obs_metrics.counter("tuner.measurements").inc()
            if log is not None:
                log.record_sample(predicted, measured)

        def fitness_rows(mapping_indices: np.ndarray, batch) -> np.ndarray:
            # The GA hands prefiltered-space indices; translate to engine
            # indices as one fancy-index, no per-candidate objects.
            _obs_metrics.counter("model.predictions").inc(len(batch))
            return engine.predict_rows(selected_arr[mapping_indices], batch)

        def measure_candidates(
            candidates: list[Candidate],
        ) -> list[tuple[float, float]]:
            items = [(selected[c.mapping_index], c.schedule) for c in candidates]
            if not items:
                return []
            predicted, measured = engine.measure_rows(*engine.encode_rows(items))
            return list(zip(predicted.tolist(), measured.tolist()))

        max_warps = (
            self.hardware.max_warps_per_subcore * self.hardware.subcores_per_core
        )
        spaces = [
            ScheduleSpace(pm, max_warps_per_block=max_warps) for pm in physical
        ]
        seeds = [
            Candidate(i, default_schedule(pm, max_warps_per_block=max_warps))
            for i, pm in enumerate(physical)
        ]
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
            ga_rows = genetic_search_rows(
                physical,
                fitness_rows,
                config=ga,
                seeds=seeds,
                spaces=spaces,
                on_generation=on_generation,
            )
            # Trial-boundary materialization: the only place the
            # exploration loop builds per-candidate objects.
            ranked = ga_rows.candidates(spaces)

        def measure_ranked(indices: list[int]) -> list[tuple[float, float]]:
            """Measure ranked candidates by rank index, as zero-copy row
            slices of the GA archive."""
            if not indices:
                return []
            rows = np.asarray(indices, dtype=np.int64)
            predicted, measured = engine.measure_rows(
                selected_arr[ga_rows.mapping_index[rows]],
                take_rows(ga_rows.batch, rows),
            )
            return list(zip(predicted.tolist(), measured.tolist()))

        # Measure on the "hardware": the model's global top plus the best
        # model-ranked candidate of every surviving mapping, so a mapping
        # the model slightly misranks still gets one real measurement.
        to_measure: list[int] = []
        seen_mappings: set[int] = set()
        for idx, (candidate, _) in enumerate(ranked):
            if idx < self.config.measure_top:
                to_measure.append(idx)
                seen_mappings.add(candidate.mapping_index)
            elif candidate.mapping_index not in seen_mappings:
                to_measure.append(idx)
                seen_mappings.add(candidate.mapping_index)
        measured_set = set(to_measure)

        trials: list[Trial] = []
        best: ScheduledMapping | None = None
        best_candidate: Candidate | None = None
        best_us = float("inf")

        # Canonical keys of candidates already measured this run, so the
        # seed safety net below never simulates (or double-counts in the
        # trials/telemetry) a candidate the ranked pass covered.
        measured_keys: set[tuple[int, str]] = set()

        _log.info(
            "measuring candidates", operator=comp.name, candidates=len(measured_set)
        )
        with _obs_span("tuner.measure", candidates=len(measured_set)):
            measured_results = measure_ranked(to_measure)
            measured_by_rank = dict(zip(to_measure, measured_results))
            for idx, (candidate, predicted) in enumerate(ranked):
                sched = lower_schedule(
                    physical[candidate.mapping_index], candidate.schedule
                )
                if idx in measured_set:
                    _, measured = measured_by_rank[idx]
                    measured_keys.add(
                        (candidate.mapping_index, candidate.schedule.describe())
                    )
                    record_measurement(candidate.mapping_index, predicted, measured)
                    trials.append(
                        Trial(sched, predicted, measured, candidate.mapping_index)
                    )
                    if measured < best_us:
                        best_us = measured
                        best = sched
                        best_candidate = candidate
                else:
                    trials.append(
                        Trial(sched, predicted, mapping_index=candidate.mapping_index)
                    )

            # Safety net: the default heuristic schedule of every mapping
            # is always measured, so a batch of model-favoured but
            # infeasible candidates cannot leave the tuner empty-handed.
            # Seeds the ranked pass already measured are skipped: their
            # values are known and re-appending them would double-count
            # measurements in the trials and telemetry.
            net = [
                seed_candidate
                for seed_candidate in seeds
                if (
                    seed_candidate.mapping_index,
                    seed_candidate.schedule.describe(),
                )
                not in measured_keys
            ]
            for seed_candidate, (predicted, measured) in zip(
                net, measure_candidates(net)
            ):
                record_measurement(seed_candidate.mapping_index, predicted, measured)
                sched = lower_schedule(
                    physical[seed_candidate.mapping_index], seed_candidate.schedule
                )
                trials.append(
                    Trial(sched, predicted, measured, seed_candidate.mapping_index)
                )
                if measured < best_us:
                    best_us = measured
                    best = sched
                    best_candidate = seed_candidate
        if best is None or best_candidate is None:
            raise RuntimeError(f"no feasible schedule found for {comp.name}")

        # Measured refinement rounds: AMOS's tuning loop alternates model-
        # guided proposal with hardware measurement over many rounds; here
        # the top measured candidates are hill-climbed for a few rounds
        # each.  A round draws all its neighbors from the round's starting
        # point and measures them as one batch, then steps to the round's
        # best improvement — deterministic for any worker count.
        measured_trials = sorted(
            (t for t in trials if t.measured_us is not None),
            key=lambda t: t.measured_us,
        )
        seeds_for_refine: list[tuple[Candidate, float]] = []
        seen: set[int] = set()
        for trial in measured_trials:
            mi = trial.mapping_index
            if mi in seen:
                continue
            seen.add(mi)
            seeds_for_refine.append(
                (Candidate(mi, trial.scheduled.schedule), trial.measured_us)
            )
            if len(seeds_for_refine) >= 4:
                break

        # One uniform matrix per refinement round, from a dedicated seeded
        # generator, decoded by the space's column ops (bit-identical to
        # the scalar ``mutate_with_uniforms`` twin).
        rng = np.random.default_rng(self.config.seed + 1)
        _log.info(
            "refining",
            operator=comp.name,
            starts=len(seeds_for_refine),
            rounds=self.config.refine_rounds,
        )
        with _obs_span("tuner.refine", starts=len(seeds_for_refine)):
            for start_candidate, start_us in seeds_for_refine:
                current, current_us = start_candidate, start_us
                for _ in range(self.config.refine_rounds):
                    # The same hardware-capped spaces the GA sampled from:
                    # hill-climbing must not mutate into schedules that
                    # exceed the device's warp budget.
                    space = spaces[current.mapping_index]
                    k = self.config.refine_neighbors
                    u = rng.random((k, MUTATE_UNIFORMS))
                    engine_mi = selected[current.mapping_index]
                    _, cur = engine.encode_rows([(engine_mi, current.schedule)])
                    base = take_rows(cur, np.zeros(k, dtype=np.int64))
                    warp, seq, stage, db, un, ve = space.mutate_columns(
                        base.warp,
                        base.seq,
                        base.reduce_stage,
                        base.double_buffer,
                        base.unroll,
                        base.vectorize,
                        u,
                    )
                    nb_batch = ScheduleBatch(
                        warp=warp,
                        seq=seq,
                        reduce_stage=stage,
                        double_buffer=db,
                        unroll=un,
                        vectorize=ve,
                    )
                    predicted_arr, measured_arr = engine.measure_rows(
                        np.full(k, engine_mi, dtype=np.int64), nb_batch
                    )
                    # Every neighbor becomes a Trial, so this decode is
                    # the trial boundary, not a per-candidate loop.
                    neighbors = [
                        Candidate(current.mapping_index, sch)
                        for sch in schedules_from_rows(space.spatial_names, nb_batch)
                    ]
                    results = zip(predicted_arr.tolist(), measured_arr.tolist())
                    improved = False
                    for neighbor, (predicted, measured) in zip(neighbors, results):
                        record_measurement(
                            neighbor.mapping_index, predicted, measured
                        )
                        sched = lower_schedule(
                            physical[neighbor.mapping_index], neighbor.schedule
                        )
                        trials.append(
                            Trial(sched, predicted, measured, neighbor.mapping_index)
                        )
                        if measured < current_us:
                            current_us = measured
                            current = neighbor
                            improved = True
                        if measured < best_us:
                            best_us = measured
                            best = sched
                    if not improved:
                        break

        if log is not None:
            log.record_funnel("measured", len(measured_mappings))
        _log.info(
            "tune done",
            operator=comp.name,
            best_us=best_us,
            mappings=len(physical),
            trials=len(trials),
        )
        tune_span.set(best_us=best_us, num_mappings=len(physical))
        return ExplorationResult(
            best=best,
            best_us=best_us,
            trials=trials,
            num_mappings=len(physical),
            telemetry=log,
        )
