"""Array-native exploration: one row path, checked against its oracles.

The GA's native currency is a :class:`ScheduleBatch` plus a mapping-index
vector; the scalar evaluators (``predict_latency`` / ``simulate_cycles``)
are kept as bit-identity *oracles*, not alternatives.  These tests
enforce the contract end to end:

* ``genetic_search_rows`` reproduces golden trajectories
  (``tests/data/ga_trajectories.json``: ranked rows, costs, tie-break
  order and per-generation telemetry under a fixed model-free cost)
  recorded from the per-candidate object GA it replaced, across seeds;
* ``random_search`` scores all its draws in one row call, ranked as
  per-row scoring ranks them;
* the engine's ``predict_rows`` / ``measure_rows`` equal the scalar
  oracle bit for bit, the object adapters ``predict_many`` /
  ``measure_many`` canonicalise schedules before keying (a schedule
  with a split left out measures as its canonical form and shares its
  memo entry), and the row-key scheme is invariant to joint-width
  padding;
* a full ``Tuner.tune`` reproduces golden results (best latency,
  mapping, schedule, trial count, a digest of every trial) recorded
  before the object paths were removed, on three devices at
  n_workers 1 and 4, with pinned cache counters, and a default tune
  decodes and lowers only its best row (``.trials`` decodes the rest of
  the trial table on first read);
* the ``scalar_parity`` fixture (``conftest.py``) finds zero
  batch-vs-scalar mismatches in the rows the engine evaluates, inline
  and pooled, and samples a pinned number of candidates per rate;
* property-based: every row produced by ``SpaceTable.sample`` /
  ``SpaceTable.mutate`` decodes to a schedule the space ``accepts``, on
  every registered device's intrinsics, and each row of a mixed-mapping
  batch equals its own space's scalar twin.
"""

import dataclasses
import hashlib
import json
import pathlib
import random
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from conftest import candidate_keys
from repro.engine import EvaluationEngine, reset_compile_caches
from repro.explore.genetic import GAResult, GeneticConfig, genetic_search_rows
from repro.explore.random_search import random_search
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model.hardware_params import get_hardware, list_hardware
from repro.model.perf_model import predict_latency
from repro.schedule.features import (
    MappingTable,
    ScheduleBatch,
    encode_rows,
    row_keys,
    schedules_from_rows,
    take_rows,
)
from repro.schedule.lowering import lower_schedule
from repro.schedule.schedule import DimSplit
from repro.schedule.space import (
    MUTATE_UNIFORMS,
    ScheduleSpace,
    SpaceTable,
    default_rows,
    default_schedule,
)
from repro.sim.batch_timing import batch_simulate
from repro.sim.timing import simulate_cycles


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    reset_compile_caches()
    yield
    obs.disable()
    obs.reset()
    reset_compile_caches()


def _mappings_for(hw, comp, limit=3):
    physical = [
        lower_to_physical(m)
        for intr in intrinsics_for_target(hw.target)
        for m in enumerate_mappings(comp, intr, GenerationOptions())
    ]
    assert physical, f"no mappings of {comp.name} on {hw.target}"
    return physical[:limit]


def _ga_context(hw_name="v100", op="GMM", **params):
    hw = get_hardware(hw_name)
    comp = make_operator(op, **(params or dict(m=64, n=64, k=64)))
    physical = _mappings_for(hw, comp)
    max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
    spaces = [ScheduleSpace(pm, max_warps_per_block=max_warps) for pm in physical]
    seed_rows = (
        np.arange(len(physical), dtype=np.int64),
        encode_rows(
            [space.spatial_names for space in spaces],
            [default_schedule(pm, max_warps_per_block=max_warps) for pm in physical],
        ),
    )
    return hw, comp, physical, spaces, seed_rows


def _row_cost(mapping_index, batch):
    """The goldens' fixed, model-free cost.  Integer-valued, so ties
    occur and the stable tie-break is pinned; identity padding columns
    add nothing."""
    tiles = (batch.warp * batch.seq - 1).sum(axis=1)
    return (
        np.abs(tiles - 12)
        + batch.reduce_stage
        + batch.unroll
        + batch.vectorize // 2
        + mapping_index
        + batch.double_buffer
    ).astype(np.float64)


def _ranked(result):
    """A GA result as the goldens' ranked entries: ``[mapping_index,
    warp row, seq row, [reduce_stage, double_buffer, unroll, vectorize],
    cost]``, cost-ascending."""
    b = result.batch
    return [
        [
            mi,
            b.warp[i].tolist(),
            b.seq[i].tolist(),
            [
                int(b.reduce_stage[i]),
                bool(b.double_buffer[i]),
                int(b.unroll[i]),
                int(b.vectorize[i]),
            ],
            cost,
        ]
        for i, (mi, cost) in enumerate(
            zip(result.mapping_index.tolist(), result.costs.tolist())
        )
    ]


GA_TRAJECTORIES = pathlib.Path(__file__).parent / "data" / "ga_trajectories.json"


def _golden_run(seed, seed_rows):
    runs = json.loads(GA_TRAJECTORIES.read_text())["runs"]
    (run,) = [
        r for r in runs if (r["seed"], r["seed_rows"]) == (seed, seed_rows)
    ]
    return run


# ----------------------------------------------------------------------
# GA: golden trajectories
# ----------------------------------------------------------------------
class TestGeneticRowsOracle:
    """``genetic_search_rows`` against ``tests/data/ga_trajectories.json``:
    four runs (population 8, 3 generations, GMM 64^3 on V100, three
    mappings) under :func:`_row_cost`, recorded from the per-candidate
    object GA this loop replaced, which decoded the same uniform
    matrices with the scalar twins.  Each run pins the ranked archive
    (rows, costs and tie order) and the per-generation telemetry."""

    def _run(self, seed, with_seeds=True):
        _, _, physical, spaces, seed_rows = _ga_context()
        generations = []
        result = genetic_search_rows(
            physical,
            _row_cost,
            GeneticConfig(population=8, generations=3, seed=seed),
            seeds=seed_rows if with_seeds else None,
            spaces=SpaceTable.of_spaces(spaces),
            on_generation=lambda g, f, u: generations.append([g, f, u]),
        )
        return result, generations

    def _check_golden(self, seed, with_seeds):
        result, generations = self._run(seed, with_seeds)
        golden = _golden_run(seed, with_seeds)
        assert _ranked(result) == golden["ranked"]
        # Per-generation telemetry (fitnesses + diversity) agrees too:
        # the search walked the recorded populations in the same order.
        assert generations == golden["generations"]
        # A cost tie in every golden, so the stable tie-break is pinned.
        costs = [entry[-1] for entry in golden["ranked"]]
        assert len(set(costs)) < len(costs)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_identical_ranking_across_seeds(self, seed):
        """Same evaluated set, same costs, same stable tie-break order as
        recorded — not approximately, identically."""
        self._check_golden(seed, with_seeds=True)

    def test_result_sorted_and_sized(self):
        result, _ = self._run(seed=5)
        assert isinstance(result, GAResult)
        costs = result.costs.tolist()
        assert costs == sorted(costs)
        assert result.mapping_index.shape[0] == len(result.batch) == len(result)

    def test_without_seed_candidates(self):
        """A fully random initial population (no injected seed rows)
        follows the recorded uniform-matrix protocol too."""
        self._check_golden(2, with_seeds=False)

    def test_empty_mappings_rejected(self):
        with pytest.raises(ValueError, match="no mappings"):
            genetic_search_rows([], lambda mi, b: np.zeros(0))

    def test_space_count_mismatch_rejected(self):
        _, _, physical, spaces, _ = _ga_context()
        with pytest.raises(ValueError, match="one schedule space per mapping"):
            genetic_search_rows(
                physical,
                lambda mi, b: np.zeros(len(b)),
                spaces=SpaceTable.of_spaces(spaces[:1]),
            )

    def test_bad_fitness_rows_length_rejected(self):
        _, _, physical, spaces, seed_rows = _ga_context()
        with pytest.raises(ValueError, match="fitness_rows returned"):
            genetic_search_rows(
                physical,
                lambda mi, b: np.zeros(len(b) + 1),
                GeneticConfig(population=4, generations=1),
                seeds=seed_rows,
                spaces=SpaceTable.of_spaces(spaces),
            )


# ----------------------------------------------------------------------
# Engine row entry points
# ----------------------------------------------------------------------
class TestEngineRowPath:
    def _items(self, hw, comp, physical, count=12):
        rng = random.Random(17)
        max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
        items = []
        for mi, pm in enumerate(physical):
            space = ScheduleSpace(pm, max_warps_per_block=max_warps)
            items += [(mi, space.sample(rng)) for _ in range(count)]
        rng.shuffle(items)
        return items

    def test_rows_equal_objects_bitwise(self):
        """Rows through the engine equal the scalar oracle run on the
        schedule objects they encode."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical)
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            mi_arr, batch = engine.encode_rows(items)
            row_pred = engine.predict_rows(mi_arr, batch)
            row_p, row_m = engine.measure_rows(mi_arr, batch)
        lowered = [lower_schedule(physical[mi], sched) for mi, sched in items]
        obj_pred = [predict_latency(sm, hw).total_us for sm in lowered]
        obj_meas = [simulate_cycles(sm, hw).total_us for sm in lowered]
        assert row_pred.tolist() == obj_pred
        assert row_p.tolist() == obj_pred
        assert row_m.tolist() == obj_meas

    def test_measure_many_canonicalises_a_missing_split(self):
        """The simulator's jitter is keyed by ``describe()``, so a
        schedule that leaves a spatial split out would measure
        differently from its canonical form if it were keyed as is.  The
        object adapter canonicalises first: it measures exactly the
        canonical schedule, the canonical row measures the same bits, and
        each call counts its one row on ``engine.rows``."""
        hw, comp, physical, _, _ = _ga_context()
        pm = physical[0]
        name = ScheduleSpace(pm).spatial_names[0]
        full = default_schedule(pm)
        stripped = dataclasses.replace(
            full, splits={k: v for k, v in full.splits.items() if k != name}
        )
        canonical = dataclasses.replace(
            stripped, splits={**stripped.splits, name: DimSplit(1, 1)}
        )
        assert stripped.describe() != canonical.describe()
        sm = lower_schedule(pm, canonical)
        obs.enable()
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            [(predicted, measured)] = engine.measure_many([(0, stripped)])
            assert predicted == predict_latency(sm, hw).total_us
            assert measured == simulate_cycles(sm, hw).total_us
            rows = obs.get_registry().counter("engine.rows")
            assert rows.value == 1
            mi_arr, batch = engine.encode_rows([(0, canonical)])
            rows_p, rows_m = engine.measure_rows(mi_arr, batch)
            assert rows.value == 2
        assert (rows_p.tolist(), rows_m.tolist()) == ([predicted], [measured])

    def test_row_keys_invariant_to_joint_padding(self):
        """A row must not depend on which batch it rides in: padding the
        batch with extra identity-split columns (as a joint population
        does for narrower mappings) keeps its content key and its
        evaluated bits equal."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=4)
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            mi_arr, batch = engine.encode_rows(items)
            pad = np.ones((len(batch), 2), dtype=np.int64)
            padded = ScheduleBatch(
                warp=np.hstack([batch.warp, pad]),
                seq=np.hstack([batch.seq, pad]),
                reduce_stage=batch.reduce_stage,
                double_buffer=batch.double_buffer,
                unroll=batch.unroll,
                vectorize=batch.vectorize,
            )
            assert candidate_keys(engine, mi_arr, batch) == candidate_keys(
                engine, mi_arr, padded
            )
            plain = engine.measure_rows(mi_arr, batch)
            wide = engine.measure_rows(mi_arr, padded)
        assert [a.tolist() for a in plain] == [b.tolist() for b in wide]

    def test_rows_and_objects_share_the_memo(self):
        """Objects and their rows are one candidate: a predict_rows pass
        after predict_many of the same candidates returns the same bits,
        and each pass evaluates (and counts) every row again."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=6)
        obs.enable()
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            first = engine.predict_many(items)
            before = obs.get_registry().counter("engine.rows").value
            mi_arr, batch = engine.encode_rows(items)
            second = engine.predict_rows(mi_arr, batch)
            after = obs.get_registry().counter("engine.rows").value
        assert first == second.tolist()
        assert before == after - before == len(items)

    def test_pooled_rows_equal_inline_rows(self, pool_every_batch):
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=10)
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            mi_arr, batch = engine.encode_rows(items)
            inline = engine.measure_rows(mi_arr, batch)
        with EvaluationEngine(comp, physical, hw, n_workers=4) as engine:
            mi_arr, batch = engine.encode_rows(items)
            pooled = engine.measure_rows(mi_arr, batch)
        assert inline[0].tolist() == pooled[0].tolist()
        assert inline[1].tolist() == pooled[1].tolist()

    def test_row_watchdog_zero_mismatches(self, scalar_parity):
        """Every evaluated row re-checked through the scalar oracle, zero
        mismatches."""
        hw, comp, physical, _, _ = _ga_context()
        items = self._items(hw, comp, physical, count=8)
        parity = scalar_parity(1.0)
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            mi_arr, batch = engine.encode_rows(items)
            engine.measure_rows(mi_arr, batch)
        assert parity.checked == len(items)
        assert parity.mismatches == []


# ----------------------------------------------------------------------
# Tuner: golden results recorded before the object paths were removed
# ----------------------------------------------------------------------
QUICK = dict(
    population=8,
    generations=3,
    measure_top=8,
    prefilter_mappings=8,
    refine_rounds=1,
    refine_neighbors=4,
)

DEVICES = [
    ("v100", dict(m=64, n=64, k=64)),
    ("mali_g76", dict(m=32, n=32, k=32)),
    ("xeon_4110", dict(m=32, n=32, k=32)),
]

#: Per device at the QUICK budget: best_us, best mapping and schedule
#: describe(), num_mappings, trial count, and the sha256 of
#: ``repr(_manifest(result))``.  Recorded while the describe-keyed object
#: engine path and the object GA loop still existed (identical for both
#: loops and for n_workers 1 and 4), so any drift of the one remaining
#: path fails here.
GOLDEN = {
    "v100": (
        3.8424070385118965,
        "[i1, i2, r1] <- [(i) mod 16, (j) mod 16, (k) mod 16]",
        "t_i1: warp=2 seq=1; t_i2: warp=2 seq=1; reduce_stage=4; "
        "double_buffer=True; unroll=1 vectorize=4",
        3,
        31,
        "2aa22116f3ee1fe7cff70c0da2476915c628747966a93d6d2361de047a82b5b6",
    ),
    "mali_g76": (
        10.226575632095058,
        "[i1, r1] <- [(j) mod 4, (k) mod 4]",
        "o_i: warp=2 seq=2; t_i1: warp=2 seq=2; reduce_stage=2; "
        "double_buffer=False; unroll=2 vectorize=2",
        2,
        30,
        "9ddbb5b7c92530edafe645995eab9257c972d345e08d6df0b4f0579d9048ae48",
    ),
    "xeon_4110": (
        1.0906943325557017,
        "[i1, r1] <- [(j) mod 16, (k) mod 4]",
        "o_i: warp=1 seq=8; t_i1: warp=1 seq=1; reduce_stage=4; "
        "double_buffer=True; unroll=4 vectorize=2",
        1,
        28,
        "b68b16d9688ebf64d7e523b66a69578342a348f31e3671bf71254a372055bdab",
    ),
}


def _manifest(result):
    """Everything a run manifest derives from: best candidate, funnel
    width, and every trial's (mapping, schedule, predicted, measured)."""
    return {
        "best_us": result.best_us,
        "best_mapping": result.best.physical.compute.describe(),
        "best_schedule": result.best.schedule.describe(),
        "num_mappings": result.num_mappings,
        "trials": [
            (
                t.mapping_index,
                t.scheduled.schedule.describe(),
                t.predicted_us,
                t.measured_us,
            )
            for t in result.trials
        ],
    }


def _tune(hw_name, params, **overrides):
    config = TunerConfig(n_workers=1, **QUICK)
    config = dataclasses.replace(config, **overrides)
    return Tuner(get_hardware(hw_name), config).tune(
        make_operator("GMM", **params)
    )


#: Rows ``scalar_parity`` checks in a v100 tune at the QUICK budget, per
#: sampling rate (the crc32 sample of the candidate keys is
#: deterministic, so the count is too).  Every row the engine evaluates
#: is seen, repeats included: at rate 1.0 the count is the tune's
#: ``engine.rows``.
WATCHDOG_CHECKED = {0.0: 0, 0.25: 16, 1.0: 39}


def _golden(result):
    manifest = _manifest(result)
    digest = hashlib.sha256(repr(manifest).encode()).hexdigest()
    return (
        result.best_us,
        manifest["best_mapping"],
        manifest["best_schedule"],
        result.num_mappings,
        len(result.trials),
        digest,
    )


@pytest.mark.usefixtures("pool_every_batch")
class TestTunerGaArrays:
    """The array-native GA tune (rows from prefilter to refinement) must
    reproduce the results recorded while the object GA ran beside it.
    The pool is the one execution knob left: inline and pooled engines
    (every batch on the pool) give the same answer, counters and
    scalar-parity sample."""

    @pytest.mark.parametrize("hw_name,params", DEVICES)
    def test_identity_on_three_devices(self, hw_name, params):
        assert _golden(_tune(hw_name, params)) == GOLDEN[hw_name]

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_identity_for_worker_counts(self, n_workers):
        """n_workers is an execution knob: every device gives its golden
        result with every engine batch inline or pooled."""
        for hw_name, params in DEVICES:
            got = _golden(_tune(hw_name, params, n_workers=n_workers))
            assert got == GOLDEN[hw_name], hw_name

    def test_cache_counters_equivalent(self):
        """The engine telemetry is part of the result: the pool changes
        nothing about how many batches and rows the engine evaluates."""
        counters = {}
        for n_workers in (1, 4):
            obs.reset()
            obs.enable()
            _tune("v100", DEVICES[0][1], n_workers=n_workers)
            registry = obs.get_registry()
            counters[n_workers] = (
                sum(s.name == "engine.batch" for s in obs.get_tracer().spans()),
                registry.counter("engine.rows").value,
                registry.counter("model.predictions").value,
                registry.counter("tuner.measurements").value,
            )
            obs.disable()
        assert counters[1] == counters[4] == (9, 39, 19, 20)

    @pytest.mark.parametrize("rate", sorted(WATCHDOG_CHECKED))
    def test_watchdog_parity_across_modes(self, rate, scalar_parity):
        """Inline and pooled, the parity check samples the same pinned
        number of candidates at each rate and never mismatches."""
        for n_workers in (1, 4):
            parity = scalar_parity(rate)
            _tune("v100", DEVICES[0][1], n_workers=n_workers)
            assert parity.checked == WATCHDOG_CHECKED[rate], n_workers
            assert parity.mismatches == [], n_workers

    def test_default_tune_decodes_rows_only_into_trials(self, monkeypatch):
        """A default C2D tune on V100 runs on rows from the prefilter to
        the trial table: no schedule is encoded into rows, no default
        schedule object is built, no ``describe()`` string is rendered,
        and only the best row is decoded and lowered — one
        ``schedules_from_rows`` and one ``lower_schedule`` call.  The
        first ``.trials`` read decodes every row once, with at most one
        ``schedules_from_rows`` call per (chunk, mapping); a second read
        decodes nothing."""
        import repro.explore.genetic as genetic_mod
        import repro.explore.tuner as tuner_mod
        import repro.schedule.features as features_mod
        import repro.schedule.space as space_mod
        from repro.schedule.schedule import Schedule

        objects = []

        def count(owner, name):
            original = getattr(owner, name, None)
            if original is None:
                return

            def spy(*args, **kwargs):
                objects.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        for owner in (features_mod, genetic_mod, tuner_mod, EvaluationEngine):
            count(owner, "encode_rows")
        for owner in (space_mod, tuner_mod):
            count(owner, "default_schedule")
        count(Schedule, "describe")

        decodes = []
        decode = features_mod.schedules_from_rows

        def spy_decode(names, batch, indices=None):
            rows = range(len(batch)) if indices is None else indices
            decodes.append((batch, [int(i) for i in rows]))
            return decode(names, batch, indices)

        for owner in (features_mod, genetic_mod, tuner_mod):
            if hasattr(owner, "schedules_from_rows"):
                monkeypatch.setattr(owner, "schedules_from_rows", spy_decode)
        lowered = []
        lower = tuner_mod.lower_schedule

        def spy_lower(physical, schedule):
            lowered.append(schedule)
            return lower(physical, schedule)

        monkeypatch.setattr(tuner_mod, "lower_schedule", spy_lower)

        result = Tuner(get_hardware("v100"), TunerConfig(n_workers=1)).tune(
            make_operator("C2D", n=1, c=16, k=16, h=8, w=8)
        )
        assert objects == []
        assert result.best_us == 4.419631862666752
        assert [len(rows) for _, rows in decodes] == [1]
        assert len(lowered) == 1
        assert result.best.schedule == lowered[0]

        decodes.clear()
        lowered.clear()
        trials = result.trials
        assert len(trials) == 255
        assert len(lowered) == 255
        assert result.trials is trials  # cached: a second read decodes nothing
        assert len(lowered) == 255

        # Group the decode calls by batch, in first-call order: a batch's
        # rows are the next run of trials.
        calls_of: dict[int, list[list[int]]] = {}
        for batch, rows in decodes:
            calls_of.setdefault(id(batch), []).append(rows)
        offset = 0
        for calls in calls_of.values():
            decoded = sorted(row for rows in calls for row in rows)
            assert decoded == list(range(len(decoded)))
            batch_trials = trials[offset : offset + len(decoded)]
            assert len(calls) <= len({t.mapping_index for t in batch_trials})
            offset += len(decoded)
        assert offset == len(trials)

    def test_run_dir_tune_and_summary_decode_only_the_best_row(
        self, monkeypatch, tmp_path
    ):
        """A flight-recorded tune and its ``summary()`` count trials from
        the trial table: only the best row is decoded and lowered, and
        ``.trials`` is never built."""
        import repro.explore.tuner as tuner_mod

        calls = []
        for name in ("schedules_from_rows", "lower_schedule"):

            def spy(*args, _name=name, _original=getattr(tuner_mod, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(tuner_mod, name, spy)
        config = TunerConfig(n_workers=1, run_dir=str(tmp_path), **QUICK)
        result = Tuner(get_hardware("v100"), config).tune(
            make_operator("GMM", **DEVICES[0][1])
        )
        summary = result.summary()
        assert calls == ["schedules_from_rows", "lower_schedule"]
        assert "trials" not in vars(result)
        (manifest,) = tmp_path.glob("run_*.json")
        outcome = json.loads(manifest.read_text())["outcome"]
        assert outcome["num_trials"] == summary["num_trials"] == GOLDEN["v100"][4]
        measured = sum(t.measured_us is not None for t in result.trials)
        assert summary["trials_measured"] == measured

    def test_ga_seed_rows_are_prefilter_memo_hits(self, monkeypatch):
        """With more mappings than the prefilter keeps (105 > 24), the
        GA's generation-0 seed rows — each kept mapping's default
        schedule, padded to the population's joint width — are rows the
        prefilter ranked, evaluated again to the prefilter's bits, and
        each keys like the same schedule encoded alone, unpadded: padded
        GA rows and encoded rows are one candidate."""
        calls = []
        evaluate = EvaluationEngine._evaluate_rows

        def spy(self, mapping_indices, batch, measure):
            mapping_indices = np.asarray(mapping_indices, dtype=np.int64)
            keys = candidate_keys(self, mapping_indices, batch)
            result = evaluate(self, mapping_indices, batch, measure)
            calls.append((self, mapping_indices, batch, keys, result[0].tolist()))
            return result

        monkeypatch.setattr(EvaluationEngine, "_evaluate_rows", spy)
        config = TunerConfig(
            n_workers=1, generations=1, measure_top=4, refine_rounds=0
        )
        comp = make_operator("C2D", n=1, c=16, k=16, h=8, w=8)
        result = Tuner(get_hardware("v100"), config).tune(comp)
        kept = config.prefilter_mappings
        assert result.num_mappings == kept

        _, _, _, prefilter_keys, prefilter_us = calls[0]
        assert len(prefilter_keys) > kept
        engine, ga_mi, ga_batch, ga_keys, ga_us = calls[1]
        seeds = min(kept, config.population)
        ranked = dict(zip(prefilter_keys, prefilter_us))
        assert [ranked[key] for key in ga_keys[:seeds]] == ga_us[:seeds]
        padded = 0
        for i in range(seeds):
            names = engine.table.spatial_names(int(ga_mi[i]))
            padded += len(names) < ga_batch.warp.shape[1]
            (schedule,) = schedules_from_rows(names, ga_batch, [i])
            alone = candidate_keys(
                engine, *engine.encode_rows([(int(ga_mi[i]), schedule)])
            )
            assert alone == [ga_keys[i]]
        assert padded  # some seed row is narrower than the population

    def test_xeon_prefilter_rows_fit_the_device(self, monkeypatch):
        """On xeon_4110 (a 2-warp cap) the prefilter ranks default rows
        under the device's own warp budget: every row it ranks is
        feasible under ``batch_simulate``, and the GA's seed rows are
        rows it ranked, evaluated again to its bits.  A 4-warp budget
        would make every Xeon default row infeasible and no seed one of
        the ranked rows."""
        calls = []
        evaluate = EvaluationEngine._evaluate_rows

        def spy(self, mapping_indices, batch, measure):
            mapping_indices = np.asarray(mapping_indices, dtype=np.int64)
            keys = candidate_keys(self, mapping_indices, batch)
            result = evaluate(self, mapping_indices, batch, measure)
            calls.append((self, mapping_indices, batch, keys, result[0].tolist()))
            return result

        monkeypatch.setattr(EvaluationEngine, "_evaluate_rows", spy)
        hw = get_hardware("xeon_4110")
        config = TunerConfig(
            n_workers=1,
            generations=1,
            measure_top=4,
            refine_rounds=0,
            prefilter_mappings=2,
        )
        comp = make_operator("C2D", n=1, c=16, k=16, h=8, w=8)
        result = Tuner(hw, config).tune(comp)
        kept = config.prefilter_mappings
        assert result.num_mappings == kept

        engine, prefilter_mi, prefilter_batch, prefilter_keys, prefilter_us = calls[0]
        assert len(prefilter_keys) > kept
        timing = batch_simulate(engine.table, prefilter_mi, prefilter_batch, hw)
        assert np.isfinite(timing.total_us).all()

        _, _, _, ga_keys, ga_us = calls[1]
        seeds = min(kept, config.population)
        ranked = dict(zip(prefilter_keys, prefilter_us))
        assert [ranked[key] for key in ga_keys[:seeds]] == ga_us[:seeds]
        assert int(prefilter_batch.warp.prod(axis=1).max()) <= (
            hw.max_warps_per_subcore * hw.subcores_per_core
        )


class TestDefaultRows:
    def test_default_rows_key_like_default_schedule(self):
        """The prefilter's array default rows key exactly like
        ``encode_rows`` of each mapping's ``default_schedule``, for every
        enumerated mapping of the Table 6 operators on every shipped
        device: under the prefilter's 4-warp budget and under the
        device's own warp budget (the GA seeds')."""
        benchmarks = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
        sys.path.insert(0, benchmarks)
        try:
            from bench_table6_mapping_counts import PAPER_COUNTS, SMALL_PARAMS
        finally:
            sys.path.remove(benchmarks)
        operators = [make_operator(code, **SMALL_PARAMS[code]) for code in PAPER_COUNTS]
        for hw_name in list_hardware():
            hw = get_hardware(hw_name)
            physical = [
                lower_to_physical(m)
                for intr in intrinsics_for_target(hw.target)
                for comp in operators
                for m in enumerate_mappings(comp, intr)
            ]
            table = MappingTable(physical)
            rows = np.arange(len(physical))
            names = [table.spatial_names(m) for m in range(len(physical))]

            def keys(batch):
                return row_keys(
                    rows,
                    batch,
                    lambda m: m.to_bytes(8, "little"),
                    lambda m: int(table.n_spatial[m]),
                )

            max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
            for budget in (4, max_warps):
                objects = [
                    default_schedule(pm, max_warps_per_block=budget) for pm in physical
                ]
                assert keys(default_rows(table, budget)) == keys(
                    encode_rows(names, objects)
                ), (hw_name, budget)


# ----------------------------------------------------------------------
# Property: space-table ops stay inside the space
# ----------------------------------------------------------------------
PROPERTY_CASES = [
    ("v100", "GMM", dict(m=64, n=64, k=64)),
    ("a100", "GMM", dict(m=128, n=64, k=64)),
    ("xeon_4110", "GMM", dict(m=32, n=32, k=32)),
    ("mali_g76", "GMM", dict(m=32, n=32, k=32)),
    ("axpy_accel", "C3D", dict(n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)),
    ("gemv_accel", "GMV", dict(m=64, k=64)),
    ("conv_accel", "C3D", dict(n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)),
]

_SPACE_CACHE = {}


def _space_for(case):
    if case not in _SPACE_CACHE:
        hw_name, op, params = PROPERTY_CASES[case]
        hw = get_hardware(hw_name)
        comp = make_operator(op, **params)
        pm = _mappings_for(hw, comp, limit=1)[0]
        _SPACE_CACHE[case] = ScheduleSpace(
            pm,
            max_warps_per_block=hw.max_warps_per_subcore * hw.subcores_per_core,
        )
    return _SPACE_CACHE[case]


def _stub_space(reduce_extent, max_warps_per_block):
    """A space over a mapping with no spatial macro dim (one unmapped
    reduce iteration) — no registered intrinsic yields one, but the
    table interface must still fall through to the knob branches."""
    reduce_iter = types.SimpleNamespace(name="k", extent=reduce_extent, is_reduce=True)
    physical = types.SimpleNamespace(splits=(), outer_iters=(reduce_iter,))
    return ScheduleSpace(physical, max_warps_per_block=max_warps_per_block)


def _one_space_ops(space, u, mu):
    """One space's table: sample ``u`` then mutate the samples by ``mu``."""
    table = SpaceTable.of_spaces([space])
    mi = np.zeros(len(u), dtype=np.int64)
    batch = table.sample(mi, u)
    return batch, table.mutate(mi, batch, mu)


class TestColumnOpsStayInSpace:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, len(PROPERTY_CASES) - 1),
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 8),
    )
    def test_sampled_and_mutated_rows_are_accepted(self, case, seed, rows):
        """Every intrinsic kind (wmma, AVX-512, Mali dot, vaxpy, vgemv,
        vconv): table samples and their mutations all decode to
        schedules inside the space's drawing domains."""
        space = _space_for(case)
        rng = np.random.default_rng(seed)
        u = rng.random((rows, space.uniforms_per_sample))
        batch, mutated = _one_space_ops(space, u, rng.random((rows, MUTATE_UNIFORMS)))
        for rows_ in (batch, mutated):
            for schedule in schedules_from_rows(space.spatial_names, rows_):
                assert space.accepts(schedule)

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.integers(0, len(PROPERTY_CASES) - 1),
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 6),
    )
    def test_column_ops_match_scalar_twins(self, case, seed, rows):
        """The table decoders and their scalar twins read the same
        uniform rows to the same schedules — the protocol underneath
        every bit-identity claim in this file."""
        space = _space_for(case)
        rng = np.random.default_rng(seed)
        u = rng.random((rows, space.uniforms_per_sample))
        mu = rng.random((rows, MUTATE_UNIFORMS))
        batch, mutated = _one_space_ops(space, u, mu)
        vec = schedules_from_rows(space.spatial_names, batch)
        vec_mut = schedules_from_rows(space.spatial_names, mutated)
        for i in range(rows):
            assert vec[i].describe() == space.sample_with_uniforms(u[i]).describe()
            scalar = space.mutate_with_uniforms(vec[i], mu[i])
            assert vec_mut[i].describe() == scalar.describe()

    @settings(max_examples=40, deadline=None)
    @given(
        cases=st.lists(st.integers(0, len(PROPERTY_CASES)), min_size=2, max_size=4),
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 12),
    )
    def test_mixed_batch_rows_match_their_own_space(self, cases, seed, rows):
        """One ``sample`` / ``mutate`` call over a batch mixing mappings
        of different widths (narrow rows padded inside a wide batch) and
        a mapping without spatial dims (case ``len(PROPERTY_CASES)``):
        every row equals its own space's scalar twin on that row's own
        uniforms, and padding columns stay identity splits."""
        spaces = [
            _space_for(c) if c < len(PROPERTY_CASES) else _stub_space(12, 4)
            for c in cases
        ]
        table = SpaceTable.of_spaces(spaces)
        assert table.width == max(len(s.spatial_names) for s in spaces)
        rng = np.random.default_rng(seed)
        mi = rng.integers(0, len(spaces), rows)
        u = rng.random((rows, 2 * table.width + 4))
        mu = rng.random((rows, MUTATE_UNIFORMS))
        batch = table.sample(mi, u)
        mutated = table.mutate(mi, batch, mu)
        for i, m in enumerate(mi.tolist()):
            space = spaces[m]
            names = space.spatial_names
            (sampled,) = schedules_from_rows(names, batch, [i])
            assert sampled.describe() == space.sample_with_uniforms(u[i]).describe()
            (child,) = schedules_from_rows(names, mutated, [i])
            scalar = space.mutate_with_uniforms(sampled, mu[i])
            assert child.describe() == scalar.describe()
            for rows_ in (batch, mutated):
                assert rows_.warp[i, len(names) :].tolist() == [1] * (
                    table.width - len(names)
                )
                assert rows_.seq[i, len(names) :].tolist() == [1] * (
                    table.width - len(names)
                )


# ----------------------------------------------------------------------
# Satellites: describe memo, random_search on rows
# ----------------------------------------------------------------------
class TestDescribeMemo:
    def test_describe_is_rendered_once(self):
        hw, comp, physical, spaces, _ = _ga_context()
        schedule = spaces[0].sample(random.Random(1))
        first = schedule.describe()
        assert schedule.describe() is first  # memoized, not re-rendered

    def test_memo_survives_and_matches_fresh_render(self):
        hw, comp, physical, spaces, _ = _ga_context()
        schedule = spaces[0].sample(random.Random(2))
        twin = dataclasses.replace(schedule)
        assert schedule.describe() == twin.describe()


class TestRandomSearchFitnessMany:
    """``random_search`` draws every trial first, then scores all of
    them in one ``fitness_rows`` call."""

    def _setup(self):
        hw, comp, physical, _, _ = _ga_context()
        return hw, comp, physical

    def test_batch_path_matches_scalar_path(self):
        """One call over every row ranks exactly like scoring each row in
        its own 1-row call."""
        hw, comp, physical = self._setup()
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            per_row = random_search(
                physical,
                lambda mi, b: np.concatenate(
                    [engine.predict_rows(mi[i : i + 1], take_rows(b, [i])) for i in range(len(b))]
                ),
                trials=24,
                seed=9,
            )
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            batched = random_search(physical, engine.predict_rows, trials=24, seed=9)
        assert len(batched) == 24
        assert _ranked(per_row) == _ranked(batched)

    def test_fitness_many_called_once(self):
        _, _, physical = self._setup()
        calls = []

        def fitness_rows(mi, batch):
            calls.append(len(batch))
            return np.arange(len(batch), dtype=np.float64)

        random_search(physical, fitness_rows, trials=16, seed=0)
        assert calls == [16]

    def test_length_validation(self):
        _, _, physical = self._setup()
        with pytest.raises(ValueError, match="fitness_rows returned"):
            random_search(physical, lambda mi, b: np.zeros(1), trials=4, seed=0)

    def test_requires_an_evaluator(self):
        _, _, physical = self._setup()
        with pytest.raises(TypeError, match="fitness_rows"):
            random_search(physical, trials=4)
