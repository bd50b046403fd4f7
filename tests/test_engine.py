"""The evaluation engine: fingerprints, row evaluation, pool, persistent
cache.

The engine's contract is "same answer, faster": everything here checks
that worker count, batch shape, a repeat tune in one process and on-disk
cache state can never change what the tuner or compiler returns — and
that invalid cache state is ignored rather than served.
"""

import dataclasses
import hashlib
import json
import os
import random

import numpy as np
import pytest

from repro.compiler import amos_compile
from repro.engine import (
    CACHE_VERSION,
    CompileCache,
    EvaluationEngine,
    compile_cache_for,
    computation_fingerprint,
    hardware_fingerprint,
    mapping_fingerprint,
    reset_compile_caches,
    resolve_workers,
    tuner_config_fingerprint,
)
from repro.engine.fingerprint import _BUDGET_FIELDS
from repro.explore.genetic import GeneticConfig, genetic_search_rows
from repro.explore.tuner import Tuner, TunerConfig, clear_lowering_memo
from repro.frontends.operators import clear_operator_memo, make_operator
from repro.mapping.generation import GenerationOptions
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware, list_hardware
from repro.obs.explore_log import ExploreLog, use_log
from repro.schedule.features import take_rows
from repro.schedule.schedule import Schedule
from repro.schedule.space import ScheduleSpace, default_schedule
import repro.obs as obs


FAST = TunerConfig(
    population=8, generations=2, measure_top=8, refine_rounds=1, refine_neighbors=4
)
#: A small 1-D convolution with 6 mappings per Tensor Core intrinsic.
C1D = dict(n=2, c=4, k=4, length=8, r=3)


def small_physical(comp=None):
    comp = comp or make_operator("GMM", m=64, n=64, k=64)
    tuner = Tuner(get_hardware("v100"), FAST)
    return comp, tuner.candidate_mappings(comp)


def tune_fingerprint(result) -> list[tuple]:
    """Everything order-sensitive about a tune run, comparably rendered."""
    return [
        (t.mapping_index, t.predicted_us, t.measured_us, t.scheduled.schedule.describe())
        for t in result.trials
    ]


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_compile_caches()
    yield
    reset_compile_caches()


class TestFingerprints:
    def test_computation_fingerprint_separates_shapes(self):
        a = computation_fingerprint(make_operator("GMM", m=64, n=64, k=64))
        b = computation_fingerprint(make_operator("GMM", m=64, n=64, k=128))
        assert a != b
        assert a == computation_fingerprint(make_operator("GMM", m=64, n=64, k=64))

    def test_hardware_fingerprint_covers_all_fields(self):
        hw = get_hardware("v100")
        variant = hw.with_overrides(global_bandwidth_gbs=hw.global_bandwidth_gbs * 2)
        # Ablation variants keep the device name; the fingerprint must
        # still tell them apart.
        assert hardware_fingerprint(hw) != hardware_fingerprint(variant)

    def test_hardware_fingerprint_memo_equals_fresh_digest(self):
        """The digest memoized on the frozen parameter set is the one the
        unmemoized function computed, so existing compile caches still
        hit; a ``with_overrides`` variant of a memoized device gets its
        own digest."""

        def fresh(hw):
            items = sorted(dataclasses.asdict(hw).items())
            text = "|".join(f"{k}={v}" for k, v in items)
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        for name in list_hardware():
            hw = get_hardware(name)
            assert hardware_fingerprint(hw) == fresh(hw), name
            assert hw.__dict__["_fingerprint"] == fresh(hw), name
            variant = hw.with_overrides(clock_ghz=hw.clock_ghz * 2)
            assert hardware_fingerprint(variant) == fresh(variant), name
            assert hardware_fingerprint(variant) != hardware_fingerprint(hw), name
        # Recorded before the digest was memoized.
        assert hardware_fingerprint(get_hardware("v100")) == "8f4c3b9e2a2e30f4"

    def test_mapping_fingerprints_distinct_per_mapping(self):
        _, physical = small_physical()
        fps = {mapping_fingerprint(pm) for pm in physical}
        assert len(fps) == len(physical)

    def test_config_fingerprint_ignores_execution_knobs(self):
        base = TunerConfig(seed=3)
        same = TunerConfig(seed=3, n_workers=7, cache_dir="/x", run_dir="/y")
        other = TunerConfig(seed=4)
        assert tuner_config_fingerprint(base) == tuner_config_fingerprint(same)
        assert tuner_config_fingerprint(base) != tuner_config_fingerprint(other)

    def test_config_fingerprint_is_pinned(self):
        """Compile-cache keys embed this digest: removing execution knobs
        from TunerConfig must not move it, or every existing cache misses.
        The literals are the values before the pool's fault knobs went."""
        from repro.cli import QUICK_BUDGET

        assert tuner_config_fingerprint(TunerConfig()) == "b3dabc654a7d2936"
        # The --quick budget the CI baseline manifest was recorded with.
        quick = TunerConfig(**QUICK_BUDGET)
        assert tuner_config_fingerprint(quick) == "8782b0a2866a4d1f"

    def test_config_fingerprint_reads_generation_options_like_asdict(self):
        """The options part is rendered from the dataclass fields; it
        must equal the deep ``asdict`` rendering it replaced."""

        def from_asdict(config):
            parts = [f"{name}={getattr(config, name)}" for name in _BUDGET_FIELDS]
            gen = dataclasses.asdict(config.generation_options)
            parts.extend(f"gen.{k}={v}" for k, v in sorted(gen.items()))
            return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

        default = TunerConfig()
        assert tuner_config_fingerprint(default) == "b3dabc654a7d2936"
        assert from_asdict(default) == "b3dabc654a7d2936"
        other = TunerConfig(
            generation_options=GenerationOptions(
                allow_diagonal=False, unit_stride_reduce_rule=False, max_candidates=77
            )
        )
        assert tuner_config_fingerprint(other) == from_asdict(other)
        assert tuner_config_fingerprint(other) != tuner_config_fingerprint(default)

    def test_mutated_config_changes_its_digest(self):
        """The digest is memoized by the values it renders, not by the
        (mutable) config: every mutation moves it, undoing one restores
        it, and each equals the unmemoized rendering."""
        import repro.engine.fingerprint as fingerprint

        def fresh(config):
            saved = dict(fingerprint._CONFIG_DIGESTS)
            fingerprint._CONFIG_DIGESTS.clear()
            try:
                return tuner_config_fingerprint(config)
            finally:
                fingerprint._CONFIG_DIGESTS.update(saved)

        config = TunerConfig()
        assert tuner_config_fingerprint(config) == "b3dabc654a7d2936"
        seen = {"b3dabc654a7d2936"}
        mutations = [
            ("seed", 1),
            ("population", 32.0),  # equal to 32, rendered apart
            ("elite_fraction", 0.0),
            ("elite_fraction", -0.0),  # equal to 0.0, rendered apart
            ("generation_options", GenerationOptions(allow_diagonal=False)),
            ("generation_options", GenerationOptions(max_candidates=2e6)),  # likewise
        ]
        for name, value in mutations:
            before = getattr(config, name)
            setattr(config, name, value)
            digest = tuner_config_fingerprint(config)
            assert digest == fresh(config), name
            assert digest not in seen, name
            seen.add(digest)
            setattr(config, name, before)
            assert tuner_config_fingerprint(config) == "b3dabc654a7d2936"


class TestMemoCache:
    """The engine keeps no row memo.  What is left of one is the row
    count perfbench reads as ``engine.memo``."""

    def test_roundtrip_and_separation(self):
        """``memo.predictions`` counts the rows the engine predicted and
        ``memo.measurements`` the rows it measured, duplicates included,
        so perfbench's memo hit fraction reads 0."""
        comp, physical = small_physical()
        engine = EvaluationEngine(comp, physical, get_hardware("v100"))
        sched = default_schedule(physical[0])
        engine.predict_many([(0, sched), (0, sched)])
        assert (len(engine.memo.predictions), len(engine.memo.measurements)) == (2, 0)
        engine.measure_many([(0, sched)] * 3)
        assert (len(engine.memo.predictions), len(engine.memo.measurements)) == (5, 3)

    def test_bounded(self):
        """The engine's memory is bounded by its context, not by the rows
        it evaluates: evaluating more rows stores nothing per row."""
        comp, physical = small_physical()
        engine = EvaluationEngine(comp, physical, get_hardware("v100"))

        def sizes():
            return {
                name: len(value)
                for name, value in vars(engine).items()
                if isinstance(value, (dict, list, set))
            }

        engine.predict_many([(0, default_schedule(physical[0]))])
        before = sizes()
        rng = random.Random(3)
        engine.measure_many(
            [
                (mi, ScheduleSpace(pm).sample(rng))
                for mi, pm in enumerate(physical)
                for _ in range(25)
            ]
        )
        assert sizes() == before


class TestCompileCache:
    def test_roundtrip_and_reload(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store("key", {"comp_fp": "a", "latency_us": 1.5})
        reloaded = CompileCache(str(tmp_path))
        assert reloaded.lookup("key")["latency_us"] == 1.5
        assert reloaded.lookup("key")["version"] == CACHE_VERSION

    def test_corrupt_and_wrong_version_lines_skipped(self, tmp_path):
        path = tmp_path / CompileCache.FILENAME
        path.write_text(
            "not json at all\n"
            + json.dumps({"key": "old", "version": CACHE_VERSION - 1}) + "\n"
            + json.dumps({"key": "good", "version": CACHE_VERSION, "x": 1}) + "\n"
        )
        cache = CompileCache(str(tmp_path))
        assert cache.lookup("old") is None
        assert cache.lookup("good")["x"] == 1

    def test_later_entries_win(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store("key", {"x": 1})
        cache.store("key", {"x": 2})
        assert CompileCache(str(tmp_path)).lookup("key")["x"] == 2


class TestResolveWorkers:
    def test_default_is_cpu_count(self):
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_and_invalid(self):
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestEvaluationEngine:
    def test_memo_and_in_batch_duplicates(self, monkeypatch):
        """In-batch duplicates are evaluated again, in the batch's one
        model call, and equal their first copy; a repeat batch is
        evaluated again and returns the same bits."""
        import repro.engine.engine as engine_mod

        calls = []
        predict = engine_mod.batch_predict

        def counted(table, mapping_indices, *args, **kwargs):
            calls.append(len(mapping_indices))
            return predict(table, mapping_indices, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "batch_predict", counted)
        comp, physical = small_physical()
        engine = EvaluationEngine(comp, physical, get_hardware("v100"))
        sched = default_schedule(physical[0])
        batch = [(0, sched), (0, sched), (1, default_schedule(physical[1]))]
        first = engine.predict_many(batch)
        assert first[0] == first[1]
        assert engine.predict_many(batch) == first
        assert calls == [3, 3]

    def test_measurements_cached_separately(self):
        """A measure call predicts too: its predictions equal a predict
        call's, and its measurement equals a later measure call's."""
        comp, physical = small_physical()
        engine = EvaluationEngine(comp, physical, get_hardware("v100"))
        sched = default_schedule(physical[0])
        [alone] = engine.predict_many([(0, sched)])
        [(predicted, measured)] = engine.measure_many([(0, sched)])
        assert predicted == alone
        assert engine.measure_many([(0, sched)]) == [(predicted, measured)]
        assert measured > 0 and predicted > 0

    def test_pool_matches_inline(self, pool_every_batch):
        """The spawn pool returns exactly what in-process evaluation does."""
        comp, physical = small_physical()
        hw = get_hardware("v100")
        rng_scheds = []
        rng = random.Random(0)
        for i, pm in enumerate(physical):
            space = ScheduleSpace(pm)
            rng_scheds.extend((i, space.sample(rng)) for _ in range(3))

        inline = EvaluationEngine(comp, physical, hw, n_workers=1)
        expected = inline.measure_many(rng_scheds)
        with EvaluationEngine(
            comp, physical, hw, n_workers=2
        ) as pooled:
            assert pooled.measure_many(rng_scheds) == expected


class TestBatchComposition:
    """A row's value is a function of the row alone: no batch it rides
    in — alone, shuffled among other mappings' rows, or next to copies
    of itself — changes a bit of it."""

    def _rows(self):
        comp, physical = small_physical(make_operator("C1D", **C1D))
        engine = EvaluationEngine(comp, physical, get_hardware("v100"))
        rng = random.Random(11)
        items = [
            (mi, ScheduleSpace(pm).sample(rng))
            for mi, pm in enumerate(physical)
            for _ in range(3)
        ]
        return engine, *engine.encode_rows(items)

    @staticmethod
    def _evaluate(engine, mapping_indices, batch):
        """(predicted, predicted while measuring, measured) per row."""
        predicted = engine.predict_rows(mapping_indices, batch)
        with_measure, measured = engine.measure_rows(mapping_indices, batch)
        return list(zip(predicted.tolist(), with_measure.tolist(), measured.tolist()))

    def test_alone_shuffled_and_duplicated_rows_agree(self):
        engine, mapping_indices, batch = self._rows()
        assert len(set(mapping_indices.tolist())) > 1
        n = len(batch)
        alone = [
            self._evaluate(engine, mapping_indices[i : i + 1], take_rows(batch, [i]))[0]
            for i in range(n)
        ]
        order = np.random.default_rng(0).permutation(n)
        shuffled = self._evaluate(
            engine, mapping_indices[order], take_rows(batch, order)
        )
        assert shuffled == [alone[i] for i in order]
        repeated = np.concatenate([order[: n // 2], np.arange(n), order[: n // 2]])
        duplicated = self._evaluate(
            engine, mapping_indices[repeated], take_rows(batch, repeated)
        )
        assert duplicated == [alone[i] for i in repeated]


class TestScheduleDict:
    def test_roundtrip(self):
        _, physical = small_physical()
        sched = default_schedule(physical[0])
        clone = Schedule.from_dict(sched.to_dict())
        assert clone.describe() == sched.describe()
        assert json.loads(json.dumps(sched.to_dict())) == sched.to_dict()


class TestGeneticBatchEquivalence:
    def test_fitness_many_matches_fitness(self):
        """One ``predict_rows`` call per generation ranks exactly like
        scoring each fresh row in its own 1-row call."""
        comp, physical = small_physical()
        hw = get_hardware("v100")
        ga = GeneticConfig(population=12, generations=4, seed=7)
        calls = []

        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:

            def per_generation(mi, batch):
                calls.append(len(batch))
                return engine.predict_rows(mi, batch)

            batch = genetic_search_rows(physical, per_generation, ga)
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            serial = genetic_search_rows(
                physical,
                lambda mi, rows: np.concatenate(
                    [
                        engine.predict_rows(mi[i : i + 1], take_rows(rows, [i]))
                        for i in range(len(rows))
                    ]
                ),
                ga,
            )
        assert serial.mapping_index.tolist() == batch.mapping_index.tolist()
        assert serial.costs.tolist() == batch.costs.tolist()
        for a, b in zip(serial.batch.columns(), batch.batch.columns()):
            assert a.tolist() == b.tolist()
        # whole generations scored in one call, not one call per candidate
        assert len(calls) <= ga.generations + 1 and max(calls) > 1

    def test_requires_an_evaluator(self):
        _, physical = small_physical()
        with pytest.raises(TypeError, match="fitness_rows"):
            genetic_search_rows(physical)


class TestTunerDeterminism:
    def _tune(self, n_workers):
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(FAST, n_workers=n_workers)
        obs.reset()
        obs.enable()
        log = ExploreLog(operator=comp.name, hardware="v100")
        try:
            with use_log(log):
                result = Tuner(get_hardware("v100"), config).tune(comp)
        finally:
            obs.disable()
            obs.reset()
        return result, log

    def test_worker_count_is_not_a_search_knob(self, pool_every_batch):
        """n_workers=1 vs n_workers=4 (every batch forced onto the pool):
        identical best, trial ordering and telemetry funnel."""
        serial, serial_log = self._tune(n_workers=1)
        pooled, pooled_log = self._tune(n_workers=4)
        assert serial.best_us == pooled.best_us
        assert tune_fingerprint(serial) == tune_fingerprint(pooled)
        assert serial_log.funnel.to_dict() == pooled_log.funnel.to_dict()
        assert serial_log.samples == pooled_log.samples

    def test_warm_memo_is_not_a_search_knob(self):
        """A first tune and a second tune of the same operator in one
        process (its operator, admission and lowering memos warm):
        identical everything."""
        cold, cold_log = self._tune(n_workers=1)
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(FAST, n_workers=1)
        tuner = Tuner(get_hardware("v100"), config)
        obs.reset()
        obs.enable()
        warm_log = ExploreLog(operator=comp.name, hardware="v100")
        try:
            tuner.tune(comp)
            with use_log(warm_log):
                warm = tuner.tune(comp)
        finally:
            obs.disable()
            obs.reset()
        assert warm.best_us == cold.best_us
        assert tune_fingerprint(warm) == tune_fingerprint(cold)
        assert warm_log.funnel.to_dict() == cold_log.funnel.to_dict()


class TestPersistentCompileCache:
    def test_second_compile_is_served_from_disk(self, tmp_path):
        """The warm compile gets a fresh computation (the operator memo
        is cleared, so it has its own Var uids); it must still hit,
        store nothing and rebuild the same kernel."""
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        comp = make_operator("GMM", m=64, n=64, k=64)
        cold = amos_compile(comp, "v100", config)
        path = tmp_path / CompileCache.FILENAME
        lines = path.read_text()
        clear_operator_memo()
        reset_compile_caches()  # force a re-read from disk
        fresh = make_operator("GMM", m=64, n=64, k=64)
        assert fresh is not comp and fresh != comp
        warm = amos_compile(fresh, "v100", config)
        assert path.read_text() == lines  # a hit stores nothing
        assert warm.latency_us == cold.latency_us
        assert warm.used_intrinsics
        assert warm.scheduled.schedule.describe() == cold.scheduled.schedule.describe()
        assert mapping_fingerprint(warm.scheduled.physical) == mapping_fingerprint(
            cold.scheduled.physical
        )

    def test_budget_change_misses(self, tmp_path):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", config)
        other = dataclasses.replace(config, seed=99)
        path = tmp_path / CompileCache.FILENAME
        before = len(path.read_text().splitlines())
        amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", other)
        assert len(path.read_text().splitlines()) == before + 1

    def _poison(self, tmp_path, field, value):
        path = tmp_path / CompileCache.FILENAME
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        for entry in entries:
            entry[field] = value
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        reset_compile_caches()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("comp_fp", "0" * 16),
            ("mapping_fp", "0" * 16),
            ("schedule", {"bogus": True}),
            ("latency_us", "not-a-number"),
        ],
    )
    def test_poisoned_entry_is_ignored_not_served(self, tmp_path, field, value):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        comp = make_operator("GMM", m=64, n=64, k=64)
        cold = amos_compile(comp, "v100", config)
        self._poison(tmp_path, field, value)
        redo = amos_compile(make_operator("GMM", m=64, n=64, k=64), "v100", config)
        # the poisoned entry forced a (deterministic) re-tune
        assert redo.latency_us == cold.latency_us
        assert redo.scheduled.schedule.describe() == cold.scheduled.schedule.describe()

    def test_hit_rebuilds_only_the_stored_mapping(self, tmp_path, monkeypatch):
        import repro.explore.tuner as tuner

        config = dataclasses.replace(FAST, cache_dir=str(tmp_path))
        cold = amos_compile(make_operator("C1D", **C1D), "v100", config)
        assert cold.num_mappings > 1
        reset_compile_caches()
        tuner.clear_lowering_memo()  # else an earlier hit's lowering serves it

        enumerated = self._only_restricted_enumeration(monkeypatch)
        lowered = []

        def counting_lower(mapping):
            lowered.append(mapping)
            return lower_to_physical(mapping)

        monkeypatch.setattr(tuner, "lower_to_physical", counting_lower)
        path = tmp_path / CompileCache.FILENAME
        lines = path.read_text()
        warm = amos_compile(make_operator("C1D", **C1D), "v100", config)
        assert path.read_text() == lines  # a hit stores nothing
        assert enumerated == [([1, 2, 0, 4, 4], 1)]
        assert len(lowered) == 1
        assert warm.latency_us == cold.latency_us
        assert warm.scheduled.schedule.describe() == cold.scheduled.schedule.describe()
        assert mapping_fingerprint(warm.scheduled.physical) == mapping_fingerprint(
            cold.scheduled.physical
        )

    # The stored C1D matching is [1, 2, 0, 4, 4]: n, k, p, c, r on the
    # intrinsic iterations i1, i2, -, r1, r1.
    @pytest.mark.parametrize(
        "matching",
        [
            pytest.param([1, 2, 0, 4], id="short"),
            pytest.param([1, 2, 0, 4, 4, 0], id="long"),
            pytest.param([1, 2, 0, 4, "4"], id="string-mask"),
            pytest.param([1, 2, 0, 4, 4.0], id="float-mask"),
            pytest.param([True, 2, 0, 4, 4], id="bool-mask"),
            pytest.param([1, 2, 0, 4, None], id="null-mask"),
            pytest.param({"n": 1}, id="not-a-list"),
            pytest.param([2, 2, 0, 4, 4], id="outside-choices"),
            pytest.param([8, 2, 0, 4, 4], id="no-such-target"),
            pytest.param([1, 0, 0, 4, 4], id="fails-coverage"),
            pytest.param([1, 2, 0, 0, 4], id="fails-unit-stride"),
            pytest.param([1, 2, 1, 4, 4], id="another-mapping"),
        ],
    )
    def test_tampered_matching_misses_and_retunes(self, tmp_path, matching):
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path))
        cold = amos_compile(make_operator("C1D", **C1D), "v100", config)
        stored = json.loads((tmp_path / CompileCache.FILENAME).read_text())
        assert stored["matching"] == [1, 2, 0, 4, 4]
        self._poison(tmp_path, "matching", matching)
        redo = self._compile_counting_stores(tmp_path, config)
        assert redo.latency_us == cold.latency_us
        assert mapping_fingerprint(redo.scheduled.physical) == stored["mapping_fp"]

    def test_matching_rejected_by_algorithm1_misses(self, tmp_path, monkeypatch):
        """Algorithm 1 accepts every tuple of admissible choices that the
        coverage and unit-stride rules keep (the choices are built from
        the same column signatures), so no stored tuple of a shipped
        intrinsic can fail it; the validator is made to reject the stored
        matching instead, for the rebuild and the re-tune alike."""
        import repro.mapping.generation as generation
        from repro.mapping.validation import ValidationResult, validate_mapping

        config = dataclasses.replace(FAST, cache_dir=str(tmp_path))
        cold = amos_compile(make_operator("C1D", **C1D), "v100", config)
        physical = cold.scheduled.physical
        stored = (physical.intrinsic.name, physical.compute.matching.data.tobytes())
        reset_compile_caches()

        def rejecting(comp, intrinsic, y):
            if (intrinsic.name, y.data.tobytes()) == stored:
                return ValidationResult(False, "rejected by the test")
            return validate_mapping(comp, intrinsic, y)

        monkeypatch.setattr(generation, "validate_mapping", rejecting)
        # The admission memo keeps Algorithm 1's verdicts per structure,
        # shared by the three WMMA shapes; this validator tells them apart
        # by name, so the redo admits around the memo, which keeps no
        # verdict of it for later tests.
        monkeypatch.setattr(generation, "_admitted", generation._admit)
        redo = self._compile_counting_stores(tmp_path, config)
        physical = redo.scheduled.physical
        served = (physical.intrinsic.name, physical.compute.matching.data.tobytes())
        assert served != stored
        assert redo.num_mappings == cold.num_mappings - 1

    def test_entry_without_matching_retunes_once(self, tmp_path, monkeypatch):
        """An entry in the layout written before ``matching`` existed is an
        ordinary miss: re-tuned and re-stored once, then served from the
        new line; no line is counted as skipped."""
        config = dataclasses.replace(FAST, cache_dir=str(tmp_path))
        cold = amos_compile(make_operator("C1D", **C1D), "v100", config)
        path = tmp_path / CompileCache.FILENAME
        entry = json.loads(path.read_text())
        del entry["matching"]
        path.write_text(json.dumps(entry) + "\n")
        reset_compile_caches()
        redo = self._compile_counting_stores(tmp_path, config)
        assert compile_cache_for(str(tmp_path)).skipped_lines == 0
        assert redo.latency_us == cold.latency_us

        reset_compile_caches()

        enumerated = self._only_restricted_enumeration(monkeypatch)
        lines = path.read_text()
        warm = amos_compile(make_operator("C1D", **C1D), "v100", config)
        assert path.read_text() == lines
        assert enumerated == [([1, 2, 0, 4, 4], 1)]
        assert compile_cache_for(str(tmp_path)).skipped_lines == 0
        assert warm.latency_us == cold.latency_us
        assert mapping_fingerprint(warm.scheduled.physical) == mapping_fingerprint(
            cold.scheduled.physical
        )

    @staticmethod
    def _only_restricted_enumeration(monkeypatch):
        """Make every unrestricted ``enumerate_mappings`` call raise, under
        each name it is called by; returns the (columns, mappings found)
        of each restricted call."""
        import repro.compiler as compiler
        import repro.explore.tuner as tuner
        import repro.mapping.generation as generation

        real = generation.enumerate_mappings
        calls = []

        def restricted_only(comp, intrinsic, options=None, columns=None):
            if columns is None:
                raise AssertionError("a cache hit enumerated every mapping")
            found = real(comp, intrinsic, options, columns=columns)
            calls.append((list(columns), len(found)))
            return found

        for module in (compiler, tuner, generation):
            monkeypatch.setattr(module, "enumerate_mappings", restricted_only)
        return calls

    def _compile_counting_stores(self, tmp_path, config):
        """Compile C1D and check that exactly one line was appended (a miss
        that re-tuned and re-stored)."""
        path = tmp_path / CompileCache.FILENAME
        before = len(path.read_text().splitlines())
        kernel = amos_compile(make_operator("C1D", **C1D), "v100", config)
        after = path.read_text().splitlines()
        assert len(after) == before + 1
        assert json.loads(after[-1])["mapping_fp"] == mapping_fingerprint(
            kernel.scheduled.physical
        )
        return kernel

    def test_scalar_fallback_cached(self, tmp_path):
        from repro.ir import Tensor, compute, spatial_axis

        def make_copy():
            i = spatial_axis(64, "i")
            a, out = Tensor("A", (64,)), Tensor("out", (64,))
            return compute("copy", [i], out[i], [a[i]], combine="identity", reduce=None)

        config = dataclasses.replace(FAST, cache_dir=str(tmp_path), n_workers=1)
        cold = amos_compile(make_copy(), "v100", config)
        reset_compile_caches()
        warm = amos_compile(make_copy(), "v100", config)
        assert not warm.used_intrinsics
        assert warm.latency_us == cold.latency_us


class TestCliFlags:
    def test_compile_cache_dir_flag(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "compile", "GMM", "--hardware", "v100",
            "--params", "m=64", "n=64", "k=64",
            "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / CompileCache.FILENAME).exists()
        reset_compile_caches()
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestOneArrayCallPerBatch:
    #: Rows a default-config tune of the C2D below hands
    #: ``batch_predict`` and ``batch_simulate``: every row of every engine
    #: batch, repeats included.
    MODEL_ROWS = 410
    SIM_ROWS = 174

    def test_batch_predict_once_per_batch_with_misses(self, monkeypatch):
        """Every engine batch makes exactly one ``batch_predict``
        call over all its rows and, when it measures, one
        ``batch_simulate`` call, whatever mix of mappings it holds; the
        mapping table is built once per engine."""
        import repro.engine.engine as engine_mod
        from repro.schedule.features import MappingTable

        calls = {"predict": [], "simulate": [], "tables": 0}
        predict, simulate = engine_mod.batch_predict, engine_mod.batch_simulate

        def counted(name, fn):
            def wrapper(table, mapping_indices, *args, **kwargs):
                calls[name].append(len(mapping_indices))
                return fn(table, mapping_indices, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(engine_mod, "batch_predict", counted("predict", predict))
        monkeypatch.setattr(engine_mod, "batch_simulate", counted("simulate", simulate))
        init = MappingTable.__init__

        def built(self, physical):
            calls["tables"] += 1
            init(self, physical)

        monkeypatch.setattr(MappingTable, "__init__", built)

        batches = []
        evaluate = EvaluationEngine._evaluate_rows

        def spy(self, mapping_indices, batch, measure):
            mapping_indices = np.asarray(mapping_indices, dtype=np.int64)
            before = len(calls["predict"]), len(calls["simulate"])
            result = evaluate(self, mapping_indices, batch, measure)
            batches.append(
                (
                    len(batch),
                    len(set(mapping_indices.tolist())),
                    measure,
                    calls["predict"][before[0] :],
                    calls["simulate"][before[1] :],
                )
            )
            return result

        monkeypatch.setattr(EvaluationEngine, "_evaluate_rows", spy)
        clear_lowering_memo()  # a cold tune: its table is not memoized yet
        comp = make_operator("C2D", n=1, c=16, k=16, h=8, w=8)
        Tuner(get_hardware("v100"), TunerConfig()).tune(comp)

        assert calls["tables"] == 1
        assert any(rows and mappings > 1 for rows, mappings, *_ in batches)
        for rows, _, measure, predicted, simulated in batches:
            assert predicted == [rows]
            assert simulated == ([rows] if measure else [])
        assert sum(calls["predict"]) == self.MODEL_ROWS
        assert sum(calls["simulate"]) == self.SIM_ROWS
