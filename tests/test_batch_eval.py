"""Batch evaluation path: bit-identical to the scalar oracle.

The vectorized evaluators (``MappingTable`` + ``batch_predict`` /
``batch_simulate``) are pure performance work: they must return the
*same bits* as ``predict_latency`` / ``simulate_cycles`` for every
candidate — not approximately equal, equal.  These tests enforce that
contract with ``==`` across every registered target (shared-memory and
direct-register intrinsics), on batches that mix mappings, on
infeasible zero-residency schedules, through the
:class:`EvaluationEngine` front door, through a full tune run, and
property-based over randomly constructed schedules.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EvaluationEngine,
    MemoCache,
    reset_compile_caches,
    reset_global_memo,
)
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model.batch_model import batch_predict
from repro.model.hardware_params import get_hardware
from repro.model.perf_model import predict_latency
from repro.schedule.features import (
    MappingTable,
    derive_batch,
    encode_rows,
    row_keys,
    schedules_from_rows,
)
from repro.schedule.lowering import lower_schedule
from repro.schedule.schedule import DimSplit, Schedule
from repro.schedule.space import ScheduleSpace, default_schedule
from repro.sim.batch_timing import batch_simulate
from repro.sim.timing import simulate_cycles


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_global_memo()
    reset_compile_caches()
    yield
    reset_global_memo()
    reset_compile_caches()


#: One operator per registered device, so every intrinsic kind is
#: exercised: wmma (shared staging), AVX-512 / Mali dot / vaxpy / vgemv
#: (direct register loads) and vconv (shared staging on an accelerator).
CASES = [
    ("v100", "GMM", dict(m=64, n=64, k=64)),
    ("a100", "GMM", dict(m=128, n=64, k=64)),
    ("xeon_4110", "GMM", dict(m=32, n=32, k=32)),
    ("mali_g76", "GMM", dict(m=32, n=32, k=32)),
    ("axpy_accel", "C3D", dict(n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)),
    ("gemv_accel", "GMV", dict(m=64, k=64)),
    ("conv_accel", "C3D", dict(n=1, c=4, k=4, d=4, h=6, w=6, t=2, r=2, s=2)),
]


def _mappings_for(hw, comp, limit=3):
    physical = [
        lower_to_physical(m)
        for intr in intrinsics_for_target(hw.target)
        for m in enumerate_mappings(comp, intr, GenerationOptions())
    ]
    assert physical, f"no mappings of {comp.name} on {hw.target}"
    return physical[:limit]


def _one_mapping(pm, schedules):
    """One mapping's one-row table, its schedules as rows of the shared
    codec and the all-zero mapping-index vector of those rows."""
    table = MappingTable([pm])
    batch = encode_rows([table.spatial_names(0)] * len(schedules), schedules)
    return table, np.zeros(len(schedules), dtype=np.int64), batch


def _random_schedules(pm, hw, rng, count):
    space = ScheduleSpace(
        pm,
        max_warps_per_block=hw.max_warps_per_subcore * hw.subcores_per_core,
    )
    return [default_schedule(pm)] + [space.sample(rng) for _ in range(count)]


def _assert_rows_match(pm, schedules, bp, bt, hw, jitter=True):
    """Exact-equality comparison of every batch row against the scalar
    oracle (``inf == inf`` holds, so infeasible rows compare too).
    ``pm`` is the rows' one mapping, or a list of each row's mapping."""
    for i, schedule in enumerate(schedules):
        row_pm = pm[i] if isinstance(pm, list) else pm
        sm = lower_schedule(row_pm, schedule)
        p = predict_latency(sm, hw)
        t = simulate_cycles(sm, hw, jitter=jitter)
        context = f"{hw.name} {row_pm.intrinsic.name} row {i}: {schedule.describe()}"
        assert bp.total_us[i] == p.total_us, context
        assert bp.level0_us[i] == p.level0_us, context
        assert bp.level1_us[i] == p.level1_us, context
        assert bp.level2_us[i] == p.level2_us, context
        assert bp.read_us[i] == p.read_us, context
        assert bp.write_us[i] == p.write_us, context
        assert bt.total_us[i] == t.total_us, context
        assert bt.compute_us[i] == t.compute_us, context
        assert bt.memory_us[i] == t.memory_us, context
        assert bt.shared_us[i] == t.shared_us, context
        assert bt.waves[i] == t.waves, context
        assert bt.resident_blocks_per_core[i] == t.resident_blocks_per_core, context
        assert bt.occupancy[i] == t.occupancy, context
        assert bt.jitter[i] == t.jitter, context


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("hw_name,op,params", CASES)
    def test_bit_identical_on_random_schedules(self, hw_name, op, params):
        hw = get_hardware(hw_name)
        comp = make_operator(op, **params)
        rng = random.Random(hash(hw_name) & 0xFFFF)
        for pm in _mappings_for(hw, comp):
            schedules = _random_schedules(pm, hw, rng, count=25)
            table, rows, batch = _one_mapping(pm, schedules)
            q = derive_batch(table, rows, batch)
            bp = batch_predict(table, rows, batch, hw, quantities=q)
            bt = batch_simulate(table, rows, batch, hw, quantities=q)
            _assert_rows_match(pm, schedules, bp, bt, hw)

    def test_jitter_disabled_matches_too(self):
        hw = get_hardware("v100")
        comp = make_operator("GMM", m=64, n=64, k=64)
        pm = _mappings_for(hw, comp, limit=1)[0]
        schedules = _random_schedules(pm, hw, random.Random(7), count=10)
        table, rows, batch = _one_mapping(pm, schedules)
        bp = batch_predict(table, rows, batch, hw)
        bt = batch_simulate(table, rows, batch, hw, jitter=False)
        _assert_rows_match(pm, schedules, bp, bt, hw, jitter=False)
        assert (bt.jitter == 1.0).all()

    def test_zero_residency_schedules(self):
        """A device whose shared buffer fits no block: the scalar path
        reports every shared-staging candidate infinitely slow, and the
        batch path must agree bit for bit (and not divide by zero)."""
        hw = get_hardware("v100").with_overrides(shared_capacity_bytes=1)
        comp = make_operator("GMM", m=64, n=64, k=64)
        pm = _mappings_for(hw, comp, limit=1)[0]
        schedules = _random_schedules(pm, hw, random.Random(3), count=12)
        table, rows, batch = _one_mapping(pm, schedules)
        assert table.uses_shared[0]
        bp = batch_predict(table, rows, batch, hw)
        bt = batch_simulate(table, rows, batch, hw)
        assert np.isinf(bt.total_us).all()
        assert (bt.waves == 0).all()
        assert (bt.occupancy == 0.0).all()
        assert (bt.jitter == 1.0).all()
        _assert_rows_match(pm, schedules, bp, bt, hw)

    def test_describe_strings_drive_jitter(self):
        """A bare ``Schedule()`` and one with an explicit unit split lower
        identically and describe differently; the codec canonicalises
        both to one row, so they share one memo key and one jitter —
        that of the canonical schedule the row decodes to."""
        hw = get_hardware("v100")
        comp = make_operator("GMM", m=64, n=64, k=64)
        pm = _mappings_for(hw, comp, limit=1)[0]
        names = MappingTable([pm]).spatial_names(0)
        bare = Schedule()
        explicit = Schedule(splits={names[0]: DimSplit(1, 1)})
        assert bare.describe() != explicit.describe()
        table, rows, batch = _one_mapping(pm, [bare, explicit])
        for column in batch.columns():
            assert np.array_equal(column[0], column[1])
        keys = row_keys(rows, batch, lambda mi: b"m", lambda mi: len(names))
        assert keys[0] == keys[1]
        bt = batch_simulate(table, rows, batch, hw)
        assert bt.jitter[0] == bt.jitter[1]
        canonical = schedules_from_rows(names, batch)
        assert canonical[0] == canonical[1]
        _assert_rows_match(
            pm, canonical, batch_predict(table, rows, batch, hw), bt, hw
        )

    def test_cases_exercise_level0_compute_and_level1_read(self):
        """The equivalence rows above must include a row whose model total
        is set by the level-0 compute term and one set by the level-1
        read term; otherwise an error in either term could pass them
        (see :func:`_terms_setting_totals`)."""
        level0 = level1_read = 0
        for hw_name, op, params in CASES:
            hw = get_hardware(hw_name)
            comp = make_operator(op, **params)
            rng = random.Random(hash(hw_name) & 0xFFFF)
            for pm in _mappings_for(hw, comp):
                schedules = _random_schedules(pm, hw, rng, count=25)
                counts = _terms_setting_totals(hw, *_one_mapping(pm, schedules))
                level0 += counts[0]
                level1_read += counts[1]
        assert level0 > 0
        assert level1_read > 0


def _terms_setting_totals(hw, table, rows, batch):
    """Rows whose model total is set by the level-0 compute term, and
    rows set by the level-1 read term: a 1% slower input to that term
    alone (intrinsic MACs per cycle; shared bandwidth, on a row whose
    read traffic exceeds its write traffic) moves the total."""
    slow_compute = hw.with_overrides(
        intrinsic_macs_per_cycle=hw.intrinsic_macs_per_cycle * 0.99
    )
    slow_shared = hw.with_overrides(
        shared_bandwidth_gbs_per_core=hw.shared_bandwidth_gbs_per_core * 0.99
    )
    q = derive_batch(table, rows, batch)

    def total(device):
        return batch_predict(table, rows, batch, device, quantities=q).total_us

    base = total(hw)
    reads_dominate = q.input_traffic_bytes > q.output_traffic_bytes
    return (
        int((total(slow_compute) != base).sum()),
        int(((total(slow_shared) != base) & reads_dominate).sum()),
    )


#: Table 6 operators at small shapes: conv (2-D and 1-D), depthwise
#: (diagonal mappings) and GEMV (padded intrinsic iterations).
MIXED_OPERATORS = [
    ("C2D", dict(n=2, c=4, k=4, h=6, w=6, r=3, s=3)),
    ("DEP", dict(n=1, k=4, h=4, w=4)),
    ("GMV", dict(m=32, k=32)),
    ("C1D", dict(n=2, c=4, k=4, length=8, r=3)),
]

DEVICES = ["v100", "a100", "xeon_4110", "mali_g76", "axpy_accel", "gemv_accel", "conv_accel"]


@functools.lru_cache(maxsize=None)
def _mixed_context():
    """Every mapping of the mixed operators onto every shipped device's
    intrinsics, and one row table over all of them."""
    physical = [
        lower_to_physical(m)
        for hw_name in DEVICES
        for intr in intrinsics_for_target(get_hardware(hw_name).target)
        for op, params in MIXED_OPERATORS
        for m in enumerate_mappings(make_operator(op, **params), intr, GenerationOptions())
    ]
    return physical, MappingTable(physical)


class TestMixedBatches:
    def test_mixed_batch_matches_scalar_oracle(self):
        """One batch holds every mapping's default schedule and a
        random one, shuffled: rows of different widths, reduce-iteration
        counts and operand tile ranks, shared-staging and register
        intrinsics side by side.  Evaluated in one call per device, each
        row equals the scalar oracle of its own mapping, and the rows
        still include totals set by the level-0 compute term and by the
        level-1 read term."""
        physical, table = _mixed_context()
        assert len(set(table.n_spatial.tolist())) > 1
        assert len(set(table.uses_shared.tolist())) == 2
        assert len(set((table.reduce_num_tiles > 1).sum(axis=1).tolist())) > 1
        level0 = level1_read = 0
        for hw_name in DEVICES:
            hw = get_hardware(hw_name)
            rng = random.Random(hw_name)
            items = []
            for mi, pm in enumerate(physical):
                items += [(mi, s) for s in _random_schedules(pm, hw, rng, count=1)]
            rng.shuffle(items)
            rows = np.array([mi for mi, _ in items], dtype=np.int64)
            schedules = [s for _, s in items]
            batch = encode_rows([table.spatial_names(mi) for mi, _ in items], schedules)
            assert len(np.unique(rows)) == len(physical)
            q = derive_batch(table, rows, batch)
            bp = batch_predict(table, rows, batch, hw, quantities=q)
            bt = batch_simulate(table, rows, batch, hw, quantities=q)
            _assert_rows_match([physical[mi] for mi, _ in items], schedules, bp, bt, hw)
            counts = _terms_setting_totals(hw, table, rows, batch)
            level0 += counts[0]
            level1_read += counts[1]
        assert level0 > 0
        assert level1_read > 0

    def test_mixed_batch_equals_one_mapping_batches(self):
        """A mixed batch is one call; splitting it by mapping into
        one-row-table calls gives the same bits row for row, whatever
        the padding columns of the narrower rows hold."""
        physical, table = _mixed_context()
        hw = get_hardware("v100")
        rng = random.Random(5)
        items = [(mi, default_schedule(pm)) for mi, pm in enumerate(physical)]
        items += [(mi, ScheduleSpace(physical[mi]).sample(rng)) for mi, _ in items]
        rows = np.array([mi for mi, _ in items], dtype=np.int64)
        batch = encode_rows([table.spatial_names(mi) for mi, _ in items], [s for _, s in items])
        # Garbage in the padding columns must not reach any result.
        padding = np.arange(batch.warp.shape[1]) >= table.n_spatial[rows][:, None]
        batch.warp[padding] = 7
        batch.seq[padding] = 3
        mixed = batch_simulate(table, rows, batch, hw)
        predicted = batch_predict(table, rows, batch, hw).total_us
        for mi in range(len(physical)):
            own = np.nonzero(rows == mi)[0]
            one, zeros, alone = _one_mapping(
                physical[mi], [items[i][1] for i in own]
            )
            assert np.array_equal(batch_predict(one, zeros, alone, hw).total_us, predicted[own])
            assert np.array_equal(batch_simulate(one, zeros, alone, hw).total_us, mixed.total_us[own])


class TestEngineVectorized:
    def _context(self):
        hw = get_hardware("v100")
        comp = make_operator("GMM", m=64, n=64, k=64)
        physical = _mappings_for(hw, comp, limit=3)
        rng = random.Random(11)
        items = []
        for mi, pm in enumerate(physical):
            items += [(mi, s) for s in _random_schedules(pm, hw, rng, count=15)]
        rng.shuffle(items)
        return hw, comp, physical, items

    def _scalar(self, hw, physical, items):
        """The per-candidate scalar oracle the engine must equal."""
        out = []
        for mi, schedule in items:
            sm = lower_schedule(physical[mi], schedule)
            out.append(
                (predict_latency(sm, hw).total_us, simulate_cycles(sm, hw).total_us)
            )
        return out

    def test_vectorized_engine_matches_scalar_engine(self):
        hw, comp, physical, items = self._context()
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            vec = engine.measure_many(items)
        assert vec == self._scalar(hw, physical, items)

    def test_vectorized_predictions_match(self):
        hw, comp, physical, items = self._context()
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            vec = engine.predict_many(items)
        assert vec == [p for p, _ in self._scalar(hw, physical, items)]

    def test_results_are_plain_floats(self):
        """Memoized values must stay JSON-serialisable Python floats, not
        numpy scalars, for the persistent compile cache."""
        hw, comp, physical, items = self._context()
        with EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        ) as engine:
            for predicted, measured in engine.measure_many(items[:8]):
                assert type(predicted) is float
                assert type(measured) is float


class TestTunerVectorized:
    def test_vectorized_flag_never_changes_the_answer(self):
        """Batch evaluation is the only path a tune takes; every trial it
        reports must be what the scalar evaluators give for that trial's
        lowered schedule, and the best is the smallest measurement."""
        comp = make_operator("GMM", m=64, n=64, k=64)
        hw = get_hardware("v100")
        config = TunerConfig(
            population=8,
            generations=2,
            measure_top=8,
            refine_rounds=1,
            refine_neighbors=4,
            n_workers=1,
        )
        reset_global_memo()
        result = Tuner(hw, config).tune(comp)
        assert result.trials
        for trial in result.trials:
            assert trial.predicted_us == predict_latency(trial.scheduled, hw).total_us
            if trial.measured_us is not None:
                assert (
                    trial.measured_us
                    == simulate_cycles(trial.scheduled, hw).total_us
                )
        measured = [t.measured_us for t in result.trials if t.measured_us is not None]
        assert result.best_us == min(measured)


@functools.lru_cache(maxsize=None)
def _property_context():
    hw = get_hardware("v100")
    comp = make_operator("GMM", m=64, n=64, k=64)
    pm = _mappings_for(hw, comp, limit=1)[0]
    return hw, pm, MappingTable([pm]).spatial_names(0)


class TestPropertyBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_schedule_is_bit_identical(self, data):
        """Hypothesis-constructed schedules — including left-out and
        degenerate unit splits, oversized factors, vectorize widths off
        the sampled grid — produce bit-identical total_us / predicted
        values: the prediction equals the object's, the measurement that
        of the row's canonical decode."""
        hw, pm, names = _property_context()
        splits = {}
        for name in names:
            if data.draw(st.booleans(), label=f"split:{name}"):
                splits[name] = DimSplit(
                    warp=data.draw(st.integers(1, 8), label=f"warp:{name}"),
                    seq=data.draw(st.integers(1, 8), label=f"seq:{name}"),
                )
        schedule = Schedule(
            splits=splits,
            reduce_stage=data.draw(st.integers(1, 8), label="reduce_stage"),
            double_buffer=data.draw(st.booleans(), label="double_buffer"),
            unroll=data.draw(st.sampled_from([1, 2, 4]), label="unroll"),
            vectorize=data.draw(st.sampled_from([1, 2, 3, 4, 8, 16]), label="vec"),
        )
        table, rows, batch = _one_mapping(pm, [schedule])
        predicted = predict_latency(lower_schedule(pm, schedule), hw)
        # The simulator's jitter is keyed by the canonical describe
        # string the row stands for, which differs from the object's
        # own when the object leaves a split out.
        (canonical,) = schedules_from_rows(names, batch)
        timing = simulate_cycles(lower_schedule(pm, canonical), hw)
        bp = batch_predict(table, rows, batch, hw)
        bt = batch_simulate(table, rows, batch, hw)
        assert bp.total_us[0] == predicted.total_us
        assert bt.total_us[0] == timing.total_us
