"""Fault tolerance: the engine must survive faults without changing results.

The contract under test is the determinism invariant extended to
failure: injected worker crashes, hangs, task exceptions and torn cache
writes may cost retries, pool respawns, quarantines or degradation —
but the *results* (and, for a full tune, the chosen mapping, schedule
and latency) must be byte-identical to a fault-free serial run, and the
recovery actions must be visible in ``fault_stats`` / the flight
recorder's ``faults`` manifest section.

Fault injection is deterministic: a :class:`FaultPlan` scripts faults
against task ordinals, which the pool assigns in submission order (and
records per batch in ``batch_log``), so every test aims its faults at
known tasks and the same tasks on every run.
"""

import dataclasses
import json
import os
import threading

import pytest

from repro.compiler import amos_compile
from repro.engine import (
    CompileCache,
    EvaluationEngine,
    FaultPlan,
    FaultPolicy,
    MemoCache,
    reset_compile_caches,
    reset_global_memo,
)
from repro.engine.pool import WorkerPool, _eval_item_with
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.model import get_hardware
from repro.obs.runlog import load_runs
from repro.schedule.space import ScheduleSpace


FAST = TunerConfig(
    population=8, generations=2, measure_top=8, refine_rounds=1, refine_neighbors=4
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_global_memo()
    reset_compile_caches()
    yield
    reset_global_memo()
    reset_compile_caches()


def small_physical(comp=None):
    comp = comp or make_operator("GMM", m=64, n=64, k=64)
    tuner = Tuner(get_hardware("v100"), FAST)
    return comp, tuner.candidate_mappings(comp)


def tune_fingerprint(result):
    """Everything order-sensitive about a tune run, comparably rendered."""
    return [
        (t.mapping_index, t.predicted_us, t.measured_us, t.scheduled.schedule.describe())
        for t in result.trials
    ]


def scalar_items(physical, n=8, measure=True):
    """Picklable scalar task descriptors spread across the mappings."""
    import random

    rng = random.Random(0)
    items = []
    for i in range(n):
        mi = i % len(physical)
        items.append((mi, ScheduleSpace(physical[mi]).sample(rng).to_dict(), measure))
    return items


class TestFaultPlan:
    def test_actions_fire_only_below_fault_attempts(self):
        plan = FaultPlan(kill_on=(1,), hang_on=(2,), raise_on=(3,))
        assert plan.action_for(1, 0) == "kill"
        assert plan.action_for(2, 0) == "hang"
        assert plan.action_for(3, 0) == "raise"
        assert plan.action_for(0, 0) is None
        # Default fault_attempts=1: the first retry succeeds.
        for seq in (1, 2, 3):
            assert plan.action_for(seq, 1) is None

    def test_persistent_faults(self):
        plan = FaultPlan(raise_on=(0,), fault_attempts=99)
        assert plan.action_for(0, 5) == "raise"
        assert plan.action_for(1, 5) is None


class TestWorkerPoolFaults:
    """Direct WorkerPool tests: every recovery path, compared against the
    inline oracle, with its fault_stats tally."""

    @pytest.fixture(scope="class")
    def oracle(self):
        comp, physical = small_physical()
        hw = get_hardware("v100")
        items = scalar_items(physical)
        expected = [_eval_item_with(physical, hw, item) for item in items]
        return physical, hw, items, expected

    def run_pool(self, oracle, plan, policy=None):
        physical, hw, items, expected = oracle
        with WorkerPool(
            physical, hw, n_workers=2, policy=policy, fault_plan=plan
        ) as pool:
            results = pool.evaluate(items)
            stats = dict(pool.fault_stats)
            degraded = pool.degraded
        assert results == expected
        return stats, degraded

    def test_raising_tasks_are_retried(self, oracle):
        stats, degraded = self.run_pool(oracle, FaultPlan(raise_on=(0, 3)))
        assert stats["task_errors"] == 2
        assert stats["retries"] == 2
        assert stats["respawns"] == 0
        assert stats["quarantined"] == 0
        assert not degraded

    def test_persistent_failure_is_quarantined(self, oracle):
        policy = FaultPolicy(max_retries=1, backoff_s=0.0)
        plan = FaultPlan(raise_on=(2,), fault_attempts=99)
        stats, degraded = self.run_pool(oracle, plan, policy)
        # initial failure + max_retries retries, then inline quarantine.
        assert stats["task_errors"] == 2
        assert stats["retries"] == 1
        assert stats["quarantined"] == 1
        assert not degraded

    def test_killed_worker_respawns_pool(self, oracle):
        stats, degraded = self.run_pool(oracle, FaultPlan(kill_on=(1,)))
        assert stats["worker_deaths"] >= 1
        assert stats["respawns"] == 1
        assert not degraded

    def test_repeated_pool_deaths_degrade_to_inline(self, oracle):
        plan = FaultPlan(kill_on=(0,), fault_attempts=99)
        stats, degraded = self.run_pool(oracle, plan)
        assert degraded
        assert stats["worker_deaths"] >= 2
        assert stats["respawns"] == 1
        assert stats["degraded"] == 1

    def test_hung_task_hits_deadline_and_recovers(self, oracle):
        physical, hw, items, expected = oracle
        warm = len(items)
        plan = FaultPlan(hang_on=(warm,), hang_s=120.0)
        with WorkerPool(physical, hw, n_workers=2, fault_plan=plan) as pool:
            # Warm batch: tasks 0..warm-1, no deadline while workers boot.
            assert pool.evaluate(items) == expected
            # Hang batch under a deadline the 120s sleep must blow.
            pool.policy = FaultPolicy(eval_timeout_s=3.0, backoff_s=0.0)
            assert pool.evaluate(items) == expected
            assert pool.fault_stats["timeouts"] == 1
            assert pool.fault_stats["respawns"] == 1
            assert not pool.degraded

    def test_exit_terminates_on_exception(self, oracle, monkeypatch):
        physical, hw, _, _ = oracle
        calls = []
        orig_terminate = WorkerPool.terminate
        monkeypatch.setattr(
            WorkerPool, "terminate", lambda self: calls.append((self, "terminate"))
        )
        monkeypatch.setattr(
            WorkerPool, "close", lambda self: calls.append((self, "close"))
        )
        try:
            with pytest.raises(RuntimeError):
                with WorkerPool(physical, hw, n_workers=2):
                    raise RuntimeError("tune aborted")
            assert [kind for _, kind in calls] == ["terminate"]
            with WorkerPool(physical, hw, n_workers=2):
                pass
            assert [kind for _, kind in calls] == ["terminate", "close"]
        finally:
            for pool, _ in calls:
                orig_terminate(pool)


class TestEngineFaults:
    """Fault recovery through the EvaluationEngine front door, by rows
    and through the object adapter, against the n_workers=1 inline
    engine."""

    @pytest.mark.parametrize("rows", [True, False])
    def test_faulted_engine_matches_inline(self, rows):
        comp, physical = small_physical()
        hw = get_hardware("v100")
        import random

        rng = random.Random(1)
        items = []
        for i, pm in enumerate(physical):
            space = ScheduleSpace(pm)
            items.extend((i, space.sample(rng)) for _ in range(3))

        inline = EvaluationEngine(
            comp, physical, hw, n_workers=1, memo=MemoCache()
        )
        expected = inline.measure_many(items)

        plan = FaultPlan(raise_on=(0,))
        with EvaluationEngine(
            comp,
            physical,
            hw,
            n_workers=2,
            memo=MemoCache(),
            min_pool_batch=1,
            fault_plan=plan,
        ) as faulted:
            if rows:
                predicted, measured = faulted.measure_rows(
                    *faulted.encode_rows(items)
                )
                got = list(zip(predicted.tolist(), measured.tolist()))
            else:
                got = faulted.measure_many(items)
            assert got == expected
        assert faulted.fault_stats["task_errors"] == 1
        assert faulted.fault_stats["retries"] == 1


class TestTuneUnderFaults:
    """The ISSUE acceptance run: a tune with a raise, a worker kill and a
    hang injected in three different batches finishes with results
    byte-identical to a fault-free serial tune, and the recovery shows
    up in the run manifests."""

    def test_faulted_tune_is_byte_identical(self, tmp_path, monkeypatch):
        comp = make_operator("GMM", m=64, n=64, k=64)
        hw_name = "v100"
        pooled = dataclasses.replace(FAST, n_workers=2, min_pool_batch=1)

        # Reconnaissance: same config, no faults, to learn the pool's
        # deterministic batch structure (ordinals are stable across runs
        # because retries keep their ordinals).
        pools = []
        orig_init = WorkerPool.__init__

        def record_init(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            pools.append(self)

        monkeypatch.setattr(WorkerPool, "__init__", record_init)
        Tuner(get_hardware(hw_name), pooled).tune(comp)
        monkeypatch.setattr(WorkerPool, "__init__", orig_init)
        batches = [log for pool in pools for log in pool.batch_log]
        assert len(batches) >= 3, f"need 3+ pool batches to aim faults: {batches}"

        # The recon run warmed the global memo; a warm memo would turn
        # every later batch into pure hits and starve the fault plan.
        reset_global_memo()

        # One fault per batch: a raising task, a killed worker, a hang.
        plan = FaultPlan(
            raise_on=(batches[0][0],),
            kill_on=(batches[1][0],),
            hang_on=(batches[2][0],),
            hang_s=120.0,
        )

        serial_dir = tmp_path / "runs_serial"
        faulted_dir = tmp_path / "runs_faulted"
        serial = dataclasses.replace(FAST, n_workers=1, run_dir=str(serial_dir))
        faulted = dataclasses.replace(
            pooled,
            run_dir=str(faulted_dir),
            fault_plan=plan,
            eval_timeout_s=10.0,
            retry_backoff_s=0.0,
        )

        want = Tuner(get_hardware(hw_name), serial).tune(comp)
        reset_global_memo()
        got = Tuner(get_hardware(hw_name), faulted).tune(comp)

        assert tune_fingerprint(got) == tune_fingerprint(want)
        assert got.best_us == want.best_us
        assert got.best.schedule.describe() == want.best.schedule.describe()

        [faulted_run] = load_runs(faulted_dir)
        [serial_run] = load_runs(serial_dir)
        assert faulted_run.faults.get("retries", 0) > 0
        assert faulted_run.faults.get("respawns", 0) > 0
        assert serial_run.faults.get("retries", 0) == 0
        assert serial_run.faults.get("respawns", 0) == 0


class TestCompileCacheCrashSafety:
    def entry(self, n):
        return {"comp_fp": f"c{n}", "hw_fp": "h", "config_fp": "b", "latency_us": n}

    def test_torn_final_line_is_skipped_and_resynced(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store("a", self.entry(1))
        # A writer died mid-append: half a line, no newline.
        with open(cache.path, "a") as fh:
            fh.write('{"key": "b", "vers')

        reset_compile_caches()
        reloaded = CompileCache(str(tmp_path))
        assert reloaded.lookup("a") is not None
        assert reloaded.lookup("b") is None
        assert reloaded.skipped_lines == 1

        # The next append must not glue onto the torn line.
        reloaded.store("c", self.entry(3))
        final = CompileCache(str(tmp_path))
        assert final.lookup("a") is not None
        assert final.lookup("c") is not None
        assert final.skipped_lines == 1  # still just the torn line

    def test_injected_torn_write_behaves_like_a_crash(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.store("a", self.entry(1), torn_write=True)
        # The torn entry is never served, not even by the writer.
        assert cache.lookup("a") is None
        # The writer knows the file ends mid-line and resyncs.
        cache.store("b", self.entry(2))
        assert cache.lookup("b") is not None

        fresh = CompileCache(str(tmp_path))
        assert fresh.lookup("a") is None
        assert fresh.lookup("b") is not None
        assert fresh.skipped_lines == 1

    def test_compile_survives_corrupt_cache_writes(self, tmp_path):
        comp = make_operator("GMM", m=64, n=64, k=64)
        corrupting = dataclasses.replace(
            FAST,
            n_workers=1,
            cache_dir=str(tmp_path),
            fault_plan=FaultPlan(corrupt_cache_writes=True),
        )
        clean = dataclasses.replace(FAST, n_workers=1, cache_dir=str(tmp_path))

        first = amos_compile(comp, "v100", corrupting)
        reset_compile_caches()
        reset_global_memo()

        # The torn entry must read as a miss; the re-tune must agree with
        # the faulted run and leave a well-formed entry behind.
        second = amos_compile(comp, "v100", clean)
        assert second.latency_us == first.latency_us
        cache = CompileCache(str(tmp_path))
        assert cache.skipped_lines >= 1
        assert len(cache) == 1

        reset_compile_caches()
        reset_global_memo()
        third = amos_compile(comp, "v100", clean)
        assert third.latency_us == first.latency_us

    def test_manifest_writes_are_atomic(self, tmp_path):
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(FAST, n_workers=1, run_dir=str(tmp_path))
        Tuner(get_hardware("v100"), config).tune(comp)
        names = os.listdir(tmp_path)
        assert len([n for n in names if n.startswith("run_")]) == 1
        assert not [n for n in names if n.endswith(".tmp")]
        [record] = load_runs(tmp_path)
        assert record.faults == {}


class TestMemoCacheLocking:
    def test_concurrent_reads_and_evicting_writes(self):
        memo = MemoCache(max_entries=64)
        errors = []

        def writer():
            try:
                for i in range(2000):
                    memo.put_prediction(f"w{i}".encode(), float(i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                for i in range(2000):
                    memo.get_prediction(f"w{i % 128}".encode())
                    memo.get_measurement(f"w{i % 128}".encode())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
