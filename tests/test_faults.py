"""Failure handling: the opt-in pool fails loudly, the stores stay crash-safe.

Every evaluator is a pure function of the candidate, so a pooled
evaluation can only return the in-process answer or fail.  The contract
under test:

* a pooled tune (every batch forced onto the pool) is byte-identical to
  an inline one;
* a task that raises reaches the caller with its exception type intact,
  and the pool stays usable;
* a worker that dies makes the next batch raise ``BrokenProcessPool``
  promptly — it is not waited on, respawned or re-run inline;
* the compile cache survives a writer killed mid-append: the torn line
  costs that one entry and the next append resyncs
  (``CompileCache(torn_write=True)`` writes what such a crash leaves);
* run manifests are written atomically and carry no ``faults`` section.
"""

import dataclasses
import importlib
import json
import multiprocessing
import os
import random
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.compiler as compiler_mod
import repro.engine as engine_pkg
import repro.engine.engine as engine_mod
import repro.engine.pool as pool_mod
from repro.compiler import amos_compile
from repro.engine import (
    CompileCache,
    EvaluationEngine,
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

#: The fault-tolerance knobs the pool no longer has.
REMOVED_KNOBS = {
    "eval_timeout_s",
    "max_retries",
    "retry_backoff_s",
    "fault_plan",
    "min_pool_batch",
}

#: How long a batch on a pool with a dead worker may take to raise.
PROMPT_S = 5.0


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
    rng = random.Random(0)
    items = []
    for i in range(n):
        mi = i % len(physical)
        items.append((mi, ScheduleSpace(physical[mi]).sample(rng).to_dict(), measure))
    return items


def schedule_items(physical, seed, per_mapping=3):
    """(mapping_index, Schedule) pairs for every mapping."""
    rng = random.Random(seed)
    items = []
    for i, pm in enumerate(physical):
        space = ScheduleSpace(pm)
        items.extend((i, space.sample(rng)) for _ in range(per_mapping))
    return items


def pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def kill_one_worker(before: set[int]) -> None:
    """SIGKILL one pool worker (a child not in ``before``) and wait, up to
    ``PROMPT_S``, until it is gone.

    The executor's manager thread reaps dead workers too.  When it wins
    the race, ``victim.join`` finds no child to wait for (``ECHILD``)
    and leaves ``exitcode`` at ``None``; so a pid that no longer exists
    counts as gone, as does the ``-SIGKILL`` exit code when ``join``
    wins.
    """
    workers = [p for p in multiprocessing.active_children() if p.pid not in before]
    assert workers, "the pool started no worker"
    victim = workers[0]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + PROMPT_S
    while victim.exitcode != -signal.SIGKILL and pid_exists(victim.pid):
        assert time.monotonic() < deadline, "the killed worker did not exit"
        victim.join(timeout=0.05)
    assert victim.exitcode in (-signal.SIGKILL, None)


def refuse_inline(monkeypatch):
    """Make any parent-side evaluation fail the test (workers import
    their own, unpatched modules)."""

    def refuse(*args, **kwargs):
        raise AssertionError("evaluation fell back to the parent process")

    monkeypatch.setattr(pool_mod, "_eval_item_with", refuse)
    monkeypatch.setattr(engine_mod, "evaluate_batch", refuse)


class TestFaultPlan:
    """The scripted fault plan is gone; the one injection left is the
    compile cache's torn write, set on the cache itself."""

    def entry(self, n):
        return {"comp_fp": f"c{n}", "hw_fp": "h", "config_fp": "b", "latency_us": n}

    def test_actions_fire_only_below_fault_attempts(self, tmp_path):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.faults")
        assert not hasattr(engine_pkg, "FaultPlan")
        assert not hasattr(engine_pkg, "FaultPolicy")
        # The injection fires only on the cache built with it.
        torn = CompileCache(str(tmp_path / "torn"), torn_write=True)
        clean = CompileCache(str(tmp_path / "clean"))
        torn.store("a", self.entry(1))
        clean.store("a", self.entry(1))
        assert torn.lookup("a") is None
        assert clean.lookup("a") is not None
        with open(torn.path, "rb") as fh:
            assert not fh.read().endswith(b"\n")
        with open(clean.path, "rb") as fh:
            assert fh.read().endswith(b"\n")

    def test_persistent_faults(self, tmp_path):
        # Every store of a torn-write cache is torn, not only the first,
        # and each torn line starts on a line of its own.
        torn = CompileCache(str(tmp_path), torn_write=True)
        for n in range(3):
            torn.store(f"k{n}", self.entry(n))
        assert len(torn) == 0
        reloaded = CompileCache(str(tmp_path))
        assert len(reloaded) == 0
        assert reloaded.skipped_lines == 3


class TestWorkerPoolFaults:
    """Direct WorkerPool tests: failures raise in the parent, compared
    against the inline oracle where a batch succeeds."""

    @pytest.fixture(scope="class")
    def oracle(self):
        comp, physical = small_physical()
        hw = get_hardware("v100")
        items = scalar_items(physical)
        expected = [_eval_item_with(physical, hw, item) for item in items]
        return physical, hw, items, expected

    def bad_items(self, oracle):
        """A batch whose third task indexes past the mapping list."""
        physical, _, items, _ = oracle
        bad = list(items)
        _, schedule_dict, measure = bad[2]
        bad[2] = (len(physical), schedule_dict, measure)
        return bad

    def test_raising_tasks_are_retried(self, oracle):
        # Not retried any more: the task's own exception type reaches the
        # caller, on the scalar and on the group path.
        physical, hw, items, _ = oracle
        with WorkerPool(physical, hw, n_workers=2) as pool:
            with pytest.raises(IndexError):
                pool.evaluate(self.bad_items(oracle))
            engine = EvaluationEngine(
                make_operator("GMM", m=64, n=64, k=64), physical, hw, memo=MemoCache()
            )
            _, batch = engine.encode_rows(schedule_items(physical, 3, per_mapping=1))
            with pytest.raises(IndexError):
                pool.evaluate_groups(
                    [(np.full(len(batch), len(physical)), batch, True)]
                )

    def test_persistent_failure_is_quarantined(self, oracle):
        # Nothing is quarantined: the failing batch raises, and the next
        # batch on the same pool is still correct.
        physical, hw, items, expected = oracle
        with WorkerPool(physical, hw, n_workers=2) as pool:
            with pytest.raises(IndexError):
                pool.evaluate(self.bad_items(oracle))
            assert pool.evaluate(items) == expected
            assert pool.evaluate(items) == expected

    def test_killed_worker_respawns_pool(self, oracle, monkeypatch):
        # No respawn: the batch after a worker death raises promptly and
        # nothing is evaluated in the parent instead.
        physical, hw, items, expected = oracle
        before = {p.pid for p in multiprocessing.active_children()}
        with WorkerPool(physical, hw, n_workers=2) as pool:
            assert pool.evaluate(items) == expected
            kill_one_worker(before)
            refuse_inline(monkeypatch)
            start = time.monotonic()
            with pytest.raises(BrokenProcessPool):
                pool.evaluate(items)
            assert time.monotonic() - start < PROMPT_S

    def test_repeated_pool_deaths_degrade_to_inline(self, pool_every_batch, monkeypatch):
        # No degradation to inline either: through the engine, every
        # batch after the death raises; none is evaluated in the parent.
        comp, physical = small_physical()
        hw = get_hardware("v100")
        before = {p.pid for p in multiprocessing.active_children()}
        with EvaluationEngine(comp, physical, hw, n_workers=2, memo=MemoCache()) as engine:
            engine.measure_rows(*engine.encode_rows(schedule_items(physical, 1)))
            kill_one_worker(before)
            refuse_inline(monkeypatch)
            for seed in (2, 3):
                rows = engine.encode_rows(schedule_items(physical, seed))
                start = time.monotonic()
                with pytest.raises(BrokenProcessPool):
                    engine.measure_rows(*rows)
                assert time.monotonic() - start < PROMPT_S

    def test_hung_task_hits_deadline_and_recovers(self):
        # The batch deadline and the retry knobs are gone from the config.
        fields = {f.name for f in dataclasses.fields(TunerConfig)}
        assert REMOVED_KNOBS.isdisjoint(fields)
        for knob in sorted(REMOVED_KNOBS):
            with pytest.raises(TypeError):
                TunerConfig(**{knob: 1})
        with pytest.raises(TypeError):
            TunerConfig(eval_timeout_s=3.0)

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
    """A forced pool through the EvaluationEngine front door, by rows and
    through the object adapter, against the n_workers=1 inline engine."""

    @pytest.mark.parametrize("rows", [True, False])
    def test_faulted_engine_matches_inline(self, rows, pool_every_batch):
        comp, physical = small_physical()
        hw = get_hardware("v100")
        items = schedule_items(physical, 1)

        inline = EvaluationEngine(comp, physical, hw, n_workers=1, memo=MemoCache())
        expected = inline.measure_many(items)

        with EvaluationEngine(
            comp, physical, hw, n_workers=2, memo=MemoCache()
        ) as pooled:
            if rows:
                predicted, measured = pooled.measure_rows(*pooled.encode_rows(items))
                got = list(zip(predicted.tolist(), measured.tolist()))
            else:
                got = pooled.measure_many(items)
            assert pooled._pool is not None  # the pool really evaluated
        assert got == expected


class TestTuneUnderFaults:
    def test_faulted_tune_is_byte_identical(self, tmp_path, pool_every_batch):
        """A tune with every batch on a 2-worker pool equals the inline
        tune, and its manifest shows the pool ran and has no ``faults``
        section."""
        comp = make_operator("GMM", m=64, n=64, k=64)
        serial_dir = tmp_path / "runs_serial"
        pooled_dir = tmp_path / "runs_pooled"
        serial = dataclasses.replace(FAST, n_workers=1, run_dir=str(serial_dir))
        pooled = dataclasses.replace(FAST, n_workers=2, run_dir=str(pooled_dir))

        want = Tuner(get_hardware("v100"), serial).tune(comp)
        reset_global_memo()
        got = Tuner(get_hardware("v100"), pooled).tune(comp)

        assert tune_fingerprint(got) == tune_fingerprint(want)
        assert got.best_us == want.best_us
        assert got.best.schedule.describe() == want.best.schedule.describe()

        [pooled_run] = load_runs(pooled_dir)
        [serial_run] = load_runs(serial_dir)
        assert pooled_run.cache["pool_batches"] >= 1
        assert serial_run.cache["pool_batches"] == 0
        for run_dir in (serial_dir, pooled_dir):
            [path] = run_dir.glob("run_*.json")
            assert "faults" not in json.loads(path.read_text())


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
        cache = CompileCache(str(tmp_path), torn_write=True)
        cache.store("a", self.entry(1))
        # The torn entry is never served, not even by the writer.
        assert cache.lookup("a") is None
        # The writer knows the file ends mid-line and resyncs.
        cache.torn_write = False
        cache.store("b", self.entry(2))
        assert cache.lookup("b") is not None

        fresh = CompileCache(str(tmp_path))
        assert fresh.lookup("a") is None
        assert fresh.lookup("b") is not None
        assert fresh.skipped_lines == 1

    def test_compile_survives_corrupt_cache_writes(self, tmp_path, monkeypatch):
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(FAST, n_workers=1, cache_dir=str(tmp_path))

        torn = CompileCache(str(tmp_path), torn_write=True)
        monkeypatch.setattr(compiler_mod, "compile_cache_for", lambda cache_dir: torn)
        first = amos_compile(comp, "v100", config)
        monkeypatch.undo()
        reset_compile_caches()
        reset_global_memo()

        # The torn entry must read as a miss; the re-tune must agree with
        # the first run and leave a well-formed entry behind.
        second = amos_compile(comp, "v100", config)
        assert second.latency_us == first.latency_us
        cache = CompileCache(str(tmp_path))
        assert cache.skipped_lines >= 1
        assert len(cache) == 1

        reset_compile_caches()
        reset_global_memo()
        third = amos_compile(comp, "v100", config)
        assert third.latency_us == first.latency_us

    def test_manifest_writes_are_atomic(self, tmp_path):
        comp = make_operator("GMM", m=64, n=64, k=64)
        config = dataclasses.replace(FAST, n_workers=1, run_dir=str(tmp_path))
        Tuner(get_hardware("v100"), config).tune(comp)
        names = os.listdir(tmp_path)
        runs = [n for n in names if n.startswith("run_")]
        assert len(runs) == 1
        assert not [n for n in names if n.endswith(".tmp")]
        [record] = load_runs(tmp_path)
        assert record.run_id
        assert "faults" not in json.loads((tmp_path / runs[0]).read_text())


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
