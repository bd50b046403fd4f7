"""Flight recorder: cross-process obs merge, run manifests, regression gate.

Covers the PR's contracts end to end:

* ``MetricsRegistry.snapshot()/diff()/merge()`` ship period deltas that
  cannot double-count (the property the pool's per-task payloads rely on);
* a pooled tune merges worker spans/metrics into the parent so funnel
  counts and counter totals are identical for any worker count;
* the Chrome-trace export is schema-valid and shows worker lanes;
* ``RunRecord`` manifests round-trip and match the in-process ExploreLog;
* ``compare_runs`` / ``repro report --compare`` flag injected latency
  regressions (non-zero exit) and pass identical runs (zero exit);
* the ``scalar_parity`` fixture finds zero batch-vs-scalar mismatches
  on every registered device, and the engine has no runtime
  ``divergence_rate`` check left; an old manifest's ``divergence``
  section is dropped on load and never gates.
"""

import json
from pathlib import Path

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.compiler import amos_compile
from repro.engine import reset_compile_caches, reset_global_memo
from repro.engine.engine import EvaluationEngine
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.model import get_hardware, list_hardware
from repro.obs.chrome_trace import chrome_trace_events, export_chrome_trace
from repro.obs.explore_log import ExploreLog, use_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import (
    RUN_SCHEMA,
    CompareThresholds,
    RunRecord,
    compare_runs,
    load_runs,
    render_comparison,
    write_run,
)

FAST = TunerConfig(
    population=8, generations=2, measure_top=8, refine_rounds=1, refine_neighbors=4
)


@pytest.fixture(autouse=True)
def clean_state():
    """Obs off and empty, memo/compile caches cold, before and after."""
    obs.disable()
    obs.reset()
    reset_global_memo()
    reset_compile_caches()
    yield
    obs.disable()
    obs.reset()
    reset_global_memo()
    reset_compile_caches()


def small_gemm():
    return make_operator("GMM", m=64, n=64, k=64)


def fast_config(**overrides) -> TunerConfig:
    import dataclasses

    return dataclasses.replace(FAST, **overrides)


# ----------------------------------------------------------------------
# Metrics snapshot / diff / merge
# ----------------------------------------------------------------------
class TestMetricsDeltas:
    def test_counter_diff_is_period_delta(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(7)
        base = reg.snapshot()
        reg.counter("x").inc(3)
        (delta,) = reg.diff(base)
        assert delta["name"] == "x"
        assert delta["value"] == 3  # the period's delta, not the total 10

    def test_diff_omits_idle_metrics(self):
        reg = MetricsRegistry()
        reg.counter("busy").inc()
        reg.counter("idle").inc()
        reg.counter("quiet").inc(0.0)
        base = reg.snapshot()
        reg.counter("busy").inc()
        names = [d["name"] for d in reg.diff(base)]
        assert names == ["busy"]

    def test_retried_task_cannot_double_count(self):
        """The pool ships per-task deltas; merging each task's delta once
        yields the true total even though the worker registry is
        cumulative (shipping raw snapshots would have merged 3 + 5)."""
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        base = worker.snapshot()
        worker.counter("evals").inc(3)
        parent.merge(worker.diff(base))
        base = worker.snapshot()  # second task starts from a new snapshot
        worker.counter("evals").inc(2)
        parent.merge(worker.diff(base))
        assert parent.counter("evals").value == 5

    def test_histogram_diff_and_merge(self):
        # Counters are the one metric kind: a histogram-shaped record (an
        # old worker's payload) is refused by merge, not dropped silently,
        # and counters merged before it keep their increments.
        parent = MetricsRegistry()
        record = {"kind": "histogram", "name": "lat", "count": 2, "sum": 302.0}
        with pytest.raises(ValueError, match="unknown metric kind 'histogram'"):
            parent.merge([{"kind": "counter", "name": "evals", "value": 2.0}, record])
        assert parent.names() == ["evals"]
        assert parent.counter("evals").value == 2.0

    def test_gauge_diff_carries_current_value(self):
        # A diff carries counter deltas only, and a gauge-shaped record
        # is refused by merge.
        reg = MetricsRegistry()
        reg.counter("depth").inc(2.0)
        base = reg.snapshot()
        reg.counter("depth").inc(7.0)
        (delta,) = reg.diff(base)
        assert delta == {"kind": "counter", "name": "depth", "value": 7.0}
        other = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown metric kind 'gauge'"):
            other.merge([{"kind": "gauge", "name": "depth", "value": 9.0}])

    def test_merge_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricsRegistry().merge([{"name": "x", "kind": "exotic"}])


# ----------------------------------------------------------------------
# Cross-process merge determinism
# ----------------------------------------------------------------------
def _tune_telemetry(n_workers: int):
    """Run one obs-enabled tune; return (funnel, counters)."""
    obs.reset()
    reset_global_memo()
    obs.enable()
    log = ExploreLog()
    tuner = Tuner(
        get_hardware("v100"),
        fast_config(n_workers=n_workers),
    )
    with use_log(log):
        tuner.tune(small_gemm())
    snapshot = obs.get_registry().snapshot()
    counters = {
        m["name"]: m["value"]
        for m in snapshot
        if m["kind"] == "counter" and not m["name"].startswith("engine.pool.")
    }
    obs.disable()
    return log.funnel.to_dict(), counters


class TestCrossProcessMerge:
    def test_counter_totals_identical_for_any_worker_count(self, pool_every_batch):
        serial = _tune_telemetry(n_workers=1)
        pooled = _tune_telemetry(n_workers=4)
        assert serial[0] == pooled[0]  # funnel counts
        assert serial[1] == pooled[1]  # counters (pool bookkeeping excluded)

    def test_worker_spans_merge_with_lanes_and_parents(self, pool_every_batch):
        obs.enable()
        tuner = Tuner(
            get_hardware("v100"),
            fast_config(n_workers=2),
        )
        tuner.tune(small_gemm())
        spans = obs.get_tracer().spans()
        worker_spans = [s for s in spans if "lane" in s.attrs]
        assert worker_spans, "pooled tune produced no merged worker spans"
        assert {s.name for s in worker_spans} <= {
            "worker.eval",
            "worker.eval_chunk",
        }
        assert {s.attrs["lane"] for s in worker_spans} <= {1, 2}
        parent_ids = {s.span_id for s in spans}
        for s in worker_spans:
            assert s.parent_id in parent_ids  # re-parented under a live span
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))  # merge never collides ids


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_schema_and_worker_lanes(self, tmp_path, pool_every_batch):
        obs.enable()
        tuner = Tuner(
            get_hardware("v100"),
            fast_config(n_workers=2),
        )
        tuner.tune(small_gemm())
        path = export_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(Path(path).read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["tid"], int) and event["pid"] == 0
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
                assert "span_id" in event["args"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "main" in names
        assert any(n.startswith("worker-") for n in names)
        lane_tids = {e["tid"] for e in events if e["ph"] == "M"}
        assert {e["tid"] for e in events if e["ph"] == "X"} <= lane_tids
        assert min(e["ts"] for e in events if e["ph"] == "X") == 0.0

    def test_empty_spans_export(self):
        assert chrome_trace_events([]) == []


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
class TestRunRecord:
    def test_write_load_round_trip(self, tmp_path):
        record = RunRecord(
            run_id="abc123",
            created_at="2026-01-02T03:04:05+00:00",
            kind="tune",
            operator="gemm",
            hardware="v100",
            fingerprints={"tuner_config": "f" * 16},
            outcome={"latency_us": 12.5},
            funnel={"enumerated": 24, "measured": 3},
        )
        write_run(record, tmp_path)
        (loaded,) = load_runs(tmp_path)
        assert loaded.to_dict() == record.to_dict()
        assert loaded.latency_us == 12.5
        assert loaded.series_key() == ("gemm", "v100", "f" * 16)

    def test_load_skips_bad_files(self, tmp_path):
        write_run(RunRecord(run_id="ok", created_at="2026-01-01T00:00:00"), tmp_path)
        (tmp_path / "run_bad.json").write_text("{not json")
        (tmp_path / "run_old.json").write_text(
            json.dumps({"schema": RUN_SCHEMA + 1, "run_id": "old"})
        )
        runs = load_runs(tmp_path)
        assert [r.run_id for r in runs] == ["ok"]

    def test_load_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_runs(tmp_path / "nowhere")

    def test_compile_writes_one_manifest_matching_explore_log(self, tmp_path):
        comp = small_gemm()
        config = fast_config(n_workers=1, run_dir=str(tmp_path))
        kernel = amos_compile(comp, "v100", config)
        (record,) = load_runs(tmp_path)  # nested tune recorder no-opped
        assert record.kind == "compile"
        assert record.operator == comp.name and record.hardware == "v100"
        assert record.outcome["latency_us"] == kernel.latency_us
        assert record.outcome["num_mappings"] == kernel.num_mappings
        assert record.schema == RUN_SCHEMA
        assert record.wall_s > 0 and record.candidates_per_sec > 0
        assert record.cache["memo_misses"] > 0
        assert "tuner.tune" in record.phases
        assert not obs.enabled()  # recorder restored the toggle

        # The manifest's funnel and model-quality numbers are the same
        # an in-process ExploreLog sees for the identical run.
        reset_global_memo()
        obs.enable()
        log = ExploreLog()
        with use_log(log):
            amos_compile(comp, "v100", fast_config(n_workers=1))
        assert record.funnel == log.funnel.to_dict()
        quality = log.model_quality()
        assert record.model_quality["pairwise_accuracy"] == pytest.approx(
            quality["pairwise_accuracy"]
        )

    def test_tune_writes_manifest_without_compile(self, tmp_path):
        tuner = Tuner(
            get_hardware("v100"), fast_config(n_workers=1, run_dir=str(tmp_path))
        )
        result = tuner.tune(small_gemm())
        (record,) = load_runs(tmp_path)
        assert record.kind == "tune"
        assert record.outcome["latency_us"] == result.best_us
        assert record.fingerprints.keys() == {
            "computation",
            "hardware",
            "tuner_config",
        }


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
def _run(latency=10.0, cps=100.0, accuracy=0.9, **kw) -> RunRecord:
    return RunRecord(
        run_id=kw.get("run_id", "r1"),
        created_at=kw.get("created_at", "2026-01-01T00:00:00"),
        operator=kw.get("operator", "gemm"),
        hardware=kw.get("hardware", "v100"),
        fingerprints={"tuner_config": "cfg0"},
        outcome={"latency_us": latency},
        candidates_per_sec=cps,
        model_quality={"pairwise_accuracy": accuracy},
    )


class TestCompareRuns:
    def test_identical_runs_pass(self):
        report = compare_runs([_run()], [_run()])
        assert report["regressions"] == []
        assert "no regressions" in render_comparison(report)

    def test_latency_regression_flagged(self):
        report = compare_runs([_run(latency=10.0)], [_run(latency=12.5)])
        (reg,) = report["regressions"]
        assert reg["metric"] == "latency"
        assert reg["drift"] == pytest.approx(0.25)
        assert "REGRESSION" in render_comparison(report)

    def test_latency_within_threshold_passes(self):
        report = compare_runs([_run(latency=10.0)], [_run(latency=11.0)])
        assert report["regressions"] == []

    def test_ignored_metric_not_flagged_but_reported(self):
        thresholds = CompareThresholds(ignore=("throughput",))
        report = compare_runs(
            [_run(cps=100.0)], [_run(cps=1.0)], thresholds
        )
        assert report["regressions"] == []
        (comparison,) = report["comparisons"]
        assert comparison["throughput"]["drift"] == pytest.approx(0.99)

    def test_accuracy_drop_flagged(self):
        report = compare_runs([_run(accuracy=0.9)], [_run(accuracy=0.8)])
        assert [r["metric"] for r in report["regressions"]] == ["accuracy"]

    def test_divergence_mismatch_always_flagged(self, tmp_path):
        """A manifest recorded while the runtime divergence check existed
        may report a mismatch; the section is dropped on load, so it
        neither gates nor shows in the comparison."""
        old = _run().to_dict()
        old["divergence"] = {"checked": 10.0, "mismatched": 1.0}
        (tmp_path / "run_old.json").write_text(json.dumps(old))
        [current] = load_runs(tmp_path)
        assert "divergence" not in current.to_dict()
        report = compare_runs([_run()], [current])
        assert report["regressions"] == []
        assert "divergence" not in render_comparison(report)

    def test_unmatched_series_is_not_a_regression(self):
        report = compare_runs([_run()], [_run(operator="conv")])
        assert report["regressions"] == []
        assert report["unmatched"] == ["conv on v100"]

    def test_latest_run_per_series_wins(self):
        old = _run(latency=10.0, created_at="2026-01-01T00:00:00")
        new = _run(latency=50.0, created_at="2026-01-02T00:00:00")
        report = compare_runs([_run(latency=50.0)], [old, new])
        assert report["regressions"] == []  # the newer (matching) run compared


class TestCompareCli:
    def _write(self, directory, latency):
        directory.mkdir(exist_ok=True)
        write_run(_run(latency=latency), directory)

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        self._write(tmp_path / "base", 10.0)
        self._write(tmp_path / "cur", 10.0)
        code = cli_main(
            ["report", "--compare", str(tmp_path / "base"), str(tmp_path / "cur")]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        self._write(tmp_path / "base", 10.0)
        self._write(tmp_path / "cur", 12.5)  # +25% > the 20% threshold
        code = cli_main(
            ["report", "--compare", str(tmp_path / "base"), str(tmp_path / "cur")]
        )
        assert code == 1
        assert "REGRESSION latency" in capsys.readouterr().out

    def test_ignore_flag_waives_metric(self, tmp_path):
        self._write(tmp_path / "base", 10.0)
        self._write(tmp_path / "cur", 12.5)
        code = cli_main(
            [
                "report",
                "--compare",
                str(tmp_path / "base"),
                str(tmp_path / "cur"),
                "--ignore",
                "latency",
            ]
        )
        assert code == 0

    def test_quick_run_dir_flags_produce_manifest(self, tmp_path):
        run_dir = tmp_path / "runs"
        code = cli_main(
            [
                "compile",
                "GMM",
                "--params",
                "m=64",
                "n=64",
                "k=64",
                "--quick",
                "--workers",
                "1",
                "--run-dir",
                str(run_dir),
            ]
        )
        assert code == 0
        (record,) = load_runs(run_dir)
        assert record.kind == "compile"


# ----------------------------------------------------------------------
# Batch-versus-scalar parity (the test-time check that replaced the
# runtime divergence watchdog)
# ----------------------------------------------------------------------
class TestDivergenceWatchdog:
    def test_rate_validation(self):
        """The engine no longer takes a ``divergence_rate``, nor does the
        tuner's config carry one: parity is checked by the tests."""
        comp = small_gemm()
        tuner = Tuner(get_hardware("v100"), FAST)
        physical = tuner.candidate_mappings(comp)
        with pytest.raises(TypeError, match="divergence_rate"):
            EvaluationEngine(
                comp, physical, get_hardware("v100"), divergence_rate=1.0
            )
        with pytest.raises(TypeError, match="divergence_rate"):
            TunerConfig(divergence_rate=1.0)

    def test_zero_mismatches_on_every_target(self, scalar_parity):
        """Every evaluated row of a tune on every registered device: the
        batch evaluators must agree exactly with the scalar oracle."""
        comp = small_gemm()
        checked_anywhere = 0
        for name in list_hardware():
            tuner = Tuner(get_hardware(name), fast_config(n_workers=1))
            if not tuner.candidate_mappings(comp):
                continue  # target cannot map a gemm; nothing to check
            reset_global_memo()
            parity = scalar_parity(1.0)
            tuner.tune(comp)
            assert parity.mismatches == [], f"batch/scalar divergence on {name}"
            checked_anywhere += parity.checked
        assert checked_anywhere > 0
