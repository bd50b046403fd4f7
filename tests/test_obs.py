"""Observability layer: tracer, metrics, telemetry, exporters."""

import threading
import time

import pytest

import repro.obs as obs
from repro.explore.tuner import Tuner, TunerConfig
from repro.model import get_hardware
from repro.obs.explore_log import ExploreLog, current_log, generation_stats, use_log
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, aggregate_spans

from conftest import make_small_gemm


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts disabled and empty, and leaks nothing."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_nesting_records_parent_child(self):
        with obs.tracing() as tracer:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # completion order
        inner, outer = spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_timing_and_attrs(self):
        with obs.tracing() as tracer:
            with obs.span("work", stage="test") as s:
                time.sleep(0.003)
                s.set(items=7)
        (span,) = tracer.spans()
        assert span.duration_us >= 3_000
        assert span.attrs == {"stage": "test", "items": 7}

    def test_child_duration_within_parent(self):
        with obs.tracing() as tracer:
            with obs.span("outer"):
                time.sleep(0.001)
                with obs.span("inner"):
                    time.sleep(0.001)
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["inner"].duration_us <= by_name["outer"].duration_us

    def test_decorator(self):
        @obs.traced("decorated.fn")
        def fn(x):
            return x * 2

        assert fn(3) == 6  # disabled: plain call
        with obs.tracing() as tracer:
            assert fn(4) == 8
        assert [s.name for s in tracer.spans()] == ["decorated.fn"]

    def test_aggregation_self_time_excludes_children(self):
        with obs.tracing() as tracer:
            with obs.span("parent"):
                for _ in range(3):
                    with obs.span("child"):
                        time.sleep(0.001)
        stats = {st.name: st for st in aggregate_spans(tracer.spans())}
        assert stats["child"].count == 3
        assert stats["parent"].count == 1
        assert stats["parent"].self_us <= stats["parent"].total_us
        assert stats["parent"].self_us == pytest.approx(
            stats["parent"].total_us - stats["child"].total_us, abs=1.0
        )

    def test_thread_safety_per_thread_nesting(self):
        tracer = Tracer()

        def worker(tag):
            with tracer.start(f"outer.{tag}"):
                with tracer.start(f"inner.{tag}"):
                    time.sleep(0.001)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans()
        assert len(spans) == 16
        by_name = {s.name: s for s in spans}
        for i in range(8):
            # Each thread's inner span parents to ITS OWN outer span.
            assert by_name[f"inner.{i}"].parent_id == by_name[f"outer.{i}"].span_id


class TestDisabledMode:
    def test_disabled_span_is_noop(self):
        with obs.span("never", x=1) as s:
            s.set(y=2)
        assert len(obs.get_tracer()) == 0

    def test_disabled_metrics_are_noop(self):
        obs.counter("c").inc()
        obs.counter("d").inc(5)
        assert obs.get_registry().names() == []

    def test_disabled_returns_shared_singletons(self):
        # The fast path allocates nothing: same object every call.
        assert obs.span("a") is obs.span("b")
        assert obs.counter("a") is obs.counter("b")

    def test_toggle_round_trip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        with obs.span("s"):
            pass
        obs.disable()
        assert not obs.enabled()
        assert len(obs.get_tracer()) == 1


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        # Counters are the one metric kind: no gauge accessor anywhere,
        # and every snapshot record is a counter.
        reg = MetricsRegistry()
        reg.counter("depth").inc(4)
        assert reg.snapshot() == [{"kind": "counter", "name": "depth", "value": 4.0}]
        assert not hasattr(reg, "gauge") and not hasattr(obs, "gauge")

    def test_histogram_bucketing(self):
        # The simulator's batch path records counters only: every row is
        # one sim.runs and, when feasible, one sim.bound.* increment.
        obs.enable()
        tuner = Tuner(get_hardware("v100"), TunerConfig(population=8, generations=2))
        tuner.tune(make_small_gemm(256, 256, 256))
        reg = obs.get_registry()
        sim = {m["name"]: m for m in reg.snapshot() if m["name"].startswith("sim.")}
        assert {m["kind"] for m in sim.values()} == {"counter"}
        bounds = [n for n in sim if n.startswith("sim.bound.")]
        assert bounds and set(sim) <= {"sim.runs", "sim.infeasible", *bounds}
        feasible = sim["sim.runs"]["value"] - sim.get("sim.infeasible", {}).get(
            "value", 0.0
        )
        assert sum(sim[n]["value"] for n in bounds) == feasible
        assert not hasattr(obs, "histogram")

    def test_histogram_quantile_and_validation(self, tensorcore):
        # One feasible scalar simulation is exactly two counter updates
        # (the count the disabled-overhead bench charges per call).
        from repro.mapping.generation import enumerate_mappings
        from repro.mapping.physical import lower_to_physical
        from repro.schedule.lowering import ScheduledMapping
        from repro.schedule.space import default_schedule
        from repro.sim.timing import simulate_cycles

        (mapping,) = enumerate_mappings(make_small_gemm(256, 256, 256), tensorcore)
        phys = lower_to_physical(mapping)
        obs.enable()
        timing = simulate_cycles(
            ScheduledMapping(phys, default_schedule(phys)), get_hardware("v100")
        )
        assert obs.get_registry().snapshot() == [
            {"kind": "counter", "name": f"sim.bound.{timing.bound}", "value": 1.0},
            {"kind": "counter", "name": "sim.runs", "value": 1.0},
        ]

    def test_registry_type_conflicts_rejected(self):
        # One kind, so no name can be registered twice as different kinds;
        # a record of any other kind (an old worker's histogram) is refused.
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError, match="unknown metric kind 'histogram'"):
            reg.merge([{"kind": "histogram", "name": "x", "count": 1}])
        assert reg.counter("x").value == 0.0

    def test_registry_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert [m["name"] for m in snap] == ["a", "b"]


class TestExploreLog:
    def test_funnel_consistency(self):
        log = ExploreLog()
        log.record_funnel("enumerated", 100)
        log.record_funnel("validated", 30)
        log.record_funnel("prefiltered", 10)
        log.record_funnel("measured", 10)
        assert log.funnel.is_consistent()
        log.record_funnel("measured", 50)  # now 60 > prefiltered 10
        assert not log.funnel.is_consistent()
        with pytest.raises(ValueError):
            log.record_funnel("bogus", 1)

    def test_generation_stats_skip_infinite(self):
        g = generation_stats(0, [1.0, 3.0, float("inf")], unique_candidates=2)
        assert g.best_fitness == 1.0
        assert g.mean_fitness == 2.0
        assert g.population == 3
        assert g.diversity == pytest.approx(2 / 3)

    def test_model_quality_uses_rank_metrics(self):
        log = ExploreLog()
        for p, m in [(1, 10), (2, 20), (3, 30), (4, 40)]:
            log.record_sample(p, m)
        log.record_sample(float("inf"), 5.0)  # infeasible: excluded
        q = log.model_quality(top_rates=(0.5,))
        assert q["num_samples"] == 4
        assert q["pairwise_accuracy"] == 1.0
        assert q["top_50pct_recall"] == 1.0

    def test_current_log_binding(self):
        assert current_log() is None
        log = ExploreLog()
        with use_log(log):
            assert current_log() is log
        assert current_log() is None


class TestJsonlRoundTrip:
    """A run's only record is its manifest plus its event stream; the
    report reads both back (there is no separate trace format)."""

    @staticmethod
    def record_live_run(run_dir, log):
        from repro.compiler import amos_compile
        from repro.obs import events as obs_events

        config = TunerConfig(
            population=8, generations=3, n_workers=1, run_dir=str(run_dir)
        )
        obs_events.enable_events()
        try:
            with obs.JsonlSink(run_dir / "events_t.jsonl", bus=obs_events.get_bus()):
                with use_log(log):
                    return amos_compile(make_small_gemm(256, 256, 256), "v100", config)
        finally:
            obs_events.disable_events()

    def test_round_trip(self, tmp_path):
        log = ExploreLog(operator="gemm", hardware="v100")
        kernel = self.record_live_run(tmp_path, log)
        ((run, state),) = obs.load_run_views(tmp_path)
        assert run.latency_us == kernel.latency_us
        assert run.funnel == log.funnel.to_dict()
        assert run.model_quality == log.model_quality()
        # Every generation's stats, infinite fitnesses included, survive
        # the event stream's JSON lines exactly.
        assert log.generations
        assert state.generations == [g.to_dict() for g in log.generations]
        assert {"compile", "tuner.tune", "tuner.genetic_search"} <= set(run.phases)
        assert run.critical_path[0]["name"] == "compile"

    def test_render_report_from_loaded_trace(self, tmp_path):
        self.record_live_run(tmp_path, ExploreLog())
        ((run, state),) = obs.load_run_views(tmp_path)
        report = obs.render_report(run, state)
        assert "mapping funnel" in report
        assert "enumerated" in report
        assert "pairwise rank accuracy" in report
        assert "(no genetic-search generations recorded)" not in report
        assert "-- metrics --" not in report
        header = next(line for line in report.splitlines() if "calls" in line)
        assert header.split() == ["span", "calls", "total", "self", "mean"]
        # A manifest without events still renders; GA rows need the stream.
        assert "(no genetic-search generations recorded)" in obs.render_report(run)

    def test_load_rejects_garbage(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            obs.load_run_views(tmp_path / "missing")
        with pytest.raises(FileNotFoundError, match="no run manifest"):
            obs.load_run_views(tmp_path)
        trace = tmp_path / "old_trace.jsonl"
        trace.write_text('{"type": "meta", "operator": "gemm"}\n{"type": "span"}\n')
        with pytest.raises(FileNotFoundError, match="no run manifest"):
            obs.load_run_views(trace)


class TestTunerIntegration:
    def test_tuner_telemetry_funnel_consistent(self):
        obs.enable()
        tuner = Tuner(get_hardware("v100"), TunerConfig(population=8, generations=3))
        result = tuner.tune(make_small_gemm(256, 256, 256))
        log = result.telemetry
        assert log is not None
        funnel = log.funnel
        # The funnel only narrows through the pipeline.
        assert funnel.enumerated >= funnel.validated
        assert funnel.validated >= funnel.prefiltered
        assert funnel.prefiltered >= funnel.measured
        assert funnel.measured >= 1
        assert funnel.is_consistent()
        # Every distinct mapping got its safety-net measurement.
        assert funnel.measured == result.num_mappings

    def test_tuner_telemetry_generations_and_samples(self):
        cfg = TunerConfig(population=8, generations=3)
        obs.enable()
        result = Tuner(get_hardware("v100"), cfg).tune(make_small_gemm(256, 256, 256))
        log = result.telemetry
        assert [g.generation for g in log.generations] == list(
            range(cfg.generations + 1)
        )
        assert all(g.best_fitness <= g.mean_fitness for g in log.generations)
        measured_trials = [t for t in result.trials if t.measured_us is not None]
        assert len(log.samples) == len(measured_trials)
        quality = log.model_quality()
        assert 0.0 <= quality["pairwise_accuracy"] <= 1.0

    def test_tuner_without_obs_has_no_telemetry(self):
        result = Tuner(
            get_hardware("v100"), TunerConfig(population=8, generations=3)
        ).tune(make_small_gemm(256, 256, 256))
        assert result.telemetry is None

    def test_caller_bound_log_is_used(self):
        obs.enable()
        mine = ExploreLog(operator="mine", hardware="v100")
        with use_log(mine):
            result = Tuner(
                get_hardware("v100"), TunerConfig(population=8, generations=3)
            ).tune(make_small_gemm(256, 256, 256))
        assert result.telemetry is mine
        assert mine.samples


class TestCompileEquivalence:
    def test_amos_compile_bit_identical_with_obs_enabled(self):
        from repro import amos_compile, make_operator

        comp = make_operator("GMM", m=64, n=64, k=64)
        cfg = TunerConfig(population=8, generations=3)
        baseline = amos_compile(comp, "v100", cfg)
        obs.enable()
        traced_run = amos_compile(comp, "v100", cfg)
        obs.disable()
        assert traced_run.latency_us == baseline.latency_us
        assert (
            traced_run.scheduled.schedule.describe()
            == baseline.scheduled.schedule.describe()
        )
        assert (
            traced_run.scheduled.physical.compute.describe()
            == baseline.scheduled.physical.compute.describe()
        )
