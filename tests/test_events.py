"""Live telemetry bus: events, structured logs, sinks, watch, health.

Covers these contracts:

* the EventBus publishes schema-valid, correlated events; counters
  publish their own increments as ``metric.inc`` (tracing on or off) and
  ``Tracer.merge`` publishes adopted worker spans as lane-tagged
  ``span.close`` events;
* event streams are worker-count invariant — n_workers 1 vs 4 yield the
  same deterministic event multiset (modulo pid/lane/seq/timestamps) and
  the pooled run additionally shows lane-tagged worker spans;
* events round-trip through the crash-safe JSONL sink (torn tail lines
  are skipped, not fatal) and ``watch`` follows a growing stream;
* tunes with the bus on yield streams whose funnel and counter sections
  (cache, compile cache, health) exactly match the run manifests, and
  ``repro watch --once --validate`` renders them with exit 0; the
  ``engine.divergence.*`` records of streams recorded before the runtime
  divergence check went fold into no section, detector or dashboard
  line;
* the structured logger filters by level (explicit > REPRO_LOG_LEVEL >
  WARNING), rate-limits repeats, attaches run/span correlation, and
  republishes WARNING+ records on the bus;
* the health detectors fire on synthetic stalls/stagnation/cache
  collapse and stay silent on healthy streams;
* ``load_runs`` skips unreadable or wrong-shaped manifests with a logged
  warning instead of raising.
"""

import io
import json
import os
import time

import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.engine import reset_compile_caches, reset_global_memo
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.model import get_hardware
from repro.obs import events as events_mod
from repro.obs import logging as logging_mod
from repro.obs.events import EVENT_SCHEMA, EVENT_TYPES, validate_event
from repro.obs.live import (
    HealthConfig,
    HealthMonitor,
    JsonlSink,
    WatchState,
    load_events,
    render_dashboard,
    watch,
)
from repro.obs.logging import StructuredLogger, get_logger
from repro.obs.runlog import load_runs, write_run, RunRecord

FAST = TunerConfig(
    population=8, generations=2, measure_top=8, refine_rounds=1, refine_neighbors=4
)


@pytest.fixture(autouse=True)
def clean_state():
    """Obs + bus off and empty, caches cold, log level unset, around each."""
    obs.disable()
    obs.reset()
    events_mod.disable_events()
    events_mod.reset_events()
    logging_mod.set_log_level(None)
    logging_mod.set_log_stream(None)
    os.environ.pop(logging_mod.ENV_LEVEL, None)
    reset_global_memo()
    reset_compile_caches()
    yield
    obs.disable()
    obs.reset()
    events_mod.disable_events()
    events_mod.reset_events()
    logging_mod.set_log_level(None)
    logging_mod.set_log_stream(None)
    logging_mod._now_fn = time.time
    os.environ.pop(logging_mod.ENV_LEVEL, None)
    reset_global_memo()
    reset_compile_caches()


def small_gemm():
    return make_operator("GMM", m=64, n=64, k=64)


def fast_config(**overrides) -> TunerConfig:
    import dataclasses

    return dataclasses.replace(FAST, **overrides)


def collect_bus():
    """Subscribe a list collector to the global bus."""
    seen = []
    events_mod.get_bus().subscribe(seen.append)
    return seen


# ----------------------------------------------------------------------
# Bus basics
# ----------------------------------------------------------------------
class TestEventBus:
    def test_disabled_emit_is_none_and_publishes_nothing(self):
        seen = collect_bus()
        assert events_mod.emit("run.end", {"status": "ok"}) is None
        assert seen == []

    def test_publish_stamps_envelope(self):
        events_mod.enable_events()
        seen = collect_bus()
        event = events_mod.emit("metric.inc", {"name": "engine.cache.hit", "amount": 2})
        assert seen == [event]
        assert validate_event(event) == []
        assert event["pid"] == os.getpid()
        assert event["schema"] == EVENT_SCHEMA
        assert event["seq"] == 0
        second = events_mod.emit("metric.inc", name="engine.cache.hit", amount=1)
        assert second["seq"] == 1
        assert second["data"]["amount"] == 1

    def test_every_registered_type_validates(self):
        events_mod.enable_events()
        samples = {
            "run.start": {"kind": "tune", "operator": "gemm", "hardware": "v100"},
            "run.end": {"status": "ok"},
            "span.close": {"name": "compile", "duration_us": 1.0},
            "funnel.stage": {"stage": "validated", "count": 3, "total": 3},
            "ga.generation": {
                "generation": 0,
                "best_fitness": 1.0,
                "mean_fitness": 2.0,
                "population": 8,
            },
            "metric.inc": {"name": "engine.cache.hit", "amount": 0},
            "health.warning": {"detector": "stagnation", "message": "stuck"},
            "log": {"level": "warning", "msg": "boom"},
        }
        assert set(samples) == set(EVENT_TYPES)
        for etype, data in samples.items():
            assert validate_event(events_mod.emit(etype, data)) == []

    def test_validate_rejects_bad_events(self):
        assert validate_event("nope")
        assert validate_event({}) != []
        events_mod.enable_events()
        event = events_mod.emit("run.end", {"status": "ok"})
        assert validate_event({**event, "schema": 99})
        assert validate_event({**event, "type": "no.such.event"})
        assert validate_event({**event, "data": {}})  # missing 'status'

    def test_raising_subscriber_is_contained(self):
        events_mod.enable_events()
        bus = events_mod.get_bus()

        def boom(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(boom)
        seen = collect_bus()
        events_mod.emit("run.end", {"status": "ok"})
        assert len(seen) == 1 and bus.errors == 1

    def test_adopt_rebases_clocks_and_tags_lane(self):
        """Worker spans reach the stream through ``Tracer.merge``: adopted
        spans are rebased onto the parent clock, and those passing the
        span-close prefix rule are published tagged with the worker lane
        and the parent's run id."""
        events_mod.enable_events()
        bus = events_mod.get_bus()
        bus.run_id = "parent-run"
        seen = collect_bus()
        payload = [
            {"name": "worker.eval_group", "span_id": 9, "parent_id": None,
             "start_s": 5.0, "end_s": 5.000003, "attrs": {}},
            # Per-candidate micro-span: adopted, but not streamed.
            {"name": "sim.detail", "span_id": 10, "parent_id": 9,
             "start_s": 5.000001, "end_s": 5.000002, "attrs": {}},
        ]
        adopted = obs.get_tracer().merge(payload, lane=2, shift_s=100.0)
        assert [s.name for s in adopted] == ["worker.eval_group", "sim.detail"]
        assert adopted[0].start_s == pytest.approx(105.0)
        (event,) = seen
        assert event["type"] == "span.close"
        assert event["data"]["name"] == "worker.eval_group"
        assert event["data"]["duration_us"] == pytest.approx(3.0)
        assert event["lane"] == 2
        assert event["run_id"] == "parent-run"
        assert event["pid"] == os.getpid()  # published by the parent
        assert validate_event(event) == []

    def test_buffering_drain(self):
        """The bus keeps no worker-side buffer: worker counter deltas reach
        the stream through ``MetricsRegistry.merge`` -> ``Counter.inc``,
        streamed names only."""
        events_mod.enable_events()
        assert not hasattr(events_mod.get_bus(), "drain")
        seen = collect_bus()
        obs.get_registry().merge(
            [
                {"kind": "counter", "name": "engine.cache.hit", "value": 3.0},
                {"kind": "counter", "name": "sim.runs", "value": 7.0},
            ]
        )
        assert [(e["type"], e["data"]) for e in seen] == [
            ("metric.inc", {"name": "engine.cache.hit", "amount": 3.0})
        ]

    def test_counters_publish_themselves(self):
        """``Counter.inc`` publishes every increment of a streamed counter
        (zero amounts included) with tracing off; other counters stay
        silent, and nothing publishes while the bus is off."""
        assert not obs.enabled()
        seen = collect_bus()
        obs.counter("engine.cache.hit").inc(2)  # bus off: no-op
        assert seen == []
        events_mod.enable_events()
        obs.counter("engine.cache.hit").inc(0)
        obs.counter("obs.health.stagnation").inc()
        obs.counter("sim.runs").inc()
        assert [(e["type"], e["data"]) for e in seen] == [
            ("metric.inc", {"name": "engine.cache.hit", "amount": 0}),
            ("metric.inc", {"name": "obs.health.stagnation", "amount": 1.0}),
        ]

    def test_counters_stream_with_tracing_off(self, pool_every_batch):
        """A pooled tune with only the bus on still streams its memo-cache
        and pool counts, and no fault or divergence counters; an old
        stream's divergence counts change no section."""
        events_mod.enable_events()
        seen = collect_bus()
        config = fast_config(n_workers=2)
        Tuner(get_hardware("v100"), config).tune(small_gemm())
        assert not obs.enabled()
        totals: dict[str, float] = {}
        for event in seen:
            if event["type"] == "metric.inc":
                name = event["data"]["name"]
                totals[name] = totals.get(name, 0.0) + event["data"]["amount"]
        assert totals["engine.cache.miss"] > 0
        assert totals["engine.pool.batches"] >= 1
        assert not [
            name
            for name in totals
            if name.startswith(("engine.fault.", "engine.divergence."))
        ]
        old = [
            _inc("engine.divergence.checked", 35),
            _inc("engine.divergence.mismatched", 1),
        ]
        sections = WatchState().apply_all(seen).sections()
        assert WatchState().apply_all(seen + old).sections() == sections
        assert set(sections) == {"cache", "health"}


# ----------------------------------------------------------------------
# JSONL sink
# ----------------------------------------------------------------------
class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        events_mod.enable_events()
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, bus=events_mod.get_bus()):
            published = [
                events_mod.emit("funnel.stage", stage="validated", count=i, total=i)
                for i in range(5)
            ]
        loaded, skipped = load_events(path)
        assert skipped == 0
        assert loaded == published
        for event in loaded:
            assert validate_event(event) == []

    def test_torn_tail_is_skipped(self, tmp_path):
        events_mod.enable_events()
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, bus=events_mod.get_bus()):
            events_mod.emit("run.end", {"status": "ok"})
        with path.open("ab") as stream:
            stream.write(b'{"type": "run.end", "t_s"')  # crash mid-line
        loaded, skipped = load_events(path)
        assert len(loaded) == 1 and skipped == 1

    def test_unsubscribes_on_close(self, tmp_path):
        events_mod.enable_events()
        sink = JsonlSink(tmp_path / "events.jsonl", bus=events_mod.get_bus())
        sink.close()
        events_mod.emit("run.end", {"status": "ok"})
        assert events_mod.get_bus().errors == 0
        loaded, _ = load_events(tmp_path / "events.jsonl")
        assert loaded == []


# ----------------------------------------------------------------------
# The live view: `watch` following a growing JSONL stream
# ----------------------------------------------------------------------
class TestSocketServer:
    """The socket server is gone; ``watch`` over the ``--live`` JSONL sink
    is the one live view, so these check that it follows a stream that
    is still being written."""

    def test_tcp_subscribe_receives_hello_and_events(self, tmp_path):
        events_mod.enable_events()
        run_dir = tmp_path / "runs"
        with JsonlSink(run_dir / "events_live.jsonl", bus=events_mod.get_bus()):
            events_mod.emit("run.start", kind="tune", operator="gemm", hardware="v100")
            frames = []

            def out(text):
                frames.append(text)
                if len(frames) == 1:  # the run progresses mid-watch
                    events_mod.emit("metric.inc", name="engine.cache.hit", amount=1)
                    events_mod.emit("metric.inc", name="engine.cache.miss", amount=3)
                    events_mod.emit("run.end", {"status": "ok"})

            code = watch(str(run_dir), interval_s=0.01, out=out, max_updates=10)
        assert code == 0
        assert len(frames) == 2  # stops once run.end has been followed
        assert "status: running" in frames[0]
        assert "status: finished (ok)" in frames[1]
        assert "memo cache hit rate: 25.0% (1/4) over 1 batches" in frames[1]

    def test_unix_socket(self, tmp_path):
        events_mod.enable_events()
        path = tmp_path / "events_live.jsonl"
        with JsonlSink(path, bus=events_mod.get_bus()):
            events_mod.emit("run.start", kind="tune", operator="gemm", hardware="v100")
        line = path.read_bytes()
        end = line.replace(b'"run.start"', b'"run.end"').replace(
            b'"data": {', b'"data": {"status": "ok", ', 1
        )
        with path.open("ab") as stream:
            stream.write(end[:20])  # a writer caught mid-line
        frames = []

        def out(text):
            frames.append(text)
            if len(frames) == 1:
                with path.open("ab") as stream:
                    stream.write(end[20:])  # ...finishes the line

        assert watch(str(path), interval_s=0.01, out=out, max_updates=10) == 0
        # The torn tail was left for the next poll, never half-parsed.
        assert "status: running" in frames[0]
        assert "status: finished (ok)" in frames[-1]


# ----------------------------------------------------------------------
# Structured logger
# ----------------------------------------------------------------------
class TestStructuredLogger:
    def _capture(self):
        stream = io.StringIO()
        logging_mod.set_log_stream(stream)
        return stream

    def _records(self, stream):
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_level_filtering_default_warning(self):
        stream = self._capture()
        log = StructuredLogger("t.default")
        log.info("quiet please")
        log.warning("heard")
        records = self._records(stream)
        assert [r["msg"] for r in records] == ["heard"]
        assert records[0]["level"] == "warning"
        assert records[0]["logger"] == "t.default"
        assert records[0]["pid"] == os.getpid()

    def test_env_level_and_explicit_override(self):
        stream = self._capture()
        os.environ[logging_mod.ENV_LEVEL] = "debug"
        log = StructuredLogger("t.env")
        log.debug("via env")
        logging_mod.set_log_level("error")  # explicit beats env
        log.warning("dropped")
        log.error("kept")
        assert [r["msg"] for r in self._records(stream)] == ["via env", "kept"]

    def test_configure_logging_quiet_beats_env(self):
        stream = self._capture()
        os.environ[logging_mod.ENV_LEVEL] = "debug"
        logging_mod.configure_logging(quiet=True)
        log = StructuredLogger("t.quiet")
        log.info("dropped")
        log.warning("kept")
        assert [r["msg"] for r in self._records(stream)] == ["kept"]

    def test_rate_limit_suppresses_and_reports(self):
        stream = self._capture()
        clock = [0.0]
        logging_mod._now_fn = lambda: clock[0]
        log = StructuredLogger("t.rate", burst=2, window_s=10.0)
        logging_mod.set_log_level("info")
        for _ in range(6):
            log.warning("hot loop")
        clock[0] = 11.0  # next window
        log.warning("hot loop")
        records = self._records(stream)
        assert len(records) == 3  # 2 in the first window + 1 in the next
        assert records[2]["suppressed"] == 4

    def test_info_progress_is_never_rate_limited(self):
        stream = self._capture()
        logging_mod._now_fn = lambda: 0.0
        log = StructuredLogger("t.progress", burst=2, window_s=10.0)
        logging_mod.set_log_level("info")
        for generation in range(9):
            log.info("generation", generation=generation)
        records = self._records(stream)
        assert [r["generation"] for r in records] == list(range(9))
        assert not any("suppressed" in r for r in records)
        log.flush_suppressed()
        assert len(self._records(stream)) == 9

    def test_correlation_and_warning_republish(self):
        stream = self._capture()
        events_mod.enable_events()
        events_mod.get_bus().run_id = "run-xyz"
        seen = collect_bus()
        obs.enable()
        log = StructuredLogger("t.corr")
        with obs.span("tuner.test_span"):
            log.warning("pool degraded", workers=4)
        record = self._records(stream)[0]
        assert record["run_id"] == "run-xyz"
        assert isinstance(record["span_id"], int)
        assert record["workers"] == 4
        # WARNING+ also lands on the bus as a `log` event.
        log_events = [e for e in seen if e["type"] == "log"]
        assert len(log_events) == 1
        assert log_events[0]["data"]["msg"] == "pool degraded"
        assert log_events[0]["data"]["workers"] == 4
        assert log_events[0]["run_id"] == "run-xyz"

    def test_get_logger_cached(self):
        assert get_logger("same.name") is get_logger("same.name")


# ----------------------------------------------------------------------
# Health detectors
# ----------------------------------------------------------------------
def _ev(etype, data, t_wall):
    return {
        "type": etype,
        "t_s": t_wall,
        "t_wall": t_wall,
        "seq": 0,
        "pid": 1,
        "data": data,
        "lane": None,
        "run_id": "",
        "span_id": None,
        "schema": EVENT_SCHEMA,
    }


def _gen(i, best, t_wall=0.0):
    return _ev(
        "ga.generation",
        {"generation": i, "best_fitness": best, "mean_fitness": best, "population": 8},
        t_wall,
    )


def _inc(name, amount, t_wall=0.0):
    return _ev("metric.inc", {"name": name, "amount": amount}, t_wall)


def _batch(hits, misses, t_wall=0.0):
    """One engine batch as the engine streams it: hit then miss record."""
    return [
        _inc("engine.cache.hit", hits, t_wall),
        _inc("engine.cache.miss", misses, t_wall),
    ]


def _observe_all(monitor, events):
    return [w for event in events for w in monitor.observe(event)]


class TestHealthMonitor:
    def test_silent_on_healthy_stream(self):
        monitor = HealthMonitor(HealthConfig(stagnation_generations=3))
        fired = []
        for i in range(10):
            # steadily improving, closely spaced, warm cache
            fired += monitor.observe(_gen(i, 100.0 - 10 * i, t_wall=i * 1.0))
            fired += _observe_all(monitor, _batch(6, 2, i * 1.0 + 0.5))
        assert fired == []
        assert monitor.warnings == []
        # The detectors' own counters are not health signals: a late
        # obs.health.* record neither counts as progress nor fires.
        assert monitor.observe(_inc("obs.health.stagnation", 1, 500.0)) == []
        assert monitor.last_progress_wall == 9.5

    def test_stagnation_fires_once_and_rearms_on_improvement(self):
        monitor = HealthMonitor(HealthConfig(stagnation_generations=3))
        fired = []
        for i in range(10):
            fired += monitor.observe(_gen(i, 50.0, t_wall=float(i)))
        stagnation = [w for w in fired if w["detector"] == "stagnation"]
        assert len(stagnation) == 1  # latched, not one per generation
        # An improvement re-arms the detector...
        assert monitor.observe(_gen(10, 10.0, t_wall=10.0)) == []
        # ...and a fresh plateau fires again.
        fired2 = []
        for i in range(11, 20):
            fired2 += monitor.observe(_gen(i, 10.0, t_wall=float(i)))
        assert [w["detector"] for w in fired2] == ["stagnation"]

    def test_no_progress_via_gap_and_check_idle(self):
        monitor = HealthMonitor(HealthConfig(no_progress_s=5.0))
        assert monitor.observe(_gen(0, 1.0, t_wall=0.0)) == []
        # Event arriving after a long silence flags the gap.
        fired = monitor.observe(_gen(1, 0.9, t_wall=60.0))
        assert [w["detector"] for w in fired] == ["no_progress"]
        # Poll-side: silence with no event at all.
        idle = monitor.check_idle(now_wall=120.0)
        assert [w["detector"] for w in idle] == ["no_progress"]
        assert monitor.check_idle(now_wall=130.0) == []  # latched
        # Progress resumes -> re-armed.
        monitor.observe(_gen(2, 0.8, t_wall=131.0))
        assert monitor.check_idle(now_wall=132.0) == []

    def test_cache_collapse_needs_warmup(self):
        config = HealthConfig(cache_window=4, cache_min_heartbeats=4)
        cold = HealthMonitor(config)
        fired = []
        for i in range(12):  # all misses from the start: cold, not collapsed
            fired += _observe_all(cold, _batch(0, 8, float(i)))
        assert fired == []

        warm = HealthMonitor(config)
        fired = []
        for i in range(6):  # warm up above cache_warm_rate
            fired += _observe_all(warm, _batch(7, 1, float(i)))
        for i in range(6, 14):  # then collapse
            fired += _observe_all(warm, _batch(0, 8, float(i)))
        assert [w["detector"] for w in fired] == ["cache_collapse"]

    def test_divergence_spike_warns(self):
        """The divergence detector went with the runtime check: an old
        stream's mismatch records fire nothing."""
        monitor = HealthMonitor()
        assert monitor.observe(_inc("engine.divergence.checked", 10)) == []
        assert monitor.observe(_inc("engine.divergence.mismatched", 2)) == []
        assert monitor.warnings == []

    def test_bus_attached_monitor_republishes_and_counts(self):
        events_mod.enable_events()
        obs.enable()
        from repro.obs.live import attach_health_monitor

        seen = collect_bus()
        attached = attach_health_monitor(config=HealthConfig(stagnation_generations=2))
        bus = events_mod.get_bus()
        for i in range(8):
            bus.publish("ga.generation", _gen(i, 50.0)["data"])
        warnings = [e for e in seen if e["type"] == "health.warning"]
        assert len(warnings) == 1
        assert warnings[0]["data"]["detector"] == "stagnation"
        counters = {
            d["name"]: d["value"]
            for d in obs.get_registry().snapshot()
            if d["kind"] == "counter"
        }
        assert counters.get("obs.health.stagnation") == 1
        # The fire count streams itself, and the monitor ignores it.
        health_incs = [
            e for e in seen
            if e["type"] == "metric.inc" and e["data"]["name"].startswith("obs.health.")
        ]
        assert [e["data"] for e in health_incs] == [
            {"name": "obs.health.stagnation", "amount": 1.0}
        ]
        attached.close()


# ----------------------------------------------------------------------
# Worker-count invariance
# ----------------------------------------------------------------------
#: Event families emitted by deterministic code: identical multisets for
#: any worker count.  span.close and the engine.pool.* counters depend on
#: the execution shape (pool vs inline) and are excluded by design.
DETERMINISTIC_TYPES = (
    "run.start",
    "run.end",
    "funnel.stage",
    "ga.generation",
    "metric.inc",
)


def _normalize(events):
    out = []
    for event in events:
        if event["type"] not in DETERMINISTIC_TYPES:
            continue
        data = dict(event["data"])
        if event["type"] == "metric.inc" and data["name"].startswith("engine.pool."):
            continue
        if event["type"] == "run.end":
            # pool_{tasks,batches} counters depend on pooling; the memo
            # and compile-cache sections must not.
            data["cache"] = {
                k: v
                for k, v in data.get("cache", {}).items()
                if k.startswith(("memo_", "compile_cache_"))
            }
            data.pop("wall_s", None)
            data.pop("outcome", None)  # identical latency; checked separately
        out.append((event["type"], json.dumps(data, sort_keys=True)))
    return sorted(out)


class TestWorkerCountInvariance:
    def test_event_streams_match_1_vs_4_workers(self, tmp_path, pool_every_batch):
        events_mod.enable_events()
        comp = small_gemm()
        hw = get_hardware("v100")
        streams = {}
        outcomes = {}
        for n in (1, 4):
            reset_global_memo()  # identical cache temperature per run
            events_mod.reset_events()
            events_mod.enable_events()
            seen = collect_bus()
            config = fast_config(n_workers=n, run_dir=str(tmp_path / f"w{n}"))
            result = Tuner(hw, config).tune(comp)
            streams[n] = seen
            outcomes[n] = result.best_us
        assert outcomes[1] == outcomes[4]
        assert _normalize(streams[1]) == _normalize(streams[4])
        assert any(e["type"] == "metric.inc" for e in streams[1])
        # The pooled run's worker spans reach the stream through the
        # parent's Tracer.merge: lane-tagged span.close events, published
        # by the parent under the recorder's run id.  Nothing else is
        # lane-tagged, and the inline run has no lanes at all.
        adopted = [e for e in streams[4] if e["lane"] is not None]
        assert adopted, "no worker spans were merged across the pool boundary"
        assert {e["type"] for e in adopted} == {"span.close"}
        assert all(e["data"]["name"].startswith("worker.") for e in adopted)
        assert {e["pid"] for e in adopted} == {os.getpid()}
        assert all(e["run_id"] for e in adopted)
        assert all(e["lane"] is None for e in streams[1])


# ----------------------------------------------------------------------
# End-to-end acceptance: --live stream == manifest, watch renders it
# ----------------------------------------------------------------------
def _nonzero(counts):
    return {k: v for k, v in counts.items() if v}


class TestLiveAcceptance:
    def test_live_tune_stream_matches_manifest_and_watch_renders(
        self, tmp_path, capsys, pool_every_batch
    ):
        """Every run's stream folds to its manifest: a pooled compile
        (compile-cache miss), the same compile again (compile-cache hit),
        and a tune with every batch on the pool.  No manifest has a
        ``faults`` or ``divergence`` section, and an old stream's
        divergence records change neither the sections nor the
        dashboard."""
        run_dir = tmp_path / "runs"
        argv = [
            "compile", "GMM", "--hardware", "v100", "--quick", "--quiet",
            "--workers", "2",
            "--params", "m=64", "n=64", "k=64",
            "--cache-dir", str(tmp_path / "cache"),
            "--run-dir", str(run_dir), "--live",
        ]
        assert cli_main(argv) == 0
        streams = list(run_dir.glob("events_*.jsonl"))
        assert len(streams) == 1
        events, skipped = load_events(streams[0])
        assert skipped == 0
        assert events, "no events streamed"
        for event in events:
            assert validate_event(event) == [], event
        # One run, consistently stamped.
        run_ids = {e["run_id"] for e in events if e["run_id"]}
        assert len(run_ids) == 1
        assert events[0]["type"] == "run.start"
        assert events[-1]["type"] == "run.end"

        # Manifests mint run ids from second-resolution stamps: let the
        # identical second compile get its own.
        time.sleep(1.1)
        assert cli_main(argv) == 0
        events_mod.enable_events()
        with JsonlSink(run_dir / "events_pooled.jsonl", bus=events_mod.get_bus()):
            reset_global_memo()  # cold memo, so the pool sees every batch
            Tuner(
                get_hardware("v100"),
                fast_config(n_workers=2, run_dir=str(run_dir)),
            ).tune(small_gemm())
        events_mod.disable_events()

        by_run: dict[str, list] = {}
        for stream in run_dir.glob("events_*.jsonl"):
            for event in load_events(stream)[0]:
                by_run.setdefault(event["run_id"], []).append(event)
        runs = load_runs(run_dir)
        assert len(runs) == 3
        for manifest in runs:
            state = WatchState().apply_all(by_run[manifest.run_id])
            assert state.invalid_events == 0
            # Stream folds == manifest sections, to the digit.  (The
            # manifest lists funnel stages a cache hit never reaches as 0.)
            assert _nonzero(state.funnel) == _nonzero(manifest.funnel)
            assert state.sections() == {
                "cache": manifest.cache,
                "health": manifest.health,
            }
            assert state.ended is not None and state.ended["status"] == "ok"
        miss_run, hit_run, pooled_run = sorted(runs, key=lambda r: r.kind == "tune")
        miss_state = WatchState().apply_all(by_run[miss_run.run_id])
        assert miss_state.funnel == miss_run.funnel  # every stage reached
        assert miss_run.cache["compile_cache_misses"] == 1
        assert hit_run.cache["compile_cache_hits"] == 1
        assert pooled_run.cache["pool_batches"] >= 1
        for path in run_dir.glob("run_*.json"):
            manifest = json.loads(path.read_text())
            assert "faults" not in manifest and "divergence" not in manifest

        dashboard = render_dashboard(WatchState().apply_all(events))
        assert "gemm on v100" in dashboard
        assert "mapping funnel" in dashboard
        assert "divergence" not in dashboard
        old_state = WatchState().apply_all(
            events[:-1]
            + [
                _inc("engine.divergence.checked", 35),
                _inc("engine.divergence.mismatched", 1),
            ]
            + events[-1:]
        )
        assert old_state.sections() == miss_state.sections()
        assert old_state.warnings == []
        assert "divergence" not in render_dashboard(old_state)

        code = cli_main(["watch", str(streams[0]), "--once", "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro watch" in out
        assert "all schema-valid" in out

    def test_live_requires_run_dir(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["compile", "GMM", "--quick", "--live"])

    def test_watch_missing_source_fails(self, tmp_path, capsys):
        assert cli_main(["watch", str(tmp_path / "nope"), "--once"]) == 1


# ----------------------------------------------------------------------
# Watch state + dashboard on synthetic streams
# ----------------------------------------------------------------------
class TestWatch:
    def test_state_eta_during_search(self):
        state = WatchState()
        state.apply(
            _ev(
                "run.start",
                {
                    "kind": "tune",
                    "operator": "gemm",
                    "hardware": "v100",
                    "budget": {"generations": 4},
                },
                0.0,
            )
        )
        state.apply(_gen(0, 10.0, t_wall=10.0))
        state.apply(_gen(1, 9.0, t_wall=20.0))
        eta = state.eta_s(now_wall=20.0)
        assert eta == pytest.approx(30.0)  # 3 remaining observes * 10s/gen
        state.apply(_ev("run.end", {"status": "ok"}, 25.0))
        assert state.eta_s(now_wall=25.0) is None

    def test_invalid_events_counted_not_fatal(self):
        state = WatchState()
        state.apply({"type": "garbage"})
        state.apply(_gen(0, 1.0))
        assert state.invalid_events == 1
        assert state.events_seen == 1
        assert "generation" in render_dashboard(state)

    def test_schema1_stream_counted_not_misread(self, tmp_path, capsys):
        """A stream written before the metric.inc layout (schema 1) is
        skipped and counted, never folded into counts it no longer means."""
        old = {
            **_ev("engine.heartbeat", {"batch": 1, "hits": 2, "misses": 6}, 1.0),
            "schema": 1,
        }
        state = WatchState()
        state.apply(old)
        assert state.invalid_events == 1 and state.counters == {}
        path = tmp_path / "events_old.jsonl"
        path.write_text(json.dumps(old) + "\n")
        assert load_events(path) == ([], 1)
        assert cli_main(["watch", str(path), "--once", "--validate"]) == 1
        assert "1 unreadable or other-schema line(s)" in capsys.readouterr().out

    def test_dashboard_sections_render(self):
        state = WatchState()
        state.apply(
            _ev(
                "run.start",
                {"kind": "tune", "operator": "gemm", "hardware": "v100", "budget": {}},
                0.0,
            )
        )
        state.apply(_ev("funnel.stage", {"stage": "enumerated", "count": 24, "total": 24}, 1.0))
        state.apply_all(_batch(2, 6, 2.0))
        # A counter from a stream recorded before the pool stopped
        # recovering from faults: folded, but no section shows it.
        state.apply(_inc("engine.fault.retries", 3, 3.0))
        state.apply(
            _ev("health.warning", {"detector": "stagnation", "message": "stuck"}, 4.0)
        )
        dashboard = render_dashboard(state, now_wall=5.0)
        assert "enumerated" in dashboard
        assert "25.0%" in dashboard  # memo hit rate 2/8
        assert "retries" not in dashboard and "faults" not in dashboard
        assert "WARNING [stagnation]" in dashboard


# ----------------------------------------------------------------------
# Satellite: load_runs resilience
# ----------------------------------------------------------------------
class TestLoadRunsResilience:
    def test_skips_unreadable_and_wrong_shaped_manifests(self, tmp_path):
        stream = io.StringIO()
        logging_mod.set_log_stream(stream)
        good = RunRecord(run_id="ok1", created_at="2026-08-07T00:00:00+00:00")
        write_run(good, tmp_path)
        (tmp_path / "run_torn.json").write_text('{"schema": 1, "run_id": ')
        (tmp_path / "run_badtype.json").write_text(
            json.dumps({"schema": 1, "created_at": 123, "funnel": "not-a-dict"})
        )
        (tmp_path / "run_wrong_schema.json").write_text(json.dumps({"schema": 99}))
        records = load_runs(tmp_path)
        assert [r.run_id for r in records] == ["ok1"]
        warnings = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert any(w["msg"] == "skipping unreadable run manifest" for w in warnings)
