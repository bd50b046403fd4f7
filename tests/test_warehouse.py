"""Telemetry warehouse, trend analytics, and the history-aware gate.

Covers the PR's contracts:

* ingest is incremental and idempotent — re-ingesting the same run
  directory is a byte-identical no-op on both store and index, and new
  manifests append without rewriting old records;
* the index sidecar makes series lookups point reads: a corrupted record
  *outside* the queried series never gets parsed (and ``check`` is the
  one O(corpus) scan that does flag it);
* crash recovery — a missing/stale/corrupt index rebuilds from the
  store, a torn final line is skipped and resynchronised past;
* event streams next to the manifests are digested per run id, and an
  old stream's ``engine.divergence.*`` records (the runtime divergence
  check is gone) fire no warning and still validate, ingest and check;
* ``compare_runs_with_history`` reproduces the pairwise verdict at
  ``history=1`` and flags a 3-run monotone drift the pairwise gate
  misses (the acceptance scenario, synthetic corpora);
* ``Tracer.merge`` rebases worker clocks correctly under *negative*
  offsets, and ``load_runs`` ordering is a pure function of manifest
  contents when created_at ties;
* ``repro watch --once`` fails loudly on empty/nonexistent run dirs;
* the rate-limited structured logger flushes suppressed-count tallies
  at exit instead of silently dropping them;
* the ``repro corpus`` CLI round-trips ingest/stats/trend/export and
  ``report --compare --history N`` gates through the warehouse.
"""

import dataclasses
import io
import json
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.explore.tuner import TunerConfig
from repro.obs import analytics
from repro.obs import events as events_mod
from repro.obs import logging as logging_mod
from repro.obs.analytics import (
    aggregate_critical_paths,
    compare_runs_with_history,
    corpus_rows,
    detect_trend,
    phase_attribution,
    rows_to_csv,
    series_trends,
    theil_sen,
)
from repro.obs.live import JsonlSink, watch
from repro.obs.runlog import CompareThresholds, RunRecord, compare_runs, load_runs, write_run
from repro.obs.trace import Span, Tracer, critical_path
from repro.obs.warehouse import INDEX_NAME, STORE_NAME, Warehouse


@pytest.fixture(autouse=True)
def clean_logging():
    logging_mod.set_log_level(None)
    logging_mod.set_log_stream(None)
    yield
    logging_mod.set_log_level(None)
    logging_mod.set_log_stream(None)
    logging_mod._now_fn = time.time


def make_run(
    i: int,
    latency: float,
    operator: str = "gemm",
    hardware: str = "v100",
    fingerprint: str = "fp1",
    accuracy: float = 0.9,
    **extra,
) -> RunRecord:
    extra.setdefault("cache", {"memo_hits": 8.0, "memo_misses": 2.0})
    return RunRecord(
        run_id=f"run{i:04d}",
        created_at=f"2026-08-{i + 1:02d}T00:00:00+00:00",
        kind="tune",
        operator=operator,
        hardware=hardware,
        fingerprints={"tuner_config": fingerprint},
        outcome={"latency_us": latency},
        wall_s=1.0,
        candidates_per_sec=10.0,
        model_quality={"pairwise_accuracy": accuracy},
        **extra,
    )


def corpus_bytes(corpus: Path) -> tuple[bytes, bytes]:
    return (corpus / STORE_NAME).read_bytes(), (corpus / INDEX_NAME).read_bytes()


# ----------------------------------------------------------------------
# Ingest: idempotent, incremental, crash-safe
# ----------------------------------------------------------------------
class TestIngest:
    def test_reingest_is_byte_identical_noop(self, tmp_path):
        run_dir = tmp_path / "runs"
        for i in range(3):
            write_run(make_run(i, 100.0 + i), run_dir)
        corpus = tmp_path / "corpus"
        report = Warehouse(corpus).ingest(run_dir)
        assert report.new_runs == 3 and report.known_runs == 0
        before = corpus_bytes(corpus)

        again = Warehouse(corpus).ingest(run_dir)
        assert again.new_runs == 0 and again.known_runs == 3
        assert corpus_bytes(corpus) == before

    def test_incremental_ingest_appends_only(self, tmp_path):
        run_dir = tmp_path / "runs"
        for i in range(2):
            write_run(make_run(i, 100.0), run_dir)
        corpus = tmp_path / "corpus"
        Warehouse(corpus).ingest(run_dir)
        store_before = (corpus / STORE_NAME).read_bytes()

        for i in range(2, 4):
            write_run(make_run(i, 100.0), run_dir)
        report = Warehouse(corpus).ingest(run_dir)
        assert report.new_runs == 2 and report.known_runs == 2
        # Append-only: the old records' bytes are a strict prefix.
        assert (corpus / STORE_NAME).read_bytes().startswith(store_before)
        warehouse = Warehouse(corpus)
        assert len(warehouse) == 4
        assert [r.run_id for r in warehouse.series(("gemm", "v100", "fp1"))] == [
            f"run{i:04d}" for i in range(4)
        ]

    def test_ingest_multiple_dirs_and_missing_dir(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_run(make_run(0, 100.0), a)
        write_run(make_run(1, 100.0, operator="conv"), b)
        warehouse = Warehouse(tmp_path / "corpus")
        warehouse.ingest(a)
        warehouse.ingest(b)
        assert len(warehouse) == 2
        assert len(warehouse.series_keys()) == 2
        with pytest.raises(FileNotFoundError):
            warehouse.ingest(tmp_path / "nope")

    def test_index_rebuilds_when_missing_or_corrupt(self, tmp_path):
        run_dir = tmp_path / "runs"
        for i in range(3):
            write_run(make_run(i, 100.0 + i), run_dir)
        corpus = tmp_path / "corpus"
        Warehouse(corpus).ingest(run_dir)
        ids = Warehouse(corpus).run_ids()

        (corpus / INDEX_NAME).unlink()
        rebuilt = Warehouse(corpus)
        assert rebuilt.run_ids() == ids
        assert (corpus / INDEX_NAME).exists()  # sidecar rewritten
        assert rebuilt.check() == []

        (corpus / INDEX_NAME).write_text("{ not json")
        assert Warehouse(corpus).run_ids() == ids

        # Stale index (store grew behind its back): size mismatch -> rebuild.
        index = json.loads((corpus / INDEX_NAME).read_text())
        index["store_bytes"] = 1
        (corpus / INDEX_NAME).write_text(json.dumps(index))
        assert Warehouse(corpus).run_ids() == ids

    def test_torn_final_line_skipped_and_resynced(self, tmp_path):
        run_dir = tmp_path / "runs"
        for i in range(2):
            write_run(make_run(i, 100.0), run_dir)
        corpus = tmp_path / "corpus"
        Warehouse(corpus).ingest(run_dir)

        # A writer died mid-append: partial record, no trailing newline.
        with (corpus / STORE_NAME).open("ab") as stream:
            stream.write(b'{"run_id": "torn", "manifest": {"opera')
        (corpus / INDEX_NAME).unlink()
        warehouse = Warehouse(corpus)
        assert warehouse.run_ids() == ["run0000", "run0001"]
        assert warehouse.check() == []

        # The next ingest terminates the torn tail before appending, so
        # the fresh record lands parseable on its own line.
        write_run(make_run(2, 100.0), run_dir)
        warehouse.ingest(run_dir)
        assert warehouse.get("run0002").latency_us == 100.0
        assert Warehouse(corpus).run_ids() == ["run0000", "run0001", "run0002"]
        assert Warehouse(corpus).check() == []

    def test_event_stream_digested_per_run(self, tmp_path, capsys):
        """The stream was recorded while the runtime divergence check
        existed: its ``engine.divergence.*`` records, a mismatch among
        them, digest into nothing and fire no warning."""
        run = make_run(0, 100.0)
        run_dir = tmp_path / "runs"
        write_run(run, run_dir)

        events_mod.reset_events()
        events_mod.enable_events()
        try:
            bus = events_mod.get_bus()
            bus.run_id = run.run_id
            with JsonlSink(run_dir / "events_test.jsonl", bus=bus):
                for hits, misses in ((3, 1), (2, 0)):  # two engine batches
                    bus.publish("metric.inc", {"name": "engine.cache.hit", "amount": hits})
                    bus.publish(
                        "metric.inc", {"name": "engine.cache.miss", "amount": misses}
                    )
                bus.publish(
                    "metric.inc", {"name": "engine.compile_cache.miss", "amount": 1}
                )
                for name, amount in (
                    ("engine.divergence.checked", 10),
                    ("engine.divergence.mismatched", 2),
                ):
                    bus.publish("metric.inc", {"name": name, "amount": amount})
                bus.publish("funnel.stage", {"stage": "measured", "count": 4, "total": 4})
        finally:
            events_mod.disable_events()
            events_mod.reset_events()

        assert cli_main(["watch", str(run_dir), "--once", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "all schema-valid" in out
        assert "WARNING" not in out and "divergence" not in out

        corpus = tmp_path / "corpus"
        assert cli_main(["corpus", "ingest", str(run_dir), "--corpus", str(corpus)]) == 0
        assert "1 with event streams (1 stream file(s))" in capsys.readouterr().out
        assert cli_main(["corpus", "stats", "--corpus", str(corpus), "--check"]) == 0
        assert "store and index consistent" in capsys.readouterr().out
        warehouse = Warehouse(corpus)
        digest = warehouse.events_summary(run.run_id)
        assert digest["heartbeats"] == 2
        assert digest["memo_hits"] == 5 and digest["memo_misses"] == 1
        assert digest["compile_cache"] == {"miss": 1}
        assert digest["events"] == 8
        assert digest["warnings"] == []
        assert not [key for key in digest if "divergence" in key]
        assert warehouse.stats()["runs_with_events"] == 1


# ----------------------------------------------------------------------
# Point reads: the index means unrelated records are never parsed
# ----------------------------------------------------------------------
class TestPointReads:
    def test_series_lookup_does_not_parse_other_records(self, tmp_path):
        run_dir = tmp_path / "runs"
        write_run(make_run(0, 100.0, operator="gemm"), run_dir)
        write_run(make_run(1, 200.0, operator="conv"), run_dir)
        write_run(make_run(2, 110.0, operator="gemm"), run_dir)
        corpus = tmp_path / "corpus"
        warehouse = Warehouse(corpus)
        warehouse.ingest(run_dir)

        # Overwrite the conv record's bytes in place with same-length
        # garbage: store size (and therefore the index) stays valid, but
        # any attempt to *parse* that record would now blow up.
        entry = warehouse._runs["run0001"]
        store = bytearray((corpus / STORE_NAME).read_bytes())
        store[entry.offset : entry.offset + entry.length] = b"x" * entry.length
        (corpus / STORE_NAME).write_bytes(bytes(store))

        reopened = Warehouse(corpus)  # index trusted: no scan, no parse
        gemm = reopened.series(("gemm", "v100", "fp1"))
        assert [r.run_id for r in gemm] == ["run0000", "run0002"]
        assert [r.latency_us for r in gemm] == [100.0, 110.0]
        with pytest.raises(json.JSONDecodeError):
            reopened.get("run0001")
        # ... and the O(corpus) integrity scan is what flags it.
        problems = reopened.check()
        assert any("run0001" in p for p in problems)

    def test_query_filters_and_limit(self, tmp_path):
        run_dir = tmp_path / "runs"
        write_run(make_run(0, 100.0, operator="gemm", hardware="v100"), run_dir)
        write_run(make_run(1, 100.0, operator="gemm", hardware="a100"), run_dir)
        write_run(make_run(2, 100.0, operator="conv", hardware="v100"), run_dir)
        write_run(make_run(3, 100.0, operator="gemm", hardware="v100"), run_dir)
        warehouse = Warehouse(tmp_path / "corpus")
        warehouse.ingest(run_dir)

        assert {r.run_id for r in warehouse.query(operator="gemm")} == {
            "run0000", "run0001", "run0003",
        }
        assert [r.run_id for r in warehouse.query(hardware="v100", limit=2)] == [
            "run0002", "run0003",  # newest two, chronological
        ]
        assert [
            r.run_id
            for r in warehouse.query(since="2026-08-02", until="2026-08-03T12:00:00")
        ] == ["run0001", "run0002"]
        assert warehouse.query(operator="nope") == []

    def test_get_unknown_run_raises(self, tmp_path):
        warehouse = Warehouse(tmp_path / "corpus")
        with pytest.raises(KeyError):
            warehouse.get("missing")
        with pytest.raises(KeyError):
            warehouse.events_summary("missing")

    def test_stats_from_index_alone(self, tmp_path):
        run_dir = tmp_path / "runs"
        write_run(make_run(0, 100.0), run_dir)
        write_run(make_run(1, 100.0, operator="conv"), run_dir)
        corpus = tmp_path / "corpus"
        Warehouse(corpus).ingest(run_dir)

        warehouse = Warehouse(corpus)
        # Make the store unreadable-by-content: stats must not care.
        stats = warehouse.stats()
        assert stats["runs"] == 2 and stats["series"] == 2
        assert stats["operators"] == {"conv": 1, "gemm": 1}
        assert stats["first_created_at"].startswith("2026-08-01")
        assert stats["last_created_at"].startswith("2026-08-02")


# ----------------------------------------------------------------------
# Trend analytics
# ----------------------------------------------------------------------
class TestAnalytics:
    def test_theil_sen_robust_to_one_outlier(self):
        slope, intercept = theil_sen([10.0, 11.0, 12.0, 13.0])
        assert slope == pytest.approx(1.0) and intercept == pytest.approx(10.0)
        # One wild outlier cannot flip the fitted slope's sign.
        slope_noisy, _ = theil_sen([10.0, 11.0, 500.0, 13.0, 14.0])
        assert 0.5 < slope_noisy < 5.0

    def test_detect_trend_directions(self):
        assert detect_trend([100.0, 110.0, 121.0])["direction"] == "rising"
        assert detect_trend([121.0, 110.0, 100.0])["direction"] == "falling"
        assert detect_trend([100.0, 100.4, 99.8])["direction"] == "flat"
        assert detect_trend([100.0])["direction"] == "flat"
        # rel_drift is the fitted total change over the window.
        trend = detect_trend([100.0, 110.0, 121.0])
        assert trend["rel_drift"] == pytest.approx(0.21, abs=0.01)

    def test_series_trends_and_renderers(self, tmp_path):
        run_dir = tmp_path / "runs"
        for i, latency in enumerate([100.0, 95.0, 90.0]):
            write_run(make_run(i, latency), run_dir)
        warehouse = Warehouse(tmp_path / "corpus")
        warehouse.ingest(run_dir)

        rows = series_trends(warehouse, "latency")
        assert len(rows) == 1
        assert rows[0]["best"] == 90.0 and rows[0]["latest"] == 90.0
        assert rows[0]["trend"]["direction"] == "falling"
        text = analytics.render_trends(rows, "latency")
        assert "falling" in text and "gemm on v100" in text

        acc = series_trends(warehouse, "accuracy", window=2)
        assert acc[0]["runs"] == 2
        with pytest.raises(ValueError):
            series_trends(warehouse, "bogus")

    def test_cache_timeline(self, tmp_path):
        # The corpus' hit-rate trajectory is a series trend over the
        # manifests' cache sections.
        run_dir = tmp_path / "runs"
        for i, h in enumerate([8.0, 6.0, 4.0, 2.0]):
            run = make_run(i, 100.0, cache={"memo_hits": h, "memo_misses": 10.0 - h})
            write_run(run, run_dir)
        warehouse = Warehouse(tmp_path / "corpus")
        warehouse.ingest(run_dir)
        (row,) = series_trends(warehouse, "hit_rate")
        assert [v for _, v in row["points"]] == [0.8, 0.6, 0.4, 0.2]
        assert row["trend"]["direction"] == "falling"
        assert row["best"] == 0.8

    def test_phase_attribution_and_critical_paths(self):
        runs = [
            make_run(
                i,
                100.0,
                phases={
                    "compile": {"count": 1.0, "total_us": 1e6, "self_us": 2e5},
                    "tune": {"count": 1.0, "total_us": 8e5, "self_us": 8e5},
                },
                critical_path=[
                    {"name": "compile", "duration_us": 1e6, "self_us": 2e5},
                    {"name": "tune", "duration_us": 8e5, "self_us": 8e5},
                ],
            )
            for i in range(3)
        ]
        phases = phase_attribution(runs)
        assert phases[0]["phase"] == "tune"  # most self-time first
        assert phases[0]["share"] == pytest.approx(0.8)
        paths = aggregate_critical_paths(runs)
        assert paths == [
            {"path": ["compile", "tune"], "count": 3, "mean_us": pytest.approx(1e6)}
        ]
        text = analytics.render_attribution(phases, paths)
        assert "compile > tune" in text

    def test_corpus_rows_csv_roundtrip(self, tmp_path):
        run_dir = tmp_path / "runs"
        write_run(make_run(0, 123.0, funnel={"enumerated": 5, "measured": 2}), run_dir)
        warehouse = Warehouse(tmp_path / "corpus")
        warehouse.ingest(run_dir)
        rows = corpus_rows(warehouse)
        assert rows[0]["latency_us"] == 123.0
        assert rows[0]["funnel_enumerated"] == 5
        assert rows[0]["memo_hit_rate"] == pytest.approx(0.8)
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("run_id,")
        assert "123.0" in csv_text
        assert rows_to_csv([]) == ""


# ----------------------------------------------------------------------
# The history-aware regression gate (acceptance scenario)
# ----------------------------------------------------------------------
class TestHistoryGate:
    def drifting_runs(self):
        """3 baseline runs + 1 current: every pairwise step is under the
        20% latency limit, the whole window is not."""
        baseline = [make_run(i, lat) for i, lat in enumerate([100.0, 108.0, 117.0])]
        current = [make_run(3, 126.0)]
        return baseline, current

    def test_history_1_reproduces_pairwise_verdict(self):
        baseline, current = self.drifting_runs()
        pairwise = compare_runs(baseline, current)
        report = compare_runs_with_history(baseline, current, history=1)
        assert report["regressions"] == pairwise["regressions"] == []
        assert report["comparisons"] == pairwise["comparisons"]
        assert report["unmatched"] == pairwise["unmatched"]
        assert report["trends"] == [] and report["history"] == 1

    def test_monotone_drift_flagged_only_with_history(self):
        baseline, current = self.drifting_runs()
        # The pairwise gate is blind to it at any history=1 threshold use.
        assert compare_runs(baseline, current)["regressions"] == []
        report = compare_runs_with_history(baseline, current, history=3)
        metrics = [r["metric"] for r in report["regressions"]]
        assert metrics == ["latency_trend"]
        trend = report["regressions"][0]
        assert trend["drift"] > 0.20 and trend["where"] == "gemm on v100"
        # The rendering includes the trends section.
        from repro.obs.runlog import render_comparison

        text = render_comparison(report)
        assert "history trends" in text and "latency_trend" in text

    def test_accuracy_drift_flagged(self):
        baseline = [
            make_run(i, 100.0, accuracy=acc)
            for i, acc in enumerate([0.90, 0.88, 0.86])
        ]
        current = [make_run(3, 100.0, accuracy=0.84)]
        assert compare_runs(baseline, current)["regressions"] == []
        report = compare_runs_with_history(baseline, current, history=3)
        assert [r["metric"] for r in report["regressions"]] == ["accuracy_trend"]
        assert report["regressions"][0]["drift"] == pytest.approx(0.06, abs=0.005)

    def test_ignore_and_thresholds_respected(self):
        baseline, current = self.drifting_runs()
        report = compare_runs_with_history(
            baseline,
            current,
            CompareThresholds(ignore=("latency",)),
            history=3,
        )
        assert report["regressions"] == []
        report = compare_runs_with_history(
            baseline,
            current,
            CompareThresholds(max_latency_increase=0.50),
            history=3,
        )
        assert report["regressions"] == []

    def test_short_history_window_is_silent(self):
        baseline = [make_run(0, 100.0)]
        current = [make_run(1, 110.0)]
        report = compare_runs_with_history(baseline, current, history=5)
        assert report["trends"] == [] and report["regressions"] == []

    def test_history_must_be_positive(self):
        with pytest.raises(ValueError):
            compare_runs_with_history([], [], history=0)


# ----------------------------------------------------------------------
# Satellite 3: Tracer.merge rebasing + load_runs ordering stability
# ----------------------------------------------------------------------
class TestClockAndOrdering:
    def test_merge_rebases_negative_offsets(self):
        tracer = Tracer()
        payload = [
            {
                "name": "worker.root",
                "span_id": 1,
                "parent_id": None,
                "start_s": 100.0,
                "end_s": 100.5,
                "attrs": {},
            },
            {
                "name": "worker.child",
                "span_id": 2,
                "parent_id": 1,
                "start_s": 100.1,
                "end_s": 100.3,
                "attrs": {},
            },
        ]
        # Worker's perf_counter ran *ahead* of ours: negative shift.
        adopted = tracer.merge(payload, parent_id=None, lane=3, shift_s=-42.25)
        root = next(s for s in adopted if s.name == "worker.root")
        child = next(s for s in adopted if s.name == "worker.child")
        assert root.start_s == pytest.approx(57.75)
        assert root.end_s == pytest.approx(58.25)
        assert root.duration_us == pytest.approx(0.5e6)  # durations invariant
        assert child.start_s == pytest.approx(57.85)
        assert child.parent_id == root.span_id
        assert child.attrs["lane"] == 3
        # Rebased spans still nest inside their parent.
        assert root.start_s <= child.start_s <= child.end_s <= root.end_s

    def test_load_runs_order_is_content_stable_on_timestamp_ties(self, tmp_path):
        shared = "2026-08-07T00:00:00+00:00"
        # Filenames sort *opposite* to run ids: content must win.
        first = make_run(0, 100.0)
        first.run_id = "zzz"
        first.created_at = shared
        second = make_run(1, 200.0)
        second.run_id = "aaa"
        second.created_at = shared
        (tmp_path / "run_1.json").write_text(json.dumps(first.to_dict()))
        (tmp_path / "run_2.json").write_text(json.dumps(second.to_dict()))
        records = load_runs(tmp_path)
        assert [r.run_id for r in records] == ["aaa", "zzz"]

        # The warehouse inherits the same deterministic order.
        warehouse = Warehouse(tmp_path / "corpus")
        warehouse.ingest(tmp_path)
        assert warehouse.run_ids() == ["aaa", "zzz"]
        assert [r.run_id for r in warehouse.series(("gemm", "v100", "fp1"))] == [
            "aaa", "zzz",
        ]


# ----------------------------------------------------------------------
# Critical-path extraction
# ----------------------------------------------------------------------
class TestCriticalPath:
    def span(self, name, span_id, parent_id, start, end, **attrs):
        s = Span(name=name, span_id=span_id, parent_id=parent_id, start_s=start)
        s.end_s = end
        s.attrs.update(attrs)
        return s

    def test_heaviest_child_chain(self):
        spans = [
            self.span("root", 1, None, 0.0, 1.0),
            self.span("light", 2, 1, 0.0, 0.2),
            self.span("heavy", 3, 1, 0.2, 0.9),
            self.span("leaf", 4, 3, 0.3, 0.8),
        ]
        path = critical_path(spans)
        assert [p["name"] for p in path] == ["root", "heavy", "leaf"]
        assert path[0]["duration_us"] == pytest.approx(1e6)
        # self_us excludes children.
        assert path[0]["self_us"] == pytest.approx(1e6 - 0.2e6 - 0.7e6)
        assert critical_path([]) == []

    def test_orphan_parents_treated_as_roots(self):
        spans = [self.span("stray", 7, 999, 0.0, 0.5)]
        assert [p["name"] for p in critical_path(spans)] == ["stray"]

    def test_by_lane_grouping(self):
        # One critical path over the merged spans: entries from a pool
        # worker carry their lane, parent-process entries carry none.
        spans = [
            self.span("main", 1, None, 0.0, 1.0),
            self.span("w0", 2, 1, 0.0, 0.4, lane=0),
            self.span("w1", 3, 1, 0.0, 0.6, lane=1),
        ]
        path = critical_path(spans)
        assert [p["name"] for p in path] == ["main", "w1"]
        assert "lane" not in path[0] and path[1]["lane"] == 1


# ----------------------------------------------------------------------
# Satellite 1: watch --once fails loudly on empty sources
# ----------------------------------------------------------------------
class TestWatchOnceEmpty:
    def test_nonexistent_path(self, tmp_path):
        out = []
        rc = watch(str(tmp_path / "nope"), once=True, out=out.append)
        assert rc == 1
        assert any("no runs/events found" in line for line in out)

    def test_dir_without_streams(self, tmp_path):
        out = []
        rc = watch(str(tmp_path), once=True, out=out.append)
        assert rc == 1
        assert any("no runs/events found" in line for line in out)

    def test_empty_stream_file(self, tmp_path):
        stream = tmp_path / "events_x.jsonl"
        stream.write_text("")
        out = []
        rc = watch(str(stream), once=True, out=out.append)
        assert rc == 1
        assert any("no runs/events found" in line for line in out)


# ----------------------------------------------------------------------
# Satellite 2: suppressed-count flush at exit
# ----------------------------------------------------------------------
class TestSuppressedFlush:
    def test_flush_emits_pending_tallies(self):
        clock = [1000.0]
        logging_mod._now_fn = lambda: clock[0]
        stream = io.StringIO()
        logging_mod.set_log_stream(stream)
        logging_mod.set_log_level("info")
        logger = logging_mod.StructuredLogger("t.flush", burst=2, window_s=10.0)

        for _ in range(7):
            logger.warning("hot loop", n=1)
        assert len(stream.getvalue().splitlines()) == 2  # burst admitted

        logger.flush_suppressed()
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert len(lines) == 3
        final = lines[-1]
        assert final["suppressed"] == 5
        assert final["suppressed_final"] is True
        assert final["msg"] == "hot loop" and final["level"] == "warning"

        # Drained: a second flush emits nothing.
        logger.flush_suppressed()
        assert len(stream.getvalue().splitlines()) == 3

    def test_flush_covers_multiple_keys_and_module_helper(self):
        clock = [2000.0]
        logging_mod._now_fn = lambda: clock[0]
        stream = io.StringIO()
        logging_mod.set_log_stream(stream)
        logging_mod.set_log_level("info")
        logger = logging_mod.get_logger("t.flush.multi")
        logger._gate = logging_mod._RateGate(burst=1, window_s=10.0)

        for _ in range(3):
            logger.warning("msg a")
        for _ in range(4):
            logger.error("msg b")
        logging_mod.flush_suppressed()  # module-level (the atexit hook)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        finals = {l["msg"]: l for l in lines if l.get("suppressed_final")}
        assert finals["msg a"]["suppressed"] == 2
        assert finals["msg a"]["level"] == "warning"
        assert finals["msg b"]["suppressed"] == 3
        assert finals["msg b"]["level"] == "error"

    def test_nothing_pending_is_silent(self):
        stream = io.StringIO()
        logging_mod.set_log_stream(stream)
        logging_mod.set_log_level("info")
        logger = logging_mod.StructuredLogger("t.flush.quiet")
        logger.warning("once")
        before = stream.getvalue()
        logger.flush_suppressed()
        assert stream.getvalue() == before


# ----------------------------------------------------------------------
# CLI round-trips
# ----------------------------------------------------------------------
class TestCorpusCli:
    def seed_corpus(self, tmp_path, latencies=(100.0, 108.0, 117.0)):
        run_dir = tmp_path / "runs"
        for i, lat in enumerate(latencies):
            write_run(make_run(i, lat), run_dir)
        return run_dir

    def test_ingest_stats_trend_export(self, tmp_path, capsys):
        run_dir = self.seed_corpus(tmp_path)
        corpus = str(tmp_path / "corpus")
        assert cli_main(["corpus", "ingest", str(run_dir), "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        assert "3 new run(s)" in out

        assert cli_main(["corpus", "stats", "--corpus", corpus, "--check"]) == 0
        out = capsys.readouterr().out
        assert "runs: 3" in out and "store and index consistent" in out

        assert cli_main(["corpus", "trend", "--corpus", corpus]) == 0
        assert "rising" in capsys.readouterr().out

        assert cli_main(["corpus", "attribution", "--corpus", corpus]) == 0
        capsys.readouterr()

        csv_path = tmp_path / "rows.csv"
        assert cli_main(
            ["corpus", "export", "--corpus", corpus, "--csv", str(csv_path)]
        ) == 0
        capsys.readouterr()
        assert csv_path.read_text().splitlines()[0].startswith("run_id,")
        assert len(csv_path.read_text().splitlines()) == 4

        assert cli_main(["corpus", "stats", "--corpus", corpus, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["runs"] == 3

    def test_stats_check_fails_on_corruption(self, tmp_path, capsys):
        run_dir = self.seed_corpus(tmp_path)
        corpus = tmp_path / "corpus"
        cli_main(["corpus", "ingest", str(run_dir), "--corpus", str(corpus)])
        capsys.readouterr()
        warehouse = Warehouse(corpus)
        entry = warehouse._runs["run0001"]
        store = bytearray((corpus / STORE_NAME).read_bytes())
        store[entry.offset : entry.offset + entry.length] = b"x" * entry.length
        (corpus / STORE_NAME).write_bytes(bytes(store))
        assert cli_main(["corpus", "stats", "--corpus", str(corpus), "--check"]) == 1
        assert "problem(s)" in capsys.readouterr().out

    def test_old_manifest_loads_ingests_and_checks(self, tmp_path, capsys):
        """A manifest recorded before the pool's fault machinery and the
        runtime divergence check went — with ``faults`` and
        ``divergence`` sections and ``eval_timeout_s`` / ``max_retries``
        / ``fault_plan`` / ``divergence_rate`` in its ``tuner_config``
        (the checked-in CI baseline) — still loads, ingests, passes
        ``--check``, exports, renders and gates.  ``tuner_config`` is the
        recorded config, kept verbatim; no field of today's
        ``TunerConfig`` reads the old keys."""
        baseline = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines" / "ci_baseline.json"
        data = json.loads(baseline.read_text())
        assert "faults" in data
        assert {"eval_timeout_s", "max_retries", "fault_plan"} <= set(data["tuner_config"])
        assert data["divergence"] == {"checked": 35.0, "mismatched": 0.0}
        assert data["tuner_config"]["divergence_rate"] == 1.0
        run_dir = tmp_path / "old"
        run_dir.mkdir()
        (run_dir / "run_old.json").write_text(baseline.read_text())

        [record] = load_runs(run_dir)
        assert record.run_id == data["run_id"]
        assert record.latency_us == data["outcome"]["latency_us"]
        assert not hasattr(record, "faults")
        assert not hasattr(record, "divergence")
        assert "divergence" not in record.to_dict()
        assert not {"divergence_rate", "eval_timeout_s", "max_retries"} & {
            f.name for f in dataclasses.fields(TunerConfig)
        }

        corpus = str(tmp_path / "corpus")
        assert cli_main(["corpus", "ingest", str(run_dir), "--corpus", corpus]) == 0
        assert "1 new run(s)" in capsys.readouterr().out
        assert cli_main(["corpus", "stats", "--corpus", corpus, "--check"]) == 0
        assert "store and index consistent" in capsys.readouterr().out
        csv_path = tmp_path / "rows.csv"
        assert cli_main(["corpus", "export", "--corpus", corpus, "--csv", str(csv_path)]) == 0
        assert len(csv_path.read_text().splitlines()) == 2
        assert cli_main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "fault" not in out and "divergence" not in out
        assert cli_main(["report", "--compare", corpus, str(run_dir)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_missing_corpus_is_a_clear_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(["corpus", "stats", "--corpus", str(tmp_path / "nope")])
        assert "no corpus at" in capsys.readouterr().err

    def test_report_history_gate_through_warehouse(self, tmp_path, capsys):
        run_dir = self.seed_corpus(tmp_path)
        corpus = str(tmp_path / "corpus")
        cli_main(["corpus", "ingest", str(run_dir), "--corpus", corpus])
        current = tmp_path / "current"
        write_run(make_run(3, 126.0), current)
        capsys.readouterr()

        # history=1: pairwise only (117 -> 126 is +7.7%, passes).
        assert cli_main(["report", "--compare", corpus, str(current)]) == 0
        capsys.readouterr()
        # history=3: the monotone drift across the corpus trips the gate.
        rc = cli_main(
            ["report", "--compare", corpus, str(current), "--history", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "latency_trend" in out and "history trends" in out
