"""Tests of the benchmark itself, at a tiny tuner budget.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import e2e  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from repro import TunerConfig  # noqa: E402
import repro.compiler as compiler  # noqa: E402

TINY = TunerConfig(
    population=4,
    generations=1,
    measure_top=2,
    prefilter_mappings=2,
    refine_rounds=1,
    refine_neighbors=2,
    n_workers=1,
)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload built while the fixture is active gets the tiny budget."""
    monkeypatch.setattr(e2e, "TunerConfig", lambda: TINY)


def _main(capsys, workload: str, trace: int = 0) -> tuple[str, dict]:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(e2e.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(tiny, capsys, workload):
    out, result = _main(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.metric_specs("end_to_end"):
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in out.splitlines()), name
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert "fail_frac" in out and "compile_n" in out


def test_tampered_latency_raises_fail_frac(tiny, capsys, monkeypatch):
    real = compiler.amos_compile

    def tampered(*args, **kwargs):
        kernel = real(*args, **kwargs)
        return dataclasses.replace(kernel, latency_us=kernel.latency_us * 1.01)

    monkeypatch.setattr(compiler, "amos_compile", tampered)
    out, result = _main(capsys, "resnet18_layers_a100")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    fail_frac = next(line.split()[1] for line in out.splitlines() if line.split()[:1] == ["fail_frac"])
    assert float(fail_frac) > 0


def test_warm_cache_miss_raises_fail_frac(tiny, capsys, monkeypatch):
    # A miss re-tunes with the same seed and config, so the kernel and the
    # round total still match the cold fill; only the store gives it away.
    monkeypatch.setattr(compiler, "_kernel_from_cache", lambda *args: None)
    assert run.main(["--workload", "resnet50_v100_warm", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "not served from the compile cache" in captured.err


def test_run_leaves_no_process_behind(capsys, monkeypatch):
    from multiprocessing import resource_tracker

    pooled = dataclasses.replace(TINY, population=16, n_workers=2)
    monkeypatch.setattr(e2e, "TunerConfig", lambda: pooled)
    real_stop = run.stop_children
    tracker_pids = []

    def stop_children():
        tracker_pids.append(resource_tracker._resource_tracker._pid)
        real_stop()

    monkeypatch.setattr(run, "stop_children", stop_children)
    _, result = _main(capsys, "resnet18_layers_a100")
    assert result["correct"]
    assert tracker_pids and tracker_pids[0] is not None  # the pool did start one
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(tracker_pids[0], 0)


def _traced(workload_cls, tmp_path) -> tuple[dict[str, float], float, spans.SpanRecorder]:
    tmp_path.mkdir(exist_ok=True)
    recorder = spans.SpanRecorder()
    with speed.SpeedProbe() as probe:
        workload = workload_cls(5, str(tmp_path), probe)
        workload.setup()
        with spans.traced(recorder):
            passes = e2e.run_phase(
                workload, 0.0, workload.traced_passes, lambda: recorder.span("bench.pass")
            )
    assert not any(p.problems for p in workload.setup_passes + passes)
    return spans.layer_metrics(recorder), e2e.kernel_latency_us(passes), recorder


@pytest.mark.parametrize("workload_cls", [e2e.ResNet18Layers, e2e.ResNet50Warm])
def test_traced_counts_repeat_exactly(tiny, tmp_path, workload_cls):
    first, first_us, _ = _traced(workload_cls, tmp_path / "a")
    second, second_us, _ = _traced(workload_cls, tmp_path / "b")
    assert first["mapping.mappings_found"] == second["mapping.mappings_found"] > 0
    assert first["cache.hit_frac"] == second["cache.hit_frac"]
    assert first_us == second_us
    if workload_cls is e2e.ResNet50Warm:
        assert first["cache.hit_frac"] == 1.0 and first["cache.stores"] == 0
        assert first["pool.spawns"] == first["engine.rows_requested"] == 0


def test_traced_wall_is_attributed(tiny, tmp_path):
    metrics, _, _ = _traced(e2e.MobileNetMali, tmp_path)
    assert metrics["cache.stores"] == metrics["evaluation.compile_calls"] > 0
    assert 0 < metrics["evaluation.compile_frac"] < 1
    assert metrics["trace.unattributed_s"] < 0.01 * metrics["trace.wall_s"]


def test_wrappers_are_removed_after_tracing():
    import repro.explore.tuner as tuner

    before = tuner.enumerate_mappings
    with spans.traced(spans.SpanRecorder()):
        assert tuner.enumerate_mappings is not before
    assert tuner.enumerate_mappings is before


def test_p90_needs_ten_samples_beyond_it():
    def passes(n: int) -> list[e2e.Pass]:
        return [e2e.Pass(0, 1.0, [0.001] * n, 1.0, n + 1, probe_s=[speed.REFERENCE_S] * n)]

    assert "compile_ms_p90" not in e2e.end_to_end(passes(99), [], 1.0, 1.0)
    assert "compile_ms_p90" in e2e.end_to_end(passes(100), [], 1.0, 1.0)


def test_fails_without_program_source(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "resnet18_layers_a100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
