"""Run one workload of the end-to-end compile benchmark.

From the repository root::

    python3 perfbench/run.py --workload resnet18_layers_a100 --seed 1 --seconds 20 --trace 0

Prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of ``BENCHMARK.json``; with
``--trace 1`` they are the ``per_layer`` list, taken from a second,
traced phase that follows the untraced one, and the span tree is written
to ``.perfbench_out/``.  The program is imported from ``src/`` of the
same checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy  # noqa: F401  (started before the set-up clock, see README)

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: In-process set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Fresh-interpreter imports per run, after one unrecorded warm-up;
#: ``setup_s`` takes their median.
IMPORT_REPEATS = 9
#: Speed samples taken before, and again after, each set-up step.
STEP_SAMPLES = 3


def import_seconds() -> float:
    """Seconds a fresh interpreter takes, after numpy has started, to
    import the benchmark's modules and with them the program."""
    code = (
        "import sys, time, numpy; "
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]; "
        "start = time.perf_counter(); import e2e, spans; "
        "print(time.perf_counter() - start)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def timed_step(probe, step) -> tuple[float, float]:
    """Seconds of one set-up step, raw and scaled to the reference machine
    speed by the median of the speed samples taken just before and just
    after it (a warm set-up lasts seconds, and one sample alone varies by
    about 10%).  ``step`` returns its own seconds."""
    samples = [probe.sample() for _ in range(STEP_SAMPLES)]
    seconds = step()
    samples += [probe.sample() for _ in range(STEP_SAMPLES)]
    return seconds, seconds * speed.REFERENCE_S / statistics.median(samples)


def stop_children() -> None:
    """End every process the program started and wait for each.

    Pool workers are joined by the program itself; any still alive are
    terminated here.  The ``spawn`` start method also starts
    multiprocessing's resource tracker, which otherwise outlives this
    process until it notices the exit on its own; closing its pipe and
    waiting for it ends it before the run does.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def metric_specs(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def report_lines(workload, rows: list[tuple[str, float, str]]) -> list[str]:
    first = workload.seed * workload.quality_seeds
    lines = [
        f"workload {workload.name}: seed {workload.seed}, closed loop, 1 client, "
        f"default TunerConfig; timed tuner seeds {first}..{first + workload.tuner_seeds - 1}, "
        f"kernel_latency_us over {first}..{first + workload.quality_seeds - 1}"
    ]
    lines += [f"  {name:32} {value:>14.6g} {unit}" for name, value, unit in rows]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import e2e
    import spans

    if args.workload not in e2e.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(e2e.WORKLOADS)}")

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    probe = speed.SpeedProbe()
    try:
        workload = e2e.WORKLOADS[args.workload](args.seed, workdir, probe)

        def setup_once() -> float:
            start = time.perf_counter()
            workload.setup()
            return time.perf_counter() - start

        setups = [timed_step(probe, setup_once) for _ in range(SETUP_REPEATS)]
        import_seconds()  # warm-up: file-system caches, not recorded
        imports = [timed_step(probe, import_seconds) for _ in range(IMPORT_REPEATS)]
        setup_raw_s = statistics.median(raw for raw, _ in imports) + statistics.median(
            raw for raw, _ in setups
        )
        setup_s = statistics.median(norm for _, norm in imports) + statistics.median(
            norm for _, norm in setups
        )

        passes = e2e.run_phase(workload, args.seconds, workload.tuner_seeds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = e2e.quality_phase(workload, passes)
        values = e2e.end_to_end(passes, quality, setup_s, peak_rss_mb)
        values["setup_raw_s"] = setup_raw_s
        lines = []
        if args.trace:
            recorder = spans.SpanRecorder()
            with spans.traced(recorder):
                traced = e2e.run_phase(
                    workload, 0.0, workload.traced_passes, lambda: recorder.span("bench.pass")
                )
            untraced_wall = values["wall_s"]
            values = spans.layer_metrics(recorder)
            values["trace.overhead_frac"] = (
                statistics.median(p.normalized_wall_s() for p in traced) / untraced_wall - 1.0
            )
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"spans_{workload.name}_seed{args.seed}.jsonl")
            recorder.write_jsonl(trace_path)
            lines += [f"traced phase: {len(traced)} passes, spans in {trace_path}"]
            lines += spans.attribution_lines(recorder)
            passes += traced
    finally:
        probe.close()
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    checked = workload.setup_passes + passes + quality
    attempted = sum(p.attempted for p in checked)
    failed = sum(len(p.problems) for p in checked)
    for p in checked:
        for operation, reasons in p.problems.items():
            print(f"FAILED {operation}: {'; '.join(reasons)}", file=sys.stderr)
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    rows = [(name, values[name], unit) for name, unit in specs]
    rows.append(("fail_frac", failed / attempted, "frac"))
    rows += [(name, values[name], unit) for name, unit in e2e.EXTRA_UNITS.items() if name in values]
    report = report_lines(workload, rows)
    if not args.trace and "compile_ms_p90" not in values:
        report.append(f"  compile_ms_p90 not reported: fewer than {e2e.P90_MIN_SAMPLES} samples")
    if isinstance(workload, e2e.ResNet50Warm):
        report.append(f"  cache fill: n_workers={workload.FILL_WORKERS} (inline)")
    print("\n".join(report + lines))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in specs
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
