"""Benchmark: the evaluation engine's execution knobs (``repro.engine``).

Three measurements, all driven by ``repro.obs`` counters
(``engine.rows``, ``engine.pool.{tasks,batches}``,
``engine.compile_cache.{hit,miss}``) and, run as a script, written to
``benchmarks/results/BENCH_tuner.json``:

1. **serial vs parallel tune** — the same ``Tuner.tune`` run with
   ``n_workers=1`` (pure in-process) and ``n_workers>1`` (process pool
   for batches of at least ``engine.MIN_POOL_BATCH`` rows).  The two runs
   must produce identical results — worker count is an execution knob,
   never a search knob.  Wall-clock speedup only materialises on a
   multi-core machine; on a single core the pool threshold keeps small
   batches in-process so the parallel path is never meaningfully slower.
2. **repeat tune** — a second tune of the identical operator in the same
   process (its operator, admission and lowering memos warm) must return
   a byte-identical result: same best, same trials in the same order.
3. **persistent compile cache** — ``evaluate_network`` twice against one
   ``cache_dir``: the second run (fresh process state, cache re-read
   from disk) must serve *every* tensor-op compile from the cache and
   reproduce the exact end-to-end latency.

Runnable standalone (``python benchmarks/bench_parallel_tuner.py
[--quick]``) and re-exported by ``tests/test_parallel_tuner_bench.py``
so the quick-mode assertions run under the tier-1 command; the test
writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import shutil
import sys
import tempfile
import time

import repro.obs as obs
from repro.engine.cache import reset_compile_caches
from repro.engine.engine import resolve_workers
from repro.evaluation import AmosBackend, evaluate_network
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.networks import NetworkOp
from repro.frontends.operators import make_operator
from repro.model import get_hardware

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
RESULT_FILE = "BENCH_tuner.json"

#: Quick-mode budget: every engine batch stays below the pool threshold,
#: so serial and parallel runs do byte-identical in-process work and the
#: timing assertion is meaningful even on a one-core CI box.
QUICK_CONFIG = TunerConfig(
    population=8,
    generations=2,
    measure_top=8,
    refine_rounds=1,
    refine_neighbors=4,
)

#: Full-mode budget on a mapping-rich operator (C2D enumerates ~100
#: mappings, so the prefilter batch alone clears ``engine.MIN_POOL_BATCH``).
FULL_CONFIG = TunerConfig()

#: A tiny network for the persistent-cache proof: two distinct conv
#: shapes (one repeated, exercising the in-run layer cache) plus a
#: non-tensor op that never touches the compile cache.
TINY_NETWORK = [
    NetworkOp("C2D", dict(n=1, c=16, k=16, h=8, w=8, r=3, s=3, stride=1), repeat=2),
    NetworkOp("GMM", dict(m=64, n=64, k=64)),
    NetworkOp("relu", dict(elements=4096)),
]


def _counters() -> dict[str, float]:
    return {
        m["name"]: m["value"]
        for m in obs.get_registry().snapshot()
        if m["kind"] == "counter" and m["name"].startswith("engine.")
    }


def _timed_tune(
    comp, config: TunerConfig
) -> tuple[float, float, str, dict[str, float]]:
    """One tune under fresh obs; (wall_s, best_us, result digest,
    counters).  The digest covers the best and every trial, in order."""
    obs.reset()
    obs.enable()
    try:
        tuner = Tuner(get_hardware("v100"), config)
        start = time.perf_counter()
        result = tuner.tune(comp)
        wall_s = time.perf_counter() - start
        counters = _counters()
    finally:
        obs.disable()
        obs.reset()
    trials = [
        (t.mapping_index, t.scheduled.schedule.describe(), t.predicted_us, t.measured_us)
        for t in result.trials
    ]
    digest = hashlib.sha256(repr((result.best_us, trials)).encode()).hexdigest()
    return wall_s, result.best_us, digest, counters


def _replace(config: TunerConfig, **overrides) -> TunerConfig:
    import dataclasses

    return dataclasses.replace(config, **overrides)


def run_tune_comparison(quick: bool) -> dict:
    """Serial vs parallel vs repeat tune of one operator."""
    if quick:
        comp = make_operator("GMM", m=64, n=64, k=64)
        base = QUICK_CONFIG
        workload = "GMM m=64 n=64 k=64"
    else:
        comp = make_operator("C2D", n=1, c=16, k=16, h=14, w=14, r=3, s=3, stride=1)
        base = FULL_CONFIG
        workload = "C2D c=16 k=16 h=14 w=14"

    parallel_workers = max(2, resolve_workers(None))
    serial_s, serial_us, serial_digest, serial_counters = _timed_tune(
        comp, _replace(base, n_workers=1)
    )
    parallel_s, parallel_us, _, parallel_counters = _timed_tune(
        comp, _replace(base, n_workers=parallel_workers)
    )
    repeat_s, repeat_us, repeat_digest, repeat_counters = _timed_tune(
        comp, _replace(base, n_workers=1)
    )
    return {
        "workload": workload,
        "serial": {"wall_s": serial_s, "best_us": serial_us, **serial_counters},
        "parallel": {
            "wall_s": parallel_s,
            "best_us": parallel_us,
            "n_workers": parallel_workers,
            **parallel_counters,
        },
        "repeat": {
            "wall_s": repeat_s,
            "best_us": repeat_us,
            "identical": repeat_digest == serial_digest,
            **repeat_counters,
        },
        "identical": serial_us == parallel_us == repeat_us,
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
    }


def run_network_cache(quick: bool, cache_dir: str) -> dict:
    """evaluate_network twice against one persistent cache directory."""
    hw = get_hardware("v100")
    config = _replace(QUICK_CONFIG if quick else FULL_CONFIG,
                      n_workers=1, cache_dir=cache_dir)

    def one_run() -> tuple[float, float, dict[str, float]]:
        # Fresh cache state: the cache is re-read from disk.
        reset_compile_caches()
        obs.reset()
        obs.enable()
        try:
            backend = AmosBackend(config=config)
            start = time.perf_counter()
            result = evaluate_network("tiny", TINY_NETWORK, backend, hw, batch=1)
            return time.perf_counter() - start, result.total_us, _counters()
        finally:
            obs.disable()
            obs.reset()

    cold_s, cold_us, cold_counters = one_run()
    warm_s, warm_us, warm_counters = one_run()
    hits = warm_counters.get("engine.compile_cache.hit", 0.0)
    misses = warm_counters.get("engine.compile_cache.miss", 0.0)
    return {
        "tensor_op_compiles": hits + misses,
        "cold": {"wall_s": cold_s, "total_us": cold_us, **cold_counters},
        "warm": {"wall_s": warm_s, "total_us": warm_us, **warm_counters},
        "warm_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "identical": cold_us == warm_us,
        "speedup": cold_s / warm_s if warm_s else 0.0,
    }


def run_bench(quick: bool) -> dict:
    cache_dir = tempfile.mkdtemp(prefix="repro_bench_cache_")
    try:
        report = {
            "quick": quick,
            "tune": run_tune_comparison(quick),
            "network_cache": run_network_cache(quick, cache_dir),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        reset_compile_caches()
    return report


def check_bench(report: dict) -> None:
    """The engine's correctness + performance contract, asserted."""
    tune = report["tune"]
    assert tune["identical"], (
        f"worker count / a repeat tune changed the result: {tune}"
    )
    # Quick mode: batches stay below the pool threshold, so serial and
    # parallel do identical in-process work and must time the same up to
    # noise.  Full mode engages the real pool, whose spawn + IPC overhead
    # only pays off with real cores underneath — so wall-clock there is
    # reported, not asserted (a single-core CI box would always fail).
    if report["quick"]:
        assert tune["parallel"]["wall_s"] <= tune["serial"]["wall_s"] * 1.5 + 0.2, (
            f"parallel tune slower than serial beyond tolerance: "
            f"{tune['parallel']['wall_s']:.3f}s vs {tune['serial']['wall_s']:.3f}s"
        )
    assert tune["repeat"]["identical"], (
        f"a second in-process tune must return a byte-identical result: "
        f"{tune['repeat']}"
    )

    net = report["network_cache"]
    assert net["identical"], f"warm cache changed the network result: {net}"
    assert net["warm_hit_rate"] == 1.0, (
        f"second evaluate_network must serve every tensor-op compile "
        f"from the persistent cache: {net}"
    )
    assert net["warm"].get("engine.compile_cache.miss", 0.0) == 0.0


def test_parallel_tuner_bench_quick():
    report = run_bench(quick=True)
    check_bench(report)
    tune, net = report["tune"], report["network_cache"]
    print(
        f"\ntune {tune['workload']}: serial {tune['serial']['wall_s']:.3f}s, "
        f"parallel({tune['parallel']['n_workers']}w) "
        f"{tune['parallel']['wall_s']:.3f}s, repeat "
        f"{tune['repeat']['wall_s']:.3f}s "
        f"(identical {tune['repeat']['identical']})"
        f"\nnetwork cache: cold {net['cold']['wall_s']:.3f}s, warm "
        f"{net['warm']['wall_s']:.3f}s ({net['speedup']:.1f}x, "
        f"hit rate {net['warm_hit_rate']:.1%})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny workload + assertions (the tier-1 configuration)",
    )
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick)
    check_bench(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / RESULT_FILE
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
