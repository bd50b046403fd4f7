"""Tier-1 wrapper for the parallel-tuner benchmark.

``pyproject.toml`` points pytest at ``tests/`` only, so the quick-mode
contract of ``benchmarks/bench_parallel_tuner.py`` — identical results
for any worker count and for a repeat tune in the same process, parallel
not slower than serial beyond noise on
the tiny in-process workload, and a 100% compile-cache hit rate on the
second identical ``evaluate_network`` — is re-exported here to run
under the tier-1 command as well.
"""

import importlib.util
import pathlib

_BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "bench_parallel_tuner.py"
)
_spec = importlib.util.spec_from_file_location("bench_parallel_tuner", _BENCH_PATH)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)

test_parallel_tuner_bench_quick = _bench.test_parallel_tuner_bench_quick
