"""Tier-1 wrapper for the batch-evaluation benchmark.

``pyproject.toml`` points pytest at ``tests/`` only, so the contract of
``benchmarks/bench_batch_eval.py`` — bit-identical results between the
batch evaluators and the scalar oracle and at least a 5x candidates/sec
advantage on a GA-generation-sized fitness batch — is re-exported here
to run under the tier-1 command as well.
"""

import importlib.util
import pathlib

_BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "bench_batch_eval.py"
)
_spec = importlib.util.spec_from_file_location("bench_batch_eval", _BENCH_PATH)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)

test_batch_eval_bench_quick = _bench.test_batch_eval_bench_quick
