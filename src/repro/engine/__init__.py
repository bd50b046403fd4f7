"""repro.engine — parallel, memoized evaluation for the explore path.

The tuner's hot loop is "score thousands of (mapping, schedule)
candidates with the analytic model, measure the promising ones on the
cycle simulator".  This package makes that loop fast without changing a
single result:

* :mod:`repro.engine.fingerprint` — canonical content-addressed keys for
  computations, hardware, mappings and candidates;
* :mod:`repro.engine.cache` — the in-memory memo (predictions +
  measurements) and the persistent on-disk compile cache;
* :mod:`repro.engine.pool` — the opt-in spawn process pool evaluating
  chunks of schedule rows (a raising task or a dead worker raises);
* :mod:`repro.engine.engine` — :class:`EvaluationEngine`, the batch
  front door combining all of the above.

Everything is deterministic by construction: results are reassembled in
submission order and the memo only skips recomputing values that are
pure functions of their key, so neither worker count nor cache temperature
can change what the tuner returns.
"""

from repro.engine.cache import (
    CACHE_VERSION,
    CompileCache,
    MemoCache,
    compile_cache_for,
    global_memo,
    reset_compile_caches,
    reset_global_memo,
)
from repro.engine.engine import EvaluationEngine, resolve_workers
from repro.engine.fingerprint import (
    computation_fingerprint,
    hardware_fingerprint,
    mapping_fingerprint,
    tuner_config_fingerprint,
)
from repro.engine.pool import WorkerPool

__all__ = [
    "CACHE_VERSION",
    "CompileCache",
    "EvaluationEngine",
    "MemoCache",
    "WorkerPool",
    "compile_cache_for",
    "computation_fingerprint",
    "global_memo",
    "hardware_fingerprint",
    "mapping_fingerprint",
    "reset_compile_caches",
    "reset_global_memo",
    "resolve_workers",
    "tuner_config_fingerprint",
]
