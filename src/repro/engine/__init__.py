"""repro.engine — batch evaluation for the explore path.

The tuner's hot loop is "score thousands of (mapping, schedule)
candidates with the analytic model, measure the promising ones on the
cycle simulator".  This package makes that loop fast without changing a
single result:

* :mod:`repro.engine.fingerprint` — canonical content-addressed keys for
  computations, hardware, mappings and tuner budgets;
* :mod:`repro.engine.cache` — the persistent on-disk compile cache;
* :mod:`repro.engine.pool` — the opt-in spawn process pool evaluating
  chunks of schedule rows (a raising task or a dead worker raises);
* :mod:`repro.engine.engine` — :class:`EvaluationEngine`, the batch
  front door combining all of the above.

Everything is deterministic by construction: the evaluators are pure
functions of each row and results are reassembled in submission order,
so neither worker count nor batch composition can change what the tuner
returns.
"""

from repro.engine.cache import (
    CACHE_VERSION,
    CompileCache,
    compile_cache_for,
    reset_compile_caches,
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
    "WorkerPool",
    "compile_cache_for",
    "computation_fingerprint",
    "hardware_fingerprint",
    "mapping_fingerprint",
    "reset_compile_caches",
    "resolve_workers",
    "tuner_config_fingerprint",
]
