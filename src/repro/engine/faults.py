"""Fault-tolerance policy and deterministic fault injection.

Measurement-worker failure is routine in real auto-tuning
infrastructures: TVM-style runners time out and retry builds, Timeloop
batch sweeps isolate crashed evaluations from the search loop.  The AMOS
exploration loop (paper Sec 5.3) measures hundreds of candidates per GA
generation through a process pool, so this module gives the pool the
vocabulary to survive the three ways a worker task can die:

* **raise** — the task itself fails; the worker catches it and reports a
  structured error outcome, and the parent retries with exponential
  backoff up to :attr:`FaultPolicy.max_retries` before *quarantining*
  the item (re-running it inline through the in-process oracle).
* **crash** — the worker process dies mid-task; the result never
  arrives, the parent notices the dead process, terminates the wreck and
  respawns a fresh pool from the original context payload.
* **hang** — the task wedges; the batch deadline
  (:attr:`FaultPolicy.eval_timeout_s`) expires and the parent treats the
  pool as dead, exactly like a crash.

When the pool dies :attr:`FaultPolicy.max_pool_deaths` times the engine
*degrades*: every remaining evaluation runs inline in the parent.  None
of this can change results — every evaluator is a pure function of the
candidate, so a retried, quarantined or degraded evaluation is
byte-identical to the fault-free one; fault handling only decides *where*
the pure function runs.

:class:`FaultPlan` is the test-only half: a deterministic script of
injected faults (kill worker on task N, hang task N, raise on task N,
corrupt compile-cache writes) threaded through ``TunerConfig`` so the
fault-injection suite can prove the recovery paths produce byte-identical
tunes.  Task ordinals are assigned by the parent in submission order —
deterministic for a fixed tune — and each fault fires only while the
task's attempt number is below :attr:`FaultPlan.fault_attempts`, so a
retried task passes (or, with a large ``fault_attempts``, keeps failing
until quarantine/degradation kicks in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FaultPlan",
    "FaultPolicy",
    "InjectedFault",
    "PoolFailure",
    "fresh_fault_stats",
]


class InjectedFault(RuntimeError):
    """Raised inside a worker by a :class:`FaultPlan` ``raise`` action."""


class PoolFailure(RuntimeError):
    """Internal signal: the pool (not one task) must be torn down.

    Raised by the batch runner on a batch deadline, a dead worker
    process, or any unexpected error out of the ``multiprocessing``
    machinery itself; the pool manager answers with respawn-and-retry or
    degradation to inline evaluation.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class FaultPolicy:
    """How the worker pool survives failing tasks and dying workers.

    ``eval_timeout_s`` is the per-batch deadline: each ``map_async``
    submission must complete within it or the pool is presumed wedged
    (``None`` disables the deadline; dead workers are still detected by
    polling their exit codes).  ``max_retries`` bounds re-submissions of
    a failing task before it is quarantined inline; retries back off
    exponentially from ``backoff_s`` by ``backoff_factor``.  After
    ``max_pool_deaths`` pool deaths (crash or deadline) the engine stops
    respawning and degrades to fully inline evaluation.
    """

    eval_timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_pool_deaths: int = 2
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        # A zero/negative deadline times out every batch; nan silently
        # disables the deadline (every comparison with it is false).
        timeout = self.eval_timeout_s
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(
                f"eval_timeout_s must be a positive finite number or None, "
                f"got {timeout}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection script (tests only).

    Task ordinals count tasks in parent submission order over the pool's
    lifetime (retries keep their original ordinal).  An action fires only
    while the task's attempt number is below ``fault_attempts``: the
    default of 1 faults the first attempt and lets the retry succeed; a
    large value keeps the task failing so quarantine and pool-death
    degradation can be exercised.  ``corrupt_cache_writes`` simulates a
    crash mid-append in the persistent compile cache: the entry's line is
    written torn (truncated, no trailing newline).
    """

    kill_on: tuple[int, ...] = ()
    hang_on: tuple[int, ...] = ()
    raise_on: tuple[int, ...] = ()
    corrupt_cache_writes: bool = False
    fault_attempts: int = 1
    hang_s: float = 60.0

    def action_for(self, task_seq: int, attempt: int) -> str | None:
        """The injected action for one (task, attempt), or None."""
        if attempt >= self.fault_attempts:
            return None
        if task_seq in self.kill_on:
            return "kill"
        if task_seq in self.hang_on:
            return "hang"
        if task_seq in self.raise_on:
            return "raise"
        return None


#: Keys of the pool's always-on fault tally (mirrors the
#: ``engine.fault.*`` obs counters, readable with obs off).
FAULT_STAT_KEYS = (
    "task_errors",
    "retries",
    "timeouts",
    "worker_deaths",
    "respawns",
    "quarantined",
    "degraded",
)


def fresh_fault_stats() -> dict[str, int]:
    """A zeroed fault tally, one slot per ``engine.fault.*`` counter."""
    return dict.fromkeys(FAULT_STAT_KEYS, 0)
