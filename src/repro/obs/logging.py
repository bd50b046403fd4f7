"""Zero-dependency structured logging: JSONL lines with correlation ids.

The library used to have no logging story at all: the tuner was silent
and the CLI printed ad-hoc summaries to stdout.  This module gives every
layer one shared idiom — ``get_logger(name).info("msg", key=value)`` —
that emits one JSON object per line to stderr, carrying

* the usual record fields (UTC wall time, level, logger name, message),
* **correlation ids**: the process pid, the active flight-recorder run
  id (via the event bus, which the recorder stamps for the run's
  duration) and the innermost live span id, so a log line can be joined
  against manifests, traces and event streams;
* any structured extras the call site attaches.

Level filtering follows stdlib conventions (DEBUG/INFO/WARNING/ERROR).
The *library* default is WARNING — importing repro never chats on
stderr — and the CLI raises it to INFO for progress lines unless
``--quiet`` or the ``REPRO_LOG_LEVEL`` environment variable says
otherwise (explicit ``--quiet`` wins over the environment).

Repeated warnings and errors are rate-limited per ``(logger, level,
message)`` key: after ``burst`` occurrences inside one ``window_s`` the
rest of the window is suppressed, and the first record of the next
window carries a ``suppressed`` count — a hot loop logging the same
warning cannot drown the stream.  Tallies still pending when the
process exits are not lost: an ``atexit`` hook
(:func:`flush_suppressed`) emits one final summary record per (level,
message) key, marked ``suppressed_final``.  DEBUG and INFO records are
never gated: they are progress lines asked for by lowering the level
(the tuner logs one ``generation`` record per GA generation), and
dropping some would truncate them.

Records at WARNING and above are additionally republished as ``log``
events on the telemetry bus (when it is enabled), so the live stream
and ``repro watch`` show problems without tailing stderr.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
import weakref
from datetime import datetime, timezone
from typing import Any, TextIO

from repro.obs import events as _events
from repro.obs import trace as _trace

__all__ = [
    "LEVELS",
    "StructuredLogger",
    "configure_logging",
    "flush_suppressed",
    "get_logger",
    "log_level",
    "set_log_level",
    "set_log_stream",
]

#: Level names -> numeric severity (stdlib-compatible values).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}

#: Environment variable consulted when no explicit level was configured.
ENV_LEVEL = "REPRO_LOG_LEVEL"

#: Library default: silent unless something is wrong.
DEFAULT_LEVEL = LEVELS["warning"]

_level: int | None = None  # None -> resolve from env / default lazily
_stream: TextIO | None = None  # None -> sys.stderr at write time
_lock = threading.Lock()
_loggers: dict[str, "StructuredLogger"] = {}
# Every instance, including ones constructed directly (not via
# get_logger), so the exit flush misses no pending suppressed tallies.
_instances: "weakref.WeakSet[StructuredLogger]" = weakref.WeakSet()

#: Injectable clock for rate-limiter tests.
_now_fn = time.time


def _coerce_level(level: int | str) -> int:
    if isinstance(level, int):
        return level
    try:
        return LEVELS[level.lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        ) from None


def set_log_level(level: int | str | None) -> None:
    """Set the process-wide level; ``None`` reverts to env/default."""
    global _level
    _level = None if level is None else _coerce_level(level)


def log_level() -> int:
    """The effective level: explicit setting, else env, else WARNING."""
    if _level is not None:
        return _level
    env = os.environ.get(ENV_LEVEL)
    if env:
        try:
            return _coerce_level(env)
        except ValueError:
            return DEFAULT_LEVEL
    return DEFAULT_LEVEL


def set_log_stream(stream: TextIO | None) -> None:
    """Redirect log output (tests, file capture); ``None`` -> stderr."""
    global _stream
    _stream = stream


def configure_logging(default: int | str = "info", quiet: bool = False) -> None:
    """CLI entry-point configuration.

    ``--quiet`` forces WARNING (explicit flag beats environment);
    otherwise ``REPRO_LOG_LEVEL`` wins when set, else ``default``.
    """
    if quiet:
        set_log_level("warning")
    elif os.environ.get(ENV_LEVEL):
        set_log_level(None)  # resolve from the environment at call time
    else:
        set_log_level(default)


class _RateGate:
    """Per-key token window: ``burst`` records per ``window_s`` seconds."""

    __slots__ = ("burst", "window_s", "_state", "_lock")

    def __init__(self, burst: int = 5, window_s: float = 10.0):
        self.burst = burst
        self.window_s = window_s
        self._state: dict[str, list[float]] = {}  # key -> [window_start, count, suppressed]
        self._lock = threading.Lock()

    def admit(self, key: str, now: float) -> tuple[bool, int]:
        """(allowed, suppressed_before): whether to emit, and how many
        records were dropped since the last emitted one."""
        with self._lock:
            state = self._state.get(key)
            if state is None or now - state[0] >= self.window_s:
                suppressed = int(state[2]) if state else 0
                self._state[key] = [now, 1, 0]
                return True, suppressed
            if state[1] < self.burst:
                state[1] += 1
                return True, 0
            state[2] += 1
            return False, 0

    def drain(self) -> dict[str, int]:
        """Pending suppressed-count tallies per key, zeroing each.

        A count normally surfaces on the first record of the *next*
        window; at process exit there is no next window, so the exit
        flush collects whatever is pending here instead.
        """
        with self._lock:
            pending = {}
            for key, state in self._state.items():
                if state[2]:
                    pending[key] = int(state[2])
                    state[2] = 0
            return pending


class StructuredLogger:
    """One named logger; cheap to hold, safe to share across threads."""

    __slots__ = ("name", "_gate", "__weakref__")

    def __init__(self, name: str, burst: int = 5, window_s: float = 10.0):
        self.name = name
        self._gate = _RateGate(burst, window_s)
        _instances.add(self)

    # -- level methods --------------------------------------------------
    def debug(self, msg: str, **fields: Any) -> None:
        self.log(LEVELS["debug"], msg, **fields)

    def info(self, msg: str, **fields: Any) -> None:
        self.log(LEVELS["info"], msg, **fields)

    def warning(self, msg: str, **fields: Any) -> None:
        self.log(LEVELS["warning"], msg, **fields)

    def error(self, msg: str, **fields: Any) -> None:
        self.log(LEVELS["error"], msg, **fields)

    def log(self, level: int, msg: str, **fields: Any) -> None:
        if level < log_level():
            return
        now = _now_fn()
        suppressed = 0
        if level >= LEVELS["warning"]:
            allowed, suppressed = self._gate.admit(f"{level}:{msg}", now)
            if not allowed:
                return
        self._emit(level, msg, now, suppressed, fields)

    def flush_suppressed(self) -> None:
        """Emit one summary record per (level, msg) key whose suppressed
        tally never surfaced (no next window opened).  Bypasses the rate
        gate — these records already passed the level filter when they
        were counted."""
        for key, count in self._gate.drain().items():
            level_text, _, msg = key.partition(":")
            self._emit(
                int(level_text),
                msg,
                _now_fn(),
                count,
                {"suppressed_final": True},
            )

    def _emit(
        self,
        level: int,
        msg: str,
        now: float,
        suppressed: int,
        fields: dict[str, Any],
    ) -> None:
        record: dict[str, Any] = {
            "ts": datetime.fromtimestamp(now, timezone.utc).isoformat(
                timespec="milliseconds"
            ),
            "level": _LEVEL_NAMES.get(level, str(level)),
            "logger": self.name,
            "msg": msg,
            "pid": os.getpid(),
        }
        run_id = _events.get_bus().run_id
        if run_id:
            record["run_id"] = run_id
        span_id = _trace.current_span_id()
        if span_id is not None:
            record["span_id"] = span_id
        if suppressed:
            record["suppressed"] = suppressed
        if fields:
            record.update(fields)
        stream = _stream if _stream is not None else sys.stderr
        line = json.dumps(record, sort_keys=True, default=str)
        with _lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass  # a closed/broken stderr must never break the run
        if level >= LEVELS["warning"] and _events._enabled:
            data = {"level": record["level"], "msg": msg, "logger": self.name}
            for k, v in fields.items():
                if k not in data and isinstance(v, (bool, int, float, str)):
                    data[k] = v
            _events.emit("log", data)


def get_logger(name: str) -> StructuredLogger:
    """The named logger (cached per process)."""
    with _lock:
        logger = _loggers.get(name)
        if logger is None:
            logger = _loggers[name] = StructuredLogger(name)
        return logger


def flush_suppressed() -> None:
    """Flush pending suppressed-count tallies on every live logger.

    Registered ``atexit``: a run that dies (or simply ends) mid-window
    would otherwise silently drop the count of rate-limited records —
    precisely the "how bad was the spam" number post-mortems need.
    Idempotent; safe to call early (e.g. from tests or a CLI epilogue).
    """
    for logger in list(_instances):
        logger.flush_suppressed()


atexit.register(flush_suppressed)
