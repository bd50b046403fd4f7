"""The persistent compile cache.

:class:`CompileCache`: an on-disk JSONL cache of *compiled kernels*
(the outcome of a whole ``amos_compile``), keyed by the (computation,
hardware, tuner budget) fingerprints.  A warm cache lets a repeated
``python -m repro`` run or a second ``evaluate_network`` sweep skip
re-tuning identical (op, params, batch, hardware) kernels entirely.
Entries carry the fingerprints they were computed from; an entry whose
stored fingerprints do not match the live objects (a "poisoned" or
stale entry) is ignored, never served.

There is no in-memory memo of candidate evaluations: the engine
evaluates every row it is handed (see :mod:`repro.engine.engine`).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any

from repro.obs import metrics as _obs_metrics

__all__ = [
    "CACHE_VERSION",
    "CompileCache",
    "compile_cache_for",
    "reset_compile_caches",
    "reset_global_memo",
]

#: Bump when the evaluators or the entry layout change incompatibly;
#: entries with another version are ignored on load.
CACHE_VERSION = 1


def reset_global_memo() -> None:
    """A no-op: the engine keeps no evaluation memo.  Kept because
    ``perfbench/e2e.py`` imports and calls it before every pass; goes
    with the perfbench change that drops that call (ROADMAP.md)."""


class CompileCache:
    """Append-only JSONL cache of compiled kernels under ``cache_dir``.

    Layout: one file ``compile_cache.jsonl``; one JSON object per line::

        {"key": ..., "version": 1, "comp_fp": ..., "hw_fp": ...,
         "config_fp": ..., "used_intrinsics": true, "intrinsic": ...,
         "matching": [...], "mapping_fp": ..., "schedule": {...},
         "latency_us": ..., "num_mappings": ...}

    ``matching`` holds one int per software iteration: the bitmask of
    the intrinsic iterations it maps to.  A hit admits and lowers only
    that mapping and checks it against ``mapping_fp``; an entry without
    a usable ``matching`` (one written before the field existed) is a
    miss that re-tunes and appends the line that then wins.

    The full file is loaded into a dict on first use; later entries for
    the same key win (so re-tuning after an invalidation simply appends).
    Corrupt or wrong-version lines are skipped, not fatal; the skip count
    is kept in :attr:`skipped_lines` and reported on the
    ``engine.compile_cache.skipped_lines`` counter so a decaying cache
    file shows up in the flight recorder instead of silently shrinking.

    Writes are crash-safe appends: each entry is one ``os.write`` of a
    newline-terminated line on an ``O_APPEND`` descriptor, and when the
    file ends without a newline (a previous writer died mid-append) the
    next store prepends one — so a torn final line costs exactly that
    one entry, never the next one glued onto it.  Appends are serialised
    under a lock within the process; cross-process writers at worst
    duplicate work, never corrupt reads.

    ``torn_write`` (crash tests only) makes every :meth:`store` write
    what a writer killed mid-append leaves behind: the first half of the
    line, no trailing newline, and the in-memory table untouched.
    """

    FILENAME = "compile_cache.jsonl"

    def __init__(self, cache_dir: str, torn_write: bool = False):
        self.cache_dir = cache_dir
        self.torn_write = torn_write
        self.path = os.path.join(cache_dir, self.FILENAME)
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, Any]] = {}
        #: Lines the loader could not use (torn, corrupt, wrong version,
        #: missing key) — observable with obs on or off.
        self.skipped_lines = 0
        #: True when the on-disk file ends mid-line; the next append must
        #: start with a newline so the new entry stays parseable.
        self._needs_newline = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            content = fh.read()
        self._needs_newline = bool(content) and not content.endswith("\n")
        for line in content.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
                self.skipped_lines += 1
                continue
            key = entry.get("key")
            if isinstance(key, str):
                self._entries[key] = entry
            else:
                self.skipped_lines += 1
        if self.skipped_lines:
            _obs_metrics.counter("engine.compile_cache.skipped_lines").inc(
                self.skipped_lines
            )

    def lookup(self, key: str) -> dict[str, Any] | None:
        return self._entries.get(key)

    def store(self, key: str, entry: dict[str, Any]) -> None:
        """Append one entry (see the class docstring for crash safety)."""
        entry = {**entry, "key": key, "version": CACHE_VERSION}
        data = (json.dumps(entry) + "\n").encode("utf-8")
        if self.torn_write:
            data = data[: max(1, len(data) // 2)]
        with self._lock:
            os.makedirs(self.cache_dir, exist_ok=True)
            if self._needs_newline:
                data = b"\n" + data
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            if self.torn_write:
                self._needs_newline = True
            else:
                self._needs_newline = False
                self._entries[key] = entry

    def __len__(self) -> int:
        return len(self._entries)


_compile_caches: dict[str, CompileCache] = {}
_compile_caches_lock = threading.Lock()


def compile_cache_for(cache_dir: str) -> CompileCache:
    """The shared :class:`CompileCache` for a directory (loaded once)."""
    resolved = os.path.abspath(cache_dir)
    with _compile_caches_lock:
        cache = _compile_caches.get(resolved)
        if cache is None:
            cache = _compile_caches[resolved] = CompileCache(resolved)
        return cache


def reset_compile_caches() -> None:
    """Forget loaded compile caches so the next use re-reads the disk."""
    with _compile_caches_lock:
        _compile_caches.clear()
