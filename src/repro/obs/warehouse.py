"""The telemetry warehouse: a queryable, append-only cross-run corpus.

The flight recorder (:mod:`repro.obs.runlog`) leaves one ``run_*.json``
manifest per tune and ``--live`` leaves one ``events_*.jsonl`` stream —
durable, but scattered across run directories and only ever examined one
run (or one base-vs-current pair) at a time.  The warehouse turns that
debris into a *corpus*: every manifest ever produced, ingested once,
indexed by run id and by ``(operator, hardware, budget-fingerprint)``
series, and queryable without re-parsing anything that is already
indexed.  It is the substrate the trend analytics
(:mod:`repro.obs.analytics`), the ``repro corpus`` CLI and the
history-aware ``report --compare --history`` gate stand on — and the
training corpus a learned cost model mines later.

Storage is two files in the corpus directory, both zero-dep:

* ``corpus.jsonl`` — the append-only record store.  One JSON line per
  ingested run (the full manifest plus a digest of its event stream),
  written with the same crash-safe single-``os.write`` O_APPEND
  discipline as the compile cache: concurrent readers see whole lines,
  a crash tears at most the final line, and recovery resynchronises
  past it.
* ``corpus_index.json`` — the sidecar index, rewritten atomically
  (tmp + ``os.replace``) after every batch of appends.  It maps run id
  to ``[offset, length, created_at, has_events]`` in the store and each
  series key to its ordered run ids — the keyed-dataset idiom (h5dict
  style): point lookups seek straight to one record's bytes, so neither
  opening the warehouse nor a series query ever scans or parses the
  whole store.  ``store_bytes`` records the store size the index
  covers; any mismatch (crash between append and index write, foreign
  tampering) triggers a full rebuild scan — the *recovery* path, never
  the common one.

Manifests are durable, the warehouse is derived: ``corpus.jsonl`` can
always be rebuilt by re-ingesting the original run directories, exactly
as the events-are-deltas / manifests-are-durable contract splits the
live stream from the manifest.

Ingest is incremental and idempotent: a run id already in the index is
skipped without touching either file, so re-ingesting the same
directory is a byte-identical no-op.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs import metrics as _metrics
from repro.obs.live import WatchState, events_by_run
from repro.obs.logging import get_logger
from repro.obs.runlog import RUN_SCHEMA, RunRecord, load_runs

__all__ = [
    "INDEX_SCHEMA",
    "IngestReport",
    "Warehouse",
    "series_str",
]

_log = get_logger("repro.obs.warehouse")

#: Index sidecar layout version; bump on incompatible changes.  A stale
#: or future-schema index is rebuilt from the store, never misread.
INDEX_SCHEMA = 1

STORE_NAME = "corpus.jsonl"
INDEX_NAME = "corpus_index.json"


def series_str(key: tuple[str, str, str]) -> str:
    """Canonical string form of a :meth:`RunRecord.series_key` (the
    index's series-map key): JSON, so arbitrary operator/hardware names
    round-trip unambiguously."""
    return json.dumps(list(key))


def _series_tuple(key: str) -> tuple[str, str, str]:
    op, hw, fp = json.loads(key)
    return (str(op), str(hw), str(fp))


@dataclass
class IngestReport:
    """What one :meth:`Warehouse.ingest` call did."""

    source: str = ""
    new_runs: int = 0
    known_runs: int = 0
    event_streams: int = 0
    runs_with_events: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "new_runs": self.new_runs,
            "known_runs": self.known_runs,
            "event_streams": self.event_streams,
            "runs_with_events": self.runs_with_events,
        }


@dataclass
class _Entry:
    """One indexed run: where its bytes live and how it sorts."""

    offset: int
    length: int
    created_at: str
    has_events: bool = False

    def to_list(self) -> list[Any]:
        return [self.offset, self.length, self.created_at, self.has_events]

    @classmethod
    def from_list(cls, raw: Any) -> "_Entry":
        offset, length, created_at, has_events = raw
        return cls(int(offset), int(length), str(created_at), bool(has_events))


def _summarise_events(events: list[dict[str, Any]], stream: str) -> dict[str, Any]:
    """Digest one run's event stream into the warehouse record.

    The digest is the corpus-facing subset of :class:`WatchState`'s
    aggregation — enough for cache efficiency timelines and health
    history without storing every event twice (the stream itself stays
    in the run directory; the warehouse is derived, not a second copy).
    Counts come from the manifest's own section mapping
    (:meth:`WatchState.sections`).
    """
    state = WatchState().apply_all(events)
    sections = state.sections()
    cache = sections["cache"]
    compile_cache = {
        event: count
        for event, count in (
            ("hit", cache["compile_cache_hits"]),
            ("miss", cache["compile_cache_misses"]),
        )
        if count
    }
    return {
        "stream": stream,
        "events": state.events_seen,
        "invalid_events": state.invalid_events,
        "heartbeats": state.heartbeats,
        "memo_hits": cache["memo_hits"],
        "memo_misses": cache["memo_misses"],
        "compile_cache": compile_cache,
        "generations": len(state.generations),
        "lanes": sorted(state.lanes),
        "warnings": [w.get("detector", "?") for w in state.warnings],
    }


class Warehouse:
    """Append-only, indexed corpus of flight-recorder runs.

    Open one on a corpus directory (created on demand), ``ingest`` run
    directories into it, then query: :meth:`get` and :meth:`series` are
    index-backed point reads (seek + parse exactly the requested
    records), :meth:`query` filters over the index before touching the
    store, :meth:`stats` and :meth:`check` never need the store at all
    except for the integrity scan ``check`` exists to perform.
    """

    def __init__(self, corpus_dir: str | os.PathLike):
        self.dir = Path(corpus_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.store_path = self.dir / STORE_NAME
        self.index_path = self.dir / INDEX_NAME
        self._runs: dict[str, _Entry] = {}
        self._series: dict[str, list[str]] = {}
        self._store_bytes = 0
        self._load_index()

    # -- index lifecycle ------------------------------------------------
    def _store_size(self) -> int:
        try:
            return self.store_path.stat().st_size
        except OSError:
            return 0

    def _load_index(self) -> None:
        """Load the sidecar if it covers the store exactly; rebuild
        otherwise.  The happy path parses one small JSON file — never
        the store."""
        size = self._store_size()
        try:
            raw = json.loads(self.index_path.read_text())
            if (
                isinstance(raw, dict)
                and raw.get("schema") == INDEX_SCHEMA
                and raw.get("store_bytes") == size
            ):
                self._runs = {
                    run_id: _Entry.from_list(entry)
                    for run_id, entry in raw["runs"].items()
                }
                self._series = {
                    key: list(ids) for key, ids in raw["series"].items()
                }
                self._store_bytes = size
                return
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
        if size or self.index_path.exists():
            _log.warning(
                "corpus index missing or stale; rebuilding from store",
                corpus=str(self.dir),
            )
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        """Recovery: scan the store, resynchronising past torn lines,
        and rewrite the sidecar.  Mirrors the compile cache's load."""
        self._runs = {}
        self._series = {}
        offset = 0
        try:
            raw = self.store_path.read_bytes()
        except OSError:
            raw = b""
        for line in raw.split(b"\n"):
            length = len(line) + 1  # the split consumed one newline
            if line.strip():
                try:
                    entry = json.loads(line)
                    run_id = entry["run_id"]
                    record = RunRecord.from_dict(entry["manifest"])
                    if not isinstance(run_id, str) or not run_id:
                        raise ValueError("bad run_id")
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    offset += length
                    continue  # torn or foreign line: skip, keep scanning
                self._runs[run_id] = _Entry(
                    offset,
                    len(line),
                    record.created_at,
                    entry.get("events") is not None,
                )
                self._add_to_series(record.series_key(), run_id)
            offset += length
        self._store_bytes = len(raw)
        if raw or self.index_path.exists():
            self._write_index()

    def _write_index(self) -> None:
        payload = {
            "schema": INDEX_SCHEMA,
            "store_bytes": self._store_bytes,
            "runs": {
                run_id: entry.to_list() for run_id, entry in self._runs.items()
            },
            "series": self._series,
        }
        tmp = self.index_path.with_name("." + INDEX_NAME + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.index_path)

    def _add_to_series(self, key: tuple[str, str, str], run_id: str) -> None:
        skey = series_str(key)
        ids = self._series.setdefault(skey, [])
        if run_id not in ids:
            ids.append(run_id)
            ids.sort(key=lambda rid: (self._runs[rid].created_at, rid))

    # -- ingest ---------------------------------------------------------
    def ingest(self, run_dir: str | os.PathLike) -> IngestReport:
        """Ingest one run directory (or single manifest) incrementally.

        New runs are appended to the store and indexed; already-ingested
        run ids are skipped without touching either file, so re-running
        the same ingest is a byte-identical no-op.  Event streams found
        next to the manifests are digested into each new run's record
        (matched by the ``run_id`` the bus stamps on every event).
        """
        source = Path(run_dir)
        records = load_runs(source)  # (created_at, run_id)-ordered
        report = IngestReport(source=str(source))
        summaries, report.event_streams = self._event_summaries(source)
        fresh = [r for r in records if r.run_id not in self._runs]
        report.known_runs = len(records) - len(fresh)
        if not fresh:
            _metrics.counter("obs.warehouse.known").inc(report.known_runs)
            return report
        fd = os.open(
            self.store_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            offset = self._store_size()
            if offset:
                # Resynchronise past a torn final line (crash mid-append):
                # terminating it keeps the next record on its own line, so
                # at most the torn record is lost — never a fresh one.
                with self.store_path.open("rb") as stream:
                    stream.seek(offset - 1)
                    if stream.read(1) != b"\n":
                        os.write(fd, b"\n")
                        offset += 1
            for record in fresh:
                summary = summaries.get(record.run_id)
                line = (
                    json.dumps(
                        {
                            "run_id": record.run_id,
                            "schema": RUN_SCHEMA,
                            "manifest": record.to_dict(),
                            "events": summary,
                        },
                        sort_keys=True,
                        default=str,
                    )
                    + "\n"
                ).encode()
                view = memoryview(line)
                while view:
                    written = os.write(fd, view)
                    view = view[written:]
                self._runs[record.run_id] = _Entry(
                    offset, len(line) - 1, record.created_at, summary is not None
                )
                self._add_to_series(record.series_key(), record.run_id)
                offset += len(line)
                report.new_runs += 1
                if summary is not None:
                    report.runs_with_events += 1
        finally:
            os.close(fd)
        self._store_bytes = self._store_size()
        self._write_index()
        _metrics.counter("obs.warehouse.ingested").inc(report.new_runs)
        _metrics.counter("obs.warehouse.known").inc(report.known_runs)
        _log.info(
            "corpus ingest",
            source=str(source),
            new_runs=report.new_runs,
            known_runs=report.known_runs,
            event_streams=report.event_streams,
        )
        return report

    def _event_summaries(
        self, source: Path
    ) -> tuple[dict[str, dict[str, Any]], int]:
        """Digest every ``events_*.jsonl`` under ``source`` per run id."""
        if not source.is_dir():
            return {}, 0
        grouped, n_streams = events_by_run(source)
        summaries = {
            run_id: _summarise_events(events, stream)
            for run_id, (stream, events) in grouped.items()
        }
        return summaries, n_streams

    # -- point reads ----------------------------------------------------
    def _read_entry(self, run_id: str) -> dict[str, Any]:
        """Seek to one record's bytes and parse exactly that line —
        the keyed-dataset lookup; cost is O(record), not O(corpus)."""
        entry = self._runs[run_id]
        with self.store_path.open("rb") as stream:
            stream.seek(entry.offset)
            line = stream.read(entry.length)
        return json.loads(line)

    def get(self, run_id: str) -> RunRecord:
        """One run's manifest by id; raises ``KeyError`` when absent."""
        if run_id not in self._runs:
            raise KeyError(f"run {run_id!r} not in corpus {self.dir}")
        return RunRecord.from_dict(self._read_entry(run_id)["manifest"])

    def events_summary(self, run_id: str) -> dict[str, Any] | None:
        """The ingested event-stream digest for one run, if any."""
        if run_id not in self._runs:
            raise KeyError(f"run {run_id!r} not in corpus {self.dir}")
        return self._read_entry(run_id).get("events")

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._runs)

    def run_ids(self) -> list[str]:
        """All run ids, ordered by ``(created_at, run_id)``."""
        return sorted(self._runs, key=lambda rid: (self._runs[rid].created_at, rid))

    def series_keys(self) -> list[tuple[str, str, str]]:
        """Every distinct (operator, hardware, budget-fingerprint)."""
        return sorted(_series_tuple(key) for key in self._series)

    def series(self, key: tuple[str, str, str]) -> list[RunRecord]:
        """All runs of one series, oldest first — an index walk plus one
        point read per run; unrelated records are never parsed."""
        return [
            RunRecord.from_dict(self._read_entry(rid)["manifest"])
            for rid in self._series.get(series_str(key), [])
        ]

    def query(
        self,
        operator: str | None = None,
        hardware: str | None = None,
        since: str | None = None,
        until: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Filter the corpus by series fields and created-at window.

        Series filters narrow on the index before any record is read;
        the time window uses the per-run ``created_at`` the index
        already carries (ISO-8601 strings compare chronologically).
        ``limit`` keeps the *newest* matching runs.
        """
        matched: list[str] = []
        for skey, ids in self._series.items():
            op, hw, _fp = _series_tuple(skey)
            if operator is not None and op != operator:
                continue
            if hardware is not None and hw != hardware:
                continue
            matched.extend(ids)
        matched = [
            rid
            for rid in matched
            if (since is None or self._runs[rid].created_at >= since)
            and (until is None or self._runs[rid].created_at <= until)
        ]
        matched.sort(key=lambda rid: (self._runs[rid].created_at, rid))
        if limit is not None:
            matched = matched[-limit:]
        return [
            RunRecord.from_dict(self._read_entry(rid)["manifest"])
            for rid in matched
        ]

    # -- corpus-level views ---------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Corpus shape from the index alone (no store reads)."""
        operators: dict[str, int] = {}
        hardware: dict[str, int] = {}
        for skey, ids in self._series.items():
            op, hw, _fp = _series_tuple(skey)
            operators[op] = operators.get(op, 0) + len(ids)
            hardware[hw] = hardware.get(hw, 0) + len(ids)
        stamps = sorted(
            (entry.created_at, rid) for rid, entry in self._runs.items()
        )
        return {
            "corpus": str(self.dir),
            "runs": len(self._runs),
            "series": len(self._series),
            "operators": dict(sorted(operators.items())),
            "hardware": dict(sorted(hardware.items())),
            "runs_with_events": sum(
                1 for entry in self._runs.values() if entry.has_events
            ),
            "first_created_at": stamps[0][0] if stamps else "",
            "last_created_at": stamps[-1][0] if stamps else "",
            "store_bytes": self._store_bytes,
            "index_schema": INDEX_SCHEMA,
        }

    def check(self) -> list[str]:
        """Full integrity scan; returns problems (empty = healthy).

        This is the one deliberately O(corpus) operation — the CI
        schema/index gate.  It verifies that the index byte-ranges
        produce exactly the records they claim, every stored manifest
        parses at the current schema, series membership is consistent,
        and the sidecar covers the whole store.
        """
        problems: list[str] = []
        size = self._store_size()
        if size != self._store_bytes:
            problems.append(
                f"index covers {self._store_bytes} bytes but store has {size}"
            )
        for rid in self._runs:
            try:
                entry = self._read_entry(rid)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"run {rid}: unreadable record ({exc})")
                continue
            if entry.get("run_id") != rid:
                problems.append(
                    f"run {rid}: index points at record {entry.get('run_id')!r}"
                )
                continue
            if entry.get("schema") != RUN_SCHEMA:
                problems.append(
                    f"run {rid}: schema {entry.get('schema')!r} != {RUN_SCHEMA}"
                )
            manifest = entry.get("manifest")
            if not isinstance(manifest, dict):
                problems.append(f"run {rid}: manifest is not a dict")
                continue
            record = RunRecord.from_dict(manifest)
            skey = series_str(record.series_key())
            if rid not in self._series.get(skey, []):
                problems.append(f"run {rid}: missing from series {skey}")
        indexed = {rid for ids in self._series.values() for rid in ids}
        for rid in indexed - set(self._runs):
            problems.append(f"series index references unknown run {rid}")
        return problems
