"""Span recording around the program's public calls, from outside the program.

``traced()`` patches a fixed list of functions and methods of the
``repro`` package with thin wrappers, records one span per call (name,
parent span, start, end, optional counts) in memory, and restores every
original on exit.  Nothing under ``src/`` is modified: the wrappers are
installed where each layer is *looked up* at call time, which is the
importing module for names bound with ``from ... import`` (the tuner and
the compiler import the mapping and schedule functions by name; the
engine imports ``batch_predict`` / ``batch_simulate`` by name).

Work shipped to spawned pool workers runs in other processes and is
invisible here: ``model.*`` and ``sim.*`` count parent-side calls only,
and pool time is what the parent spends starting workers and waiting
for their results.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# A span is a list, mutated in place: [id, parent_id, name, start, end, counts].
_ID, _PARENT, _NAME, _START, _END, _COUNTS = range(6)


class SpanRecorder:
    """In-memory span tree of one process's traced calls."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list[Any]]:
        """Record one span around the ``with`` body (used for the
        benchmark's own root spans)."""
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(record[_ID])
        record[_START] = time.perf_counter()
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counts: Callable[[tuple, dict, Any, Any], dict[str, float]] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``before(args, kwargs)`` runs outside the timed interval and its
        value is handed to ``counts(args, kwargs, result, before_value)``,
        which also runs outside it and returns the span's counts.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            snapshot = before(args, kwargs) if before is not None else None
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record[_COUNTS] = counts(args, kwargs, result, snapshot)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s`` (the
        span minus the time its child spans cover) and summed counts."""
        child_s = [0.0] * len(self.spans)
        for record in self.spans:
            if record[_PARENT] >= 0:
                child_s[record[_PARENT]] += record[_END] - record[_START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for record in self.spans:
            row = out[record[_NAME]]
            duration = record[_END] - record[_START]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_s[record[_ID]]
            for key, value in (record[_COUNTS] or {}).items():
                row[key] = row.get(key, 0) + value
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        """Write every span, one JSON object per line, times relative to
        the first span's start."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": record[_ID],
                            "parent": record[_PARENT],
                            "name": record[_NAME],
                            "start_s": record[_START] - origin,
                            "dur_s": record[_END] - record[_START],
                            "counts": record[_COUNTS],
                        }
                    )
                    + "\n"
                )


def _rows(args: tuple, kwargs: dict, result: Any, _: Any) -> dict[str, float]:
    return {"rows": len(args[1])}


def _group_rows(args: tuple, kwargs: dict, result: Any, _: Any) -> dict[str, float]:
    return {"rows": sum(len(group[1]) for group in args[1])}


def _memo_sizes(args: tuple, kwargs: dict) -> tuple[int, int]:
    memo = args[0].memo
    return len(memo.predictions), len(memo.measurements)


def _engine_counts(measure: bool):
    """Rows requested and memo growth of one engine call.  The growth is
    taken on the table the call fills (measurements for a measure call,
    predictions for a predict call): each new entry there is one row the
    engine had to evaluate, so ``1 - growth / rows`` is its memo hit rate."""

    def counts(args: tuple, kwargs: dict, result: Any, before: tuple[int, int]) -> dict[str, float]:
        memo = args[0].memo
        grown = (
            len(memo.measurements) - before[1]
            if measure
            else len(memo.predictions) - before[0]
        )
        return {"rows": len(args[2] if len(args) > 2 else args[1]), "memo_growth": grown}

    return counts


def _found(args: tuple, kwargs: dict, result: Any, _: Any) -> dict[str, float]:
    return {"found": len(result)}


def _source_bytes(args: tuple, kwargs: dict, result: Any, _: Any) -> dict[str, float]:
    return {"bytes": len(result.encode("utf-8"))}


def _network_ops(args: tuple, kwargs: dict, result: Any, _: Any) -> dict[str, float]:
    return {"tensor_ops": result.tensor_ops}


def _targets() -> list[tuple[Any, str, str, Any, Any]]:
    """(owner, attribute, span name, counts, before) for every patch site."""
    import repro.codegen.cuda_like as cuda_like
    import repro.compiler as compiler
    import repro.engine.engine as engine
    import repro.evaluation as evaluation
    import repro.explore.tuner as tuner
    from repro.engine.cache import CompileCache
    from repro.engine.pool import WorkerPool
    from speed import SpeedProbe

    Engine = engine.EvaluationEngine
    return [
        (tuner.Tuner, "tune", "explore.tune", None, None),
        (tuner.Tuner, "candidate_mappings", "explore.candidate_mappings", None, None),
        (tuner, "enumerate_mappings", "mapping.enumerate", _found, None),
        (compiler, "enumerate_mappings", "mapping.enumerate", _found, None),
        (tuner, "lower_to_physical", "mapping.lower", None, None),
        (compiler, "lower_to_physical", "mapping.lower", None, None),
        (tuner, "genetic_search_rows", "explore.ga", None, None),
        (tuner, "lower_schedule", "schedule.lower_schedule", None, None),
        (compiler, "lower_schedule", "schedule.lower_schedule", None, None),
        (Engine, "predict_rows", "engine.predict_rows", _engine_counts(False), _memo_sizes),
        (Engine, "measure_rows", "engine.measure_rows", _engine_counts(True), _memo_sizes),
        (Engine, "predict_many", "engine.predict_many", _engine_counts(False), _memo_sizes),
        (Engine, "measure_many", "engine.measure_many", _engine_counts(True), _memo_sizes),
        (WorkerPool, "__init__", "pool.start", None, None),
        (WorkerPool, "evaluate_groups", "pool.evaluate", _group_rows, None),
        (WorkerPool, "evaluate", "pool.evaluate", _rows, None),
        (WorkerPool, "close", "pool.close", None, None),
        (engine, "batch_predict", "model.batch_predict", _rows, None),
        (engine, "batch_simulate", "sim.batch_simulate", _rows, None),
        (compiler, "compile_cache_for", "cache.load", None, None),
        (CompileCache, "lookup", "cache.lookup", None, None),
        (CompileCache, "store", "cache.store", None, None),
        (cuda_like, "emit_kernel", "codegen.emit", _source_bytes, None),
        (evaluation, "evaluate_network", "evaluation.network", _network_ops, None),
        (compiler, "amos_compile", "compile", None, None),
        (SpeedProbe, "sample", "bench.speed_probe", None, None),
    ]


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the wrappers for the ``with`` body; always restore them."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, counts, before in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, counts, before))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer metrics of a traced phase, by name (totals over it).

    Self times of every span name plus ``trace.unattributed_s`` (the
    benchmark's own ``bench.pass`` root spans minus their children) add
    up to ``trace.wall_s``, the summed duration of the root spans.
    """
    t = recorder.totals()

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engine_names = [n for n in t if n.startswith("engine.")]
    rows = sum(get(n, "rows") for n in engine_names)
    lookups = get("cache.lookup", "calls")
    network_compiles = sum(
        1
        for record in recorder.spans
        if record[_NAME] == "compile"
        and recorder.spans[record[_PARENT]][_NAME] == "evaluation.network"
    )
    return {
        "pool.spawns": get("pool.start", "calls"),
        "pool.start_s": get("pool.start", "total_s"),
        "pool.evaluate_s": get("pool.evaluate", "total_s"),
        "pool.close_s": get("pool.close", "total_s"),
        "pool.batches": get("pool.evaluate", "calls"),
        "pool.rows": get("pool.evaluate", "rows"),
        "engine.predict_rows_s": get("engine.predict_rows", "total_s"),
        "engine.measure_rows_s": get("engine.measure_rows", "total_s"),
        "engine.self_s": sum(get(n, "self_s") for n in engine_names),
        "engine.rows_requested": rows,
        "engine.memo_hit_frac": ratio(rows - sum(get(n, "memo_growth") for n in engine_names), rows),
        "explore.tune_s": get("explore.tune", "total_s"),
        "explore.tune_self_s": get("explore.tune", "self_s"),
        "explore.candidate_mappings_s": get("explore.candidate_mappings", "total_s"),
        "explore.ga_s": get("explore.ga", "total_s"),
        "explore.ga_self_s": get("explore.ga", "self_s"),
        "model.batch_predict_s": get("model.batch_predict", "total_s"),
        "model.rows": get("model.batch_predict", "rows"),
        "sim.batch_simulate_s": get("sim.batch_simulate", "total_s"),
        "sim.rows": get("sim.batch_simulate", "rows"),
        "mapping.enumerate_s": get("mapping.enumerate", "total_s"),
        "mapping.enumerate_calls": get("mapping.enumerate", "calls"),
        "mapping.mappings_found": get("mapping.enumerate", "found"),
        "mapping.lower_s": get("mapping.lower", "total_s"),
        "schedule.lower_schedule_s": get("schedule.lower_schedule", "total_s"),
        "cache.load_s": get("cache.load", "total_s"),
        "cache.lookup_s": get("cache.lookup", "total_s"),
        # Every compile not served from the cache stores its result.
        "cache.hit_frac": ratio(lookups - get("cache.store", "calls"), lookups),
        "cache.store_s": get("cache.store", "total_s"),
        "cache.stores": get("cache.store", "calls"),
        "evaluation.compile_calls": network_compiles,
        "evaluation.tensor_ops": get("evaluation.network", "tensor_ops"),
        "evaluation.compile_frac": ratio(network_compiles, get("evaluation.network", "tensor_ops")),
        "evaluation.self_s": get("evaluation.network", "self_s"),
        "codegen.emit_s": get("codegen.emit", "total_s"),
        "codegen.source_bytes": get("codegen.emit", "bytes"),
        "compile.self_s": get("compile", "self_s"),
        "trace.unattributed_s": get("bench.pass", "self_s"),
        "trace.wall_s": get("bench.pass", "total_s"),
    }


def attribution_lines(recorder: SpanRecorder) -> list[str]:
    """Self-time table of a traced phase, heaviest first, with the check
    that the self times add up to the root spans' summed duration."""
    t = recorder.totals()
    wall = sum(r[_END] - r[_START] for r in recorder.spans if r[_PARENT] < 0)
    lines = [f"  {'span':30} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for name, row in sorted(t.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall if wall else 0.0
        label = "(unattributed) bench.pass" if name == "bench.pass" else name
        lines.append(
            f"  {label:30} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f} {share:>6.1f}%"
        )
    self_sum = sum(row["self_s"] for row in t.values())
    lines.append(f"  self-time sum {self_sum:.4f} s = traced wall {wall:.4f} s")
    lines.append(
        "  model.* and sim.* are parent-side only: work shipped to pool workers "
        "is invisible here and shows as pool.evaluate"
    )
    return lines
