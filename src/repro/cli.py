"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``list-intrinsics [--target T]`` — registered hardware abstractions.
* ``list-hardware`` — simulated devices.
* ``mappings OP [--intrinsic I] [--params k=v ...]`` — enumerate and print
  the valid mappings of an operator (Table 6 style).
* ``compile OP --hardware HW [--params k=v ...] [--source]`` — run the
  full pipeline and report the chosen mapping/schedule and simulated
  performance.
* ``network NAME --hardware HW [--batch N] [--baseline pytorch]`` —
  end-to-end network evaluation, optionally against a baseline.
* ``profile OP --hardware HW [--params k=v ...] [--run-dir DIR]
  [--chrome-trace trace.json]`` — ``compile --run-dir DIR --live``
  (``DIR`` defaults to ``profile_<op>_<hw>``), then print that run's
  report (span timings, mapping funnel, GA convergence,
  model-vs-simulator rank accuracy); optionally also a Chrome/Perfetto
  timeline with per-worker lanes.
* ``report RUN`` — re-render the report of every run in a run directory
  (or of one manifest) from its manifest and event stream.
* ``report --compare BASELINE CURRENT [--history N]`` — diff two
  flight-recorder run sets (directories of ``run_*.json`` manifests
  written via ``--run-dir``, or a telemetry-warehouse corpus on the
  baseline side); exits non-zero when latency / throughput / model
  accuracy drift beyond thresholds — the CI regression gate.  With
  ``--history N`` the last N baseline runs per series additionally feed
  a robust (median-of-slopes) trend detector that flags slow monotone
  drifts no single pairwise step would catch.
* ``corpus ingest|stats|trend|attribution|export`` — the telemetry
  warehouse: ingest run directories into an append-only indexed corpus,
  then query per-series best-latency / rank-accuracy trajectories,
  wall-time attribution with critical-path aggregation, and flat
  CSV/JSON exports.

Every tuning entry point accepts ``--run-dir`` (write a RunRecord
manifest per compile), ``--workers N`` (evaluation is in-process by
default; ``N > 1`` opts into a spawn pool, where a raising task or a
dead worker fails the command) and ``--quick`` (small fixed CI budget).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import repro.obs as obs
from repro.obs import analytics as _analytics
from repro.obs.warehouse import STORE_NAME, Warehouse
from repro.compiler import amos_compile
from repro.evaluation import AmosBackend, evaluate_network
from repro.explore.tuner import TunerConfig
from repro.frontends.networks import get_network, NETWORKS
from repro.frontends.operators import OPERATOR_BUILDERS, make_operator
from repro.isa import get_intrinsic, intrinsics_for_target, list_intrinsics
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware, list_hardware
from repro.obs import events as _events
from repro.obs.live import JsonlSink, watch
from repro.obs.logging import configure_logging


def _parse_params(
    parser: argparse.ArgumentParser, pairs: Sequence[str]
) -> dict[str, int]:
    """Parse ``k=v`` pairs; malformed input goes through ``parser.error``
    so the user sees the subcommand usage alongside the message."""
    params: dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            parser.error(f"bad --params entry {pair!r}; expected k=v")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            parser.error(f"parameter {key} must be an integer, got {value!r}")
    return params


def _cmd_list_intrinsics(args) -> int:
    if args.target:
        intrinsics = intrinsics_for_target(args.target)
    else:
        intrinsics = [get_intrinsic(name) for name in list_intrinsics()]
    for intr in intrinsics:
        dims = "x".join(str(d) for d in intr.problem_size)
        print(f"{intr.name:24} target={intr.target:12} size={dims:12} {intr.description}")
    return 0


def _cmd_list_hardware(args) -> int:
    for name in list_hardware():
        hw = get_hardware(name)
        print(
            f"{name:12} target={hw.target:12} cores={hw.num_cores:<4} "
            f"peak {hw.peak_intrinsic_flops / 1e12:7.1f} TFLOP/s "
            f"bw {hw.global_bandwidth_gbs:7.1f} GB/s"
        )
    return 0


def _cmd_mappings(args) -> int:
    comp = make_operator(args.operator, **_parse_params(args.parser, args.params))
    if args.intrinsic:
        intrinsics = [get_intrinsic(args.intrinsic)]
    else:
        intrinsics = intrinsics_for_target(args.target)
    total = 0
    for intr in intrinsics:
        mappings = enumerate_mappings(comp, intr)
        total += len(mappings)
        print(f"{intr.name}: {len(mappings)} valid mappings")
        for mapping in mappings[: args.limit]:
            physical = lower_to_physical(mapping)
            print(f"  {mapping.describe()}  (utilization {physical.utilization():.2f})")
        if len(mappings) > args.limit:
            print(f"  ... {len(mappings) - args.limit} more")
    print(f"total: {total}")
    return 0


#: The ``--quick`` exploration budget: small enough for CI smoke runs,
#: large enough to exercise every pipeline stage.  The CI baseline
#: manifest under ``benchmarks/baselines/`` is generated with exactly
#: this budget, so its tuner-config fingerprint matches ``--quick`` runs.
QUICK_BUDGET = dict(
    population=8,
    generations=3,
    measure_top=8,
    prefilter_mappings=8,
    refine_rounds=1,
    refine_neighbors=4,
)


def _tuner_config(args) -> TunerConfig:
    """TunerConfig from the shared tuning flags (seed/workers/cache dir)."""
    budget = QUICK_BUDGET if args.quick else {}
    return TunerConfig(
        seed=args.seed,
        elite_fraction=args.elite_fraction,
        mapping_mutation_prob=args.mapping_mutation_prob,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        run_dir=args.run_dir,
        **budget,
    )


def _unit_fraction(lo_open: bool):
    """Argparse type for a fraction in ``(0, 1]`` (``lo_open``) or
    ``[0, 1]``: rejects out-of-range values at parse time, before they
    can silently distort the GA's selection pressure."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        low_ok = value > 0.0 if lo_open else value >= 0.0
        if not (low_ok and value <= 1.0):
            bounds = "(0, 1]" if lo_open else "[0, 1]"
            raise argparse.ArgumentTypeError(f"{value} not in {bounds}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """Argparse type for a positive, finite float (a poll interval):
    ``0``, negatives, ``nan`` and ``inf`` are rejected at parse time
    instead of busy-looping."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{value} is not a positive finite number")
    return value


def _gate_threshold(text: str) -> float:
    """Argparse type for a regression-gate threshold: a finite float
    ``>= 0``.  ``nan`` and ``inf`` would switch the gate off (no drift
    exceeds them) and a negative one would flag every run."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number >= 0")
    return value


def _int_at_least(low: int):
    """Argparse type for an integer ``>= low``: rejects out-of-range
    counts at parse time instead of mid-compile."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {low}")
        return value

    return parse


@contextlib.contextmanager
def _live_session(args):
    """Configure logging and (with ``--live``) turn the telemetry bus on
    for the command's duration, streaming it to a crash-safe JSONL file
    in the run dir (what ``repro watch`` tails)."""
    configure_logging(quiet=getattr(args, "quiet", False))
    if not getattr(args, "live", False):
        yield
        return
    if not args.run_dir:
        args.parser.error("--live requires --run-dir (the event stream is written there)")
    was_enabled = _events.events_enabled()
    _events.enable_events()
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = Path(args.run_dir) / f"events_{stamp}_{os.getpid()}.jsonl"
    print(f"live telemetry: {path}", file=sys.stderr)
    try:
        with JsonlSink(path, bus=_events.get_bus()):
            yield
    finally:
        if not was_enabled:
            _events.disable_events()


def _cmd_compile(args) -> int:
    comp = make_operator(args.operator, **_parse_params(args.parser, args.params))
    config = _tuner_config(args)
    with _live_session(args):
        kernel = amos_compile(comp, args.hardware, config, emit_source=args.source)
    print(f"operator: {comp.name} ({comp.flop_count() / 1e9:.3f} GFLOPs)")
    if kernel.used_intrinsics:
        print(f"mapping: {kernel.scheduled.physical.compute.describe()}")
        print(f"schedule: {kernel.scheduled.schedule.describe()}")
    else:
        print("no valid mapping: scalar fallback path")
    print(f"simulated latency: {kernel.latency_us:.2f} us ({kernel.gflops():.1f} GFLOP/s)")
    if args.source and kernel.source:
        print("\n" + kernel.source)
    return 0


def _cmd_network(args) -> int:
    hw = get_hardware(args.hardware)
    ops = get_network(args.network)
    backend = AmosBackend(config=_tuner_config(args))
    with _live_session(args):
        result = evaluate_network(args.network, ops, backend, hw, batch=args.batch)
    print(
        f"{args.network} on {args.hardware} (batch {args.batch}): "
        f"{result.total_us / 1e3:.3f} ms "
        f"({result.mapped_ops}/{result.tensor_ops} tensor ops mapped)"
    )
    if args.baseline:
        from repro.baselines import LibraryBackend, make_baseline

        if args.baseline == "pytorch":
            base = LibraryBackend()
        else:
            base = make_baseline(args.baseline)
        theirs = evaluate_network(args.network, ops, base, hw, batch=args.batch)
        print(
            f"{args.baseline}: {theirs.total_us / 1e3:.3f} ms "
            f"-> speedup {theirs.total_us / result.total_us:.2f}x"
        )
    return 0


def _cmd_profile(args) -> int:
    """``compile --run-dir DIR --live``, then render the run it recorded."""
    comp = make_operator(args.operator, **_parse_params(args.parser, args.params))
    args.run_dir = args.run_dir or f"profile_{args.operator}_{args.hardware}"
    args.live = True
    config = _tuner_config(args)
    run_dir = Path(args.run_dir)
    earlier = set()
    if run_dir.is_dir():
        earlier = {run.run_id for run in obs.load_runs(run_dir)}
    obs.reset()  # the Chrome trace shows this compile only
    with _live_session(args):
        amos_compile(comp, args.hardware, config)
    views = [v for v in obs.load_run_views(run_dir) if v[0].run_id not in earlier]
    _print_reports(views)
    wall_s = sum(run.wall_s for run, _ in views)
    print(f"\nrun recorded in {run_dir} ({wall_s:.2f}s wall)")
    if args.chrome_trace:
        chrome = obs.export_chrome_trace(args.chrome_trace)
        print(f"chrome trace written to {chrome} (open in ui.perfetto.dev)")
    return 0


def _print_reports(views) -> None:
    print("\n\n".join(obs.render_report(run, state) for run, state in views))


def _cmd_report(args) -> int:
    if args.compare:
        return _compare_runs(args)
    if not args.run:
        args.parser.error("either a RUN directory/manifest or --compare is required")
    try:
        views = obs.load_run_views(args.run)
    except FileNotFoundError:
        args.parser.error(
            f"no run manifest at {args.run!r} (record one with "
            "`repro profile` or `--run-dir`)"
        )
    _print_reports(views)
    return 0


def _load_run_side(path: str) -> list[obs.RunRecord]:
    """Runs from a manifest dir / single manifest — or, when the path is
    a telemetry-warehouse corpus, every run in it, so ``--history``
    windows can span the full archive instead of one CI artifact."""
    if (Path(path) / STORE_NAME).is_file():
        warehouse = Warehouse(path)
        return [warehouse.get(run_id) for run_id in warehouse.run_ids()]
    return obs.load_runs(path)


def _compare_runs(args) -> int:
    """Diff two run sets; non-zero exit on regressions (the CI gate)."""
    baseline_path, current_path = args.compare
    baseline = _load_run_side(baseline_path)
    current = _load_run_side(current_path)
    if not baseline:
        args.parser.error(f"no runs loaded from baseline {baseline_path!r}")
    if not current:
        args.parser.error(f"no runs loaded from current {current_path!r}")
    thresholds = obs.CompareThresholds(
        max_latency_increase=args.max_latency_increase,
        max_throughput_drop=args.max_throughput_drop,
        max_accuracy_drop=args.max_accuracy_drop,
        ignore=tuple(args.ignore),
    )
    report = obs.compare_runs_with_history(
        baseline, current, thresholds, history=args.history
    )
    print(obs.render_comparison(report))
    return 1 if report["regressions"] else 0


def _cmd_watch(args) -> int:
    return watch(
        args.source,
        once=args.once,
        validate=args.validate,
        interval_s=args.interval,
    )


# ----------------------------------------------------------------------
# The telemetry warehouse: `repro corpus ...`
# ----------------------------------------------------------------------
def _open_corpus(args) -> Warehouse:
    """Open an existing corpus for querying; a clear error (not an empty
    answer, not a freshly created empty store) when there is none."""
    if not (Path(args.corpus) / STORE_NAME).is_file():
        args.parser.error(
            f"no corpus at {args.corpus!r} (create one with "
            "`repro corpus ingest <run-dir> --corpus "
            f"{args.corpus}`)"
        )
    return Warehouse(args.corpus)


def _cmd_corpus_ingest(args) -> int:
    warehouse = Warehouse(args.corpus)
    for run_dir in args.run_dirs:
        try:
            report = warehouse.ingest(run_dir)
        except FileNotFoundError as exc:
            args.parser.error(str(exc))
        print(_analytics.render_ingest_report(report.to_dict()))
    print(
        f"corpus {args.corpus}: {len(warehouse)} run(s) across "
        f"{len(warehouse.series_keys())} series"
    )
    return 0


def _cmd_corpus_stats(args) -> int:
    warehouse = _open_corpus(args)
    stats = warehouse.stats()
    if args.json:
        print(_analytics.to_json(stats), end="")
    else:
        print(_analytics.render_corpus_stats(stats))
    if args.check:
        problems = warehouse.check()
        if problems:
            print(f"corpus check: {len(problems)} problem(s)")
            for problem in problems[:20]:
                print(f"  {problem}")
            return 1
        print(f"corpus check: {len(warehouse)} run(s), store and index consistent")
    return 0


def _cmd_corpus_trend(args) -> int:
    warehouse = _open_corpus(args)
    rows = obs.series_trends(
        warehouse,
        metric=args.metric,
        operator=args.operator,
        hardware=args.hardware,
        window=args.window,
    )
    if args.json:
        print(_analytics.to_json(rows), end="")
    else:
        print(_analytics.render_trends(rows, args.metric))
    return 0


def _cmd_corpus_attribution(args) -> int:
    warehouse = _open_corpus(args)
    runs = warehouse.query(operator=args.operator, hardware=args.hardware)
    phases = obs.phase_attribution(runs)
    paths = obs.aggregate_critical_paths(runs)
    if args.json:
        print(
            _analytics.to_json({"phases": phases, "critical_paths": paths}),
            end="",
        )
    else:
        print(_analytics.render_attribution(phases, paths))
    return 0


def _cmd_corpus_export(args) -> int:
    warehouse = _open_corpus(args)
    rows = obs.corpus_rows(
        warehouse, operator=args.operator, hardware=args.hardware
    )
    if args.csv is None and args.json is None:
        args.parser.error("corpus export needs --csv or --json")
    text = (
        _analytics.rows_to_csv(rows)
        if args.csv is not None
        else _analytics.to_json(rows)
    )
    destination = args.csv if args.csv is not None else args.json
    if destination == "-":
        print(text, end="")
    else:
        Path(destination).write_text(text)
        print(f"wrote {len(rows)} run row(s) to {destination}")
    return 0


def _add_tuning_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by every tuning entry point (compile/profile/network)."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--elite-fraction",
        type=_unit_fraction(lo_open=True),
        default=0.25,
        metavar="F",
        help="fraction of each GA generation kept as elite, in (0, 1] "
        "(budget knob: part of the tuner-config fingerprint)",
    )
    p.add_argument(
        "--mapping-mutation-prob",
        type=_unit_fraction(lo_open=False),
        default=0.15,
        metavar="P",
        help="per-child probability of re-drawing the mapping instead of "
        "mutating the parent's schedule, in [0, 1] (budget knob: part "
        "of the tuner-config fingerprint)",
    )
    p.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help="evaluation worker processes (default: 1, in-process, the "
        "fastest measured; N > 1 opts into a pool of N spawned workers)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent compile cache directory; repeated compiles of "
        "identical kernels skip re-tuning",
    )
    p.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="flight-recorder directory; every compile/tune writes a "
        "RunRecord manifest there (see `repro report --compare`)",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="small fixed exploration budget for smoke/CI runs",
    )
    p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress logging (WARNING and above only; beats "
        "REPRO_LOG_LEVEL)",
    )
    p.add_argument(
        "--live",
        action="store_true",
        help="stream telemetry events to an events_*.jsonl file in "
        "--run-dir (watch it live with `repro watch <run-dir>`)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AMOS reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-intrinsics", help="registered hardware abstractions")
    p.add_argument("--target", help="restrict to one hardware family")
    p.set_defaults(func=_cmd_list_intrinsics)

    p = sub.add_parser("list-hardware", help="simulated devices")
    p.set_defaults(func=_cmd_list_hardware)

    p = sub.add_parser("mappings", help="enumerate valid mappings of an operator")
    p.add_argument("operator", choices=sorted(OPERATOR_BUILDERS))
    p.add_argument("--intrinsic", help="one intrinsic name")
    p.add_argument("--target", default="tensorcore")
    p.add_argument("--params", nargs="*", default=[], metavar="k=v")
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(func=_cmd_mappings, parser=p)

    p = sub.add_parser("compile", help="compile one operator")
    p.add_argument("operator", choices=sorted(OPERATOR_BUILDERS))
    p.add_argument("--hardware", default="v100", choices=list_hardware())
    p.add_argument("--params", nargs="*", default=[], metavar="k=v")
    p.add_argument("--source", action="store_true", help="emit kernel source")
    _add_tuning_flags(p)
    p.set_defaults(func=_cmd_compile, parser=p)

    p = sub.add_parser(
        "profile",
        help="compile one operator as a recorded live run (default run "
        "dir profile_<op>_<hw>) and print its profiling report",
    )
    p.add_argument("operator", choices=sorted(OPERATOR_BUILDERS))
    p.add_argument("--hardware", default="v100", choices=list_hardware())
    p.add_argument("--params", nargs="*", default=[], metavar="k=v")
    _add_tuning_flags(p)
    p.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="also export the merged span timeline (worker lanes included) "
        "as a Chrome/Perfetto trace JSON",
    )
    p.set_defaults(func=_cmd_profile, parser=p)

    p = sub.add_parser(
        "report",
        help="render the report of recorded runs, or diff flight-recorder "
        "runs with --compare",
    )
    p.add_argument(
        "run",
        nargs="?",
        metavar="RUN",
        help="run directory (or one run manifest) written by `repro "
        "profile` or `--run-dir`",
    )
    p.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CURRENT"),
        help="compare two run directories (or single manifests) written "
        "by the flight recorder; exits 1 when drift exceeds thresholds",
    )
    p.add_argument(
        "--max-latency-increase",
        type=_gate_threshold,
        default=0.20,
        metavar="FRAC",
        help="allowed simulated-latency increase vs baseline (default 0.20)",
    )
    p.add_argument(
        "--max-throughput-drop",
        type=_gate_threshold,
        default=0.50,
        metavar="FRAC",
        help="allowed candidates/sec drop vs baseline (default 0.50)",
    )
    p.add_argument(
        "--max-accuracy-drop",
        type=_gate_threshold,
        default=0.05,
        metavar="ABS",
        help="allowed absolute pairwise-rank-accuracy drop (default 0.05)",
    )
    p.add_argument(
        "--ignore",
        action="append",
        default=[],
        choices=["latency", "throughput", "accuracy"],
        help="skip a comparison metric (repeatable); CI ignores "
        "throughput because wall-clock rates are machine-dependent",
    )
    p.add_argument(
        "--history",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help="with --compare: also fit a robust trend over the last N "
        "baseline runs per series and flag drifts beyond the same "
        "thresholds (1 = pairwise gate only, the default; point the "
        "baseline at a `repro corpus` directory for deep windows)",
    )
    p.set_defaults(func=_cmd_report, parser=p)

    p = sub.add_parser(
        "corpus",
        help="telemetry warehouse: ingest flight-recorder run dirs into "
        "an indexed cross-run corpus and query trends/attribution",
    )
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    def _corpus_common(cp: argparse.ArgumentParser) -> None:
        cp.add_argument(
            "--corpus",
            default="corpus",
            metavar="DIR",
            help="warehouse directory (default ./corpus)",
        )
        cp.set_defaults(parser=cp)

    cp = corpus_sub.add_parser(
        "ingest",
        help="append new run manifests (and their event streams) from "
        "run directories; idempotent — known runs are skipped untouched",
    )
    cp.add_argument(
        "run_dirs",
        nargs="+",
        metavar="RUN_DIR",
        help="flight-recorder directories (or single run_*.json manifests)",
    )
    _corpus_common(cp)
    cp.set_defaults(func=_cmd_corpus_ingest)

    cp = corpus_sub.add_parser(
        "stats", help="corpus summary from the index alone (no re-parsing)"
    )
    _corpus_common(cp)
    cp.add_argument(
        "--check",
        action="store_true",
        help="full integrity scan: store/index consistency, per-run "
        "schema; non-zero exit on problems (the CI schema gate)",
    )
    cp.add_argument("--json", action="store_true", help="machine-readable output")
    cp.set_defaults(func=_cmd_corpus_stats)

    cp = corpus_sub.add_parser(
        "trend",
        help="per-series trajectories with a median-of-slopes trend "
        "verdict (best latency, rank accuracy, cache hit rate)",
    )
    _corpus_common(cp)
    cp.add_argument(
        "--metric",
        default="latency",
        choices=sorted(_analytics.TREND_METRICS),
        help="which per-run value to track (default latency)",
    )
    cp.add_argument("--operator", help="restrict to one operator")
    cp.add_argument("--hardware", help="restrict to one device")
    cp.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="only the last N runs per series (default: all)",
    )
    cp.add_argument("--json", action="store_true", help="machine-readable output")
    cp.set_defaults(func=_cmd_corpus_trend)

    cp = corpus_sub.add_parser(
        "attribution",
        help="corpus-wide wall-time attribution: phase self-time ranking "
        "and aggregated critical paths (which stage bounds tune time)",
    )
    _corpus_common(cp)
    cp.add_argument("--operator", help="restrict to one operator")
    cp.add_argument("--hardware", help="restrict to one device")
    cp.add_argument("--json", action="store_true", help="machine-readable output")
    cp.set_defaults(func=_cmd_corpus_attribution)

    cp = corpus_sub.add_parser(
        "export",
        help="flatten the corpus to one row per run (CSV or JSON) — the "
        "table trend dashboards and learned cost models consume",
    )
    _corpus_common(cp)
    cp.add_argument("--operator", help="restrict to one operator")
    cp.add_argument("--hardware", help="restrict to one device")
    cp.add_argument(
        "--csv",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write CSV to PATH ('-' or no value: stdout)",
    )
    cp.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write JSON to PATH ('-' or no value: stdout)",
    )
    cp.set_defaults(func=_cmd_corpus_export)

    p = sub.add_parser(
        "watch",
        help="live terminal dashboard over a run's telemetry: point it at "
        "an events_*.jsonl file or a run directory (newest stream wins)",
    )
    p.add_argument("source", help="event stream file or run directory")
    p.add_argument(
        "--once",
        action="store_true",
        help="render the current state once and exit (CI snapshot mode)",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="schema-check every event; non-zero exit on violations",
    )
    p.add_argument(
        "--interval",
        type=_positive_float,
        default=1.0,
        metavar="S",
        help="refresh/poll interval in seconds (default 1.0)",
    )
    p.set_defaults(func=_cmd_watch, parser=p)

    p = sub.add_parser("network", help="evaluate a network end to end")
    p.add_argument("network", choices=sorted(NETWORKS))
    p.add_argument("--hardware", default="v100", choices=list_hardware())
    p.add_argument("--batch", type=_int_at_least(1), default=1)
    p.add_argument("--baseline", help="compare against a baseline backend")
    _add_tuning_flags(p)
    p.set_defaults(func=_cmd_network, parser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
