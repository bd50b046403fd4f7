"""Benchmark: the batch-evaluation path (feature tables +
``batch_predict`` / ``batch_simulate``) and the array-native GA loop.

Measurements (run as a script, written to
``benchmarks/results/BENCH_batch_eval.json``):

1. **batch fitness throughput** — one GA-generation-shaped batch of
   schedule candidates pushed through ``EvaluationEngine``
   (``n_workers=1``, so the evaluators themselves are compared, not the
   pool) vs the scalar oracle, ``lower_schedule`` →
   ``predict_latency`` / ``simulate_cycles`` one candidate at a time.
   The array path must deliver at least **5x candidates/sec** on the
   model-only fitness batch, and the results of the two must be
   bit-identical.
2. **end-to-end GA-loop throughput** — a whole ``genetic_search_rows``
   run over the spaces' :class:`~repro.schedule.space.SpaceTable`
   (breed + dedup keys + predict).
   Its ranked output must be identical to a golden digest recorded from
   the per-candidate object GA (scoring each candidate with the scalar
   model) before that loop was deleted.
3. **describe memo note** — ``Schedule.describe()`` is memoized on
   first render; the micro-benchmark records the cold render vs the
   memoized re-read, the win every dedup key / jitter encoding touch of
   the same immutable schedule collects.

Runnable standalone (``python benchmarks/bench_batch_eval.py``) and
re-exported by ``tests/test_batch_eval_bench.py`` so the assertions run
under the tier-1 command; the test writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys
import time

import numpy as np

from repro.engine import EvaluationEngine
from repro.explore.genetic import GeneticConfig, genetic_search_rows
from repro.frontends.operators import make_operator
from repro.isa.registry import intrinsics_for_target
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware
from repro.model.perf_model import predict_latency
from repro.schedule.features import encode_rows
from repro.schedule.lowering import lower_schedule
from repro.schedule.space import ScheduleSpace, SpaceTable, default_schedule
from repro.sim.timing import simulate_cycles

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
RESULT_FILE = "BENCH_batch_eval.json"

#: Candidates per fitness batch — a large GA generation: the batch
#: evaluators run in milliseconds, so the asserted >=5x contract is
#: measured at a realistic size.
FITNESS_BATCH = 256
FITNESS_REPEATS = 5
MIN_FITNESS_SPEEDUP = 5.0

#: GA-loop budget for the end-to-end throughput section — a population
#: large enough that the loop machinery (breed/dedup/keys), not constant
#: per-call overhead, dominates, as the paper's Table 6 spaces imply.
GA_LOOP_CONFIG = GeneticConfig(population=256, generations=8, seed=0)
GA_LOOP_REPEATS = 3
#: sha256 of that run's ranked rows (:func:`_ranking_digest`), recorded
#: from the per-candidate object GA scoring with the scalar model.
GA_LOOP_GOLDEN = "bcf09413c20d08b265a85696d21141fe8403745dc2750b19b83bb0138e878862"


def _context():
    comp = make_operator("GMM", m=64, n=64, k=64)
    hw = get_hardware("v100")
    physical = [
        lower_to_physical(m)
        for intr in intrinsics_for_target(hw.target)
        for m in enumerate_mappings(comp, intr, GenerationOptions())
    ]
    return comp, hw, physical


def _fitness_items(physical, hw, count):
    """A GA-generation-shaped batch: random schedules spread over all
    mappings, shuffled so groups interleave as they do in real batches."""
    rng = random.Random(2024)
    per_mapping = count // len(physical) + 1
    items = []
    for mi, pm in enumerate(physical):
        space = ScheduleSpace(
            pm,
            max_warps_per_block=hw.max_warps_per_subcore * hw.subcores_per_core,
        )
        items.extend((mi, space.sample(rng)) for _ in range(per_mapping))
    rng.shuffle(items)
    return items[:count]


def _scalar_evaluate(physical, hw, items, measure):
    """The scalar oracle over a batch, one candidate at a time — the same
    evaluations the removed per-candidate engine path ran."""
    if not measure:
        return [
            predict_latency(lower_schedule(physical[mi], s), hw).total_us
            for mi, s in items
        ]
    results = []
    for mi, schedule in items:
        sm = lower_schedule(physical[mi], schedule)
        results.append(
            (predict_latency(sm, hw).total_us, simulate_cycles(sm, hw).total_us)
        )
    return results


def _throughput(run, count):
    """Best-of-N throughput (candidates/sec) of ``run()`` plus its last
    results, for the bit-identity check."""
    best_s = float("inf")
    results = None
    for _ in range(FITNESS_REPEATS):
        start = time.perf_counter()
        results = run()
        best_s = min(best_s, time.perf_counter() - start)
    return count / best_s, best_s, results


def run_fitness_throughput() -> dict:
    comp, hw, physical = _context()
    items = _fitness_items(physical, hw, FITNESS_BATCH)

    def engine_run(measure):
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            if measure:
                return engine.measure_many(items)
            return engine.predict_many(items)

    report = {"batch_size": len(items), "num_mappings": len(physical)}
    for measure, label in ((False, "fitness"), (True, "measured")):
        vec_cps, vec_s, vec_results = _throughput(
            lambda: engine_run(measure), len(items)
        )
        sca_cps, sca_s, sca_results = _throughput(
            lambda: _scalar_evaluate(physical, hw, items, measure), len(items)
        )
        report[label] = {
            "vectorized_cand_per_s": vec_cps,
            "scalar_cand_per_s": sca_cps,
            "vectorized_wall_s": vec_s,
            "scalar_wall_s": sca_s,
            "speedup": vec_cps / sca_cps if sca_cps else 0.0,
            "identical": vec_results == sca_results,
        }
    return report


def _ga_context(comp, hw, physical):
    max_warps = hw.max_warps_per_subcore * hw.subcores_per_core
    spaces = [
        ScheduleSpace(pm, max_warps_per_block=max_warps) for pm in physical
    ]
    seed_rows = (
        np.arange(len(physical)),
        encode_rows(
            [space.spatial_names for space in spaces],
            [default_schedule(pm, max_warps_per_block=max_warps) for pm in physical],
        ),
    )
    return spaces, seed_rows


def _ranking_digest(result) -> str:
    """sha256 of a GA result's ranked rows, as the JSON list of
    ``[mapping_index, warp row, seq row, [reduce_stage, double_buffer,
    unroll, vectorize], cost]``."""
    b = result.batch
    ranked = [
        [
            mi,
            b.warp[i].tolist(),
            b.seq[i].tolist(),
            [
                int(b.reduce_stage[i]),
                bool(b.double_buffer[i]),
                int(b.unroll[i]),
                int(b.vectorize[i]),
            ],
            cost,
        ]
        for i, (mi, cost) in enumerate(
            zip(result.mapping_index.tolist(), result.costs.tolist())
        )
    ]
    return hashlib.sha256(json.dumps(ranked).encode()).hexdigest()


def run_ga_loop_throughput() -> dict:
    """One whole rows-GA run — breed + dedup keys + predict — as the
    tuner runs it."""
    comp, hw, physical = _context()
    spaces, seed_rows = _ga_context(comp, hw, physical)
    table = SpaceTable.of_spaces(spaces)
    cfg = GA_LOOP_CONFIG
    best_s, result = float("inf"), None
    for _ in range(GA_LOOP_REPEATS):
        with EvaluationEngine(comp, physical, hw, n_workers=1) as engine:
            start = time.perf_counter()
            result = genetic_search_rows(
                physical, engine.predict_rows, cfg, seeds=seed_rows, spaces=table
            )
            best_s = min(best_s, time.perf_counter() - start)

    evaluated = len(result)
    return {
        "population": cfg.population,
        "generations": cfg.generations,
        "candidates_evaluated": evaluated,
        "rows_cand_per_s": evaluated / best_s,
        "rows_wall_s": best_s,
        "identical": _ranking_digest(result) == GA_LOOP_GOLDEN,
    }


def run_describe_memo_note() -> dict:
    """Micro-benchmark note: Schedule.describe() cold render vs the
    memoized re-read (the schedule is immutable, so every later touch —
    memo key, dedup key, jitter string — is the memoized path)."""
    comp, hw, physical = _context()
    spaces, _ = _ga_context(comp, hw, physical)
    rng = random.Random(99)
    schedules = [spaces[0].sample(rng) for _ in range(512)]

    start = time.perf_counter()
    for s in schedules:
        s.describe()
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    for s in schedules:
        s.describe()
    memo_s = time.perf_counter() - start
    return {
        "schedules": len(schedules),
        "cold_render_us_each": cold_s / len(schedules) * 1e6,
        "memoized_us_each": memo_s / len(schedules) * 1e6,
        "speedup": cold_s / memo_s if memo_s else float("inf"),
    }


def run_bench() -> dict:
    return {
        "fitness_throughput": run_fitness_throughput(),
        "ga_loop": run_ga_loop_throughput(),
        "describe_memo": run_describe_memo_note(),
    }


def check_bench(report: dict) -> None:
    """The batch path's contract: bit-identical and much faster; the GA
    loop's ranking equals its golden."""
    fitness = report["fitness_throughput"]
    for label in ("fitness", "measured"):
        section = fitness[label]
        assert section["identical"], (
            f"batch {label} results diverged from the scalar oracle: {section}"
        )
    assert fitness["fitness"]["speedup"] >= MIN_FITNESS_SPEEDUP, (
        f"batch fitness must be >= {MIN_FITNESS_SPEEDUP}x the scalar path, "
        f"got {fitness['fitness']['speedup']:.2f}x"
    )

    ga_loop = report["ga_loop"]
    assert ga_loop["identical"], (
        f"GA ranking diverged from the recorded golden: {ga_loop}"
    )

    memo = report["describe_memo"]
    assert memo["speedup"] >= 2.0, (
        f"memoized describe() should beat a fresh render handily: {memo}"
    )


def test_batch_eval_bench_quick():
    report = run_bench()
    check_bench(report)
    fitness = report["fitness_throughput"]
    ga_loop, memo = report["ga_loop"], report["describe_memo"]
    print(
        f"\nfitness batch ({fitness['batch_size']} candidates): "
        f"vectorized {fitness['fitness']['vectorized_cand_per_s']:,.0f} cand/s, "
        f"scalar {fitness['fitness']['scalar_cand_per_s']:,.0f} cand/s "
        f"({fitness['fitness']['speedup']:.1f}x); "
        f"measured pass {fitness['measured']['speedup']:.1f}x"
        f"\nGA loop ({ga_loop['candidates_evaluated']} evaluated): "
        f"rows {ga_loop['rows_cand_per_s']:,.0f} cand/s"
        f"\ndescribe memo: {memo['cold_render_us_each']:.2f}us cold vs "
        f"{memo['memoized_us_each']:.3f}us memoized ({memo['speedup']:.0f}x)"
    )


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    report = run_bench()
    check_bench(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / RESULT_FILE
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
