"""Ablation: the mapping-generation rules (DESIGN.md ablations).

Quantifies what each admissibility rule contributes:

* the unit-stride reduce rule (REPRO-RULE) prunes the C2D space from 49
  to the paper's 35 without discarding any mapping the tuner would pick,
* diagonal mappings are what make depthwise conv tensorisable at all —
  disabling them forces padded-i2 mappings that waste 16x of the MACs,
* diagonal tile-skipping is what makes diagonal mappings *fast*.
"""

from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.operators import make_operator
from repro.isa import get_intrinsic
from repro.mapping.generation import GenerationOptions, enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware

from bench_utils import write_table


def run_ablation():
    hw = get_hardware("v100")
    tc = get_intrinsic("wmma_m16n16k16_f16")

    conv = make_operator("C2D", n=16, c=64, k=64, h=28, w=28)
    count_with_rule = len(enumerate_mappings(conv, tc))
    count_without = len(
        enumerate_mappings(conv, tc, GenerationOptions(unit_stride_reduce_rule=False))
    )

    # Best tuned time with and without the rule (the pruned mappings
    # should not contain the winner).
    best_with = Tuner(hw, TunerConfig()).tune(conv).best_us
    loose = Tuner(
        hw, TunerConfig(generation_options=GenerationOptions(unit_stride_reduce_rule=False))
    ).tune(conv).best_us

    # Depthwise with and without diagonal mappings.
    dep = make_operator("DEP", n=1, k=96, h=28, w=28)
    diag_maps = [
        lower_to_physical(m)
        for m in enumerate_mappings(dep, tc)
        if m.matching.diagonal_columns()
    ]
    no_diag_maps = [
        lower_to_physical(m)
        for m in enumerate_mappings(dep, tc, GenerationOptions(allow_diagonal=False))
    ]
    tuner = Tuner(hw, TunerConfig())
    dep_diag_us = tuner.tune(dep, diag_maps).best_us
    dep_padded_us = tuner.tune(dep, no_diag_maps).best_us
    dep_full_us = tuner.tune(dep).best_us

    # Diagonal call skipping: utilization with vs without the skip.
    phys = diag_maps[0]
    skipped_calls = phys.num_intrinsic_calls()
    naive_calls = round(skipped_calls / phys.diagonal_call_fraction)
    return {
        "count_with_rule": count_with_rule,
        "count_without": count_without,
        "best_with": best_with,
        "best_without": loose,
        "dep_diag_us": dep_diag_us,
        "dep_padded_us": dep_padded_us,
        "dep_full_us": dep_full_us,
        "skipped_calls": skipped_calls,
        "naive_calls": naive_calls,
    }


def test_report_ablation_rules(benchmark):
    r = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = [
        "mapping-rule ablation (V100)",
        f"  C2D mappings with unit-stride rule: {r['count_with_rule']}, "
        f"without: {r['count_without']}",
        f"  tuned C2D: with rule {r['best_with']:.1f} us, "
        f"without {r['best_without']:.1f} us",
        f"  depthwise tuned: diagonal-only {r['dep_diag_us']:.1f} us, "
        f"padded-i2-only {r['dep_padded_us']:.1f} us, "
        f"full space {r['dep_full_us']:.1f} us",
        f"  diagonal skipping: {r['skipped_calls']} calls vs "
        f"{r['naive_calls']} naive",
    ]
    write_table("ablation_mapping_rules", lines)

    assert (r["count_with_rule"], r["count_without"]) == (35, 49)
    # The rule prunes only non-winning mappings (within tuner noise).
    assert r["best_with"] <= r["best_without"] * 1.10
    # Neither depthwise family dominates a priori — this memory-bound
    # shape favours the padded-i2 variant — but the full space is at
    # least as good as either restriction (mapping flexibility again).
    assert r["dep_full_us"] <= min(r["dep_diag_us"], r["dep_padded_us"]) * 1.10
    # Diagonal skipping removes most of the zero tile pairs.
    assert r["skipped_calls"] < 0.55 * r["naive_calls"]
