"""Ablation: what the exploration machinery buys (DESIGN.md ablations).

Three design choices of the tuner are ablated on a mid-network conv layer:

* genetic algorithm vs uniform random sampling of the joint space,
* model-guided mapping pre-filter vs searching all mappings,
* the measured refinement rounds.

The claim under test mirrors Sec 5.3: model-guided evolutionary search
reaches better configurations than random sampling at equal budget.
"""

from repro.explore.genetic import Candidate, GeneticConfig, genetic_search
from repro.explore.random_search import random_search
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.workloads import RESNET18_CONV_LAYERS
from repro.isa import intrinsics_for_target
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware, predict_latency
from repro.schedule.lowering import lower_schedule
from repro.sim.timing import simulate_cycles

from bench_utils import write_table


def _mappings(comp):
    result = []
    for intr in intrinsics_for_target("tensorcore"):
        result += [lower_to_physical(m) for m in enumerate_mappings(comp, intr)]
    return result


def run_ablation():
    hw = get_hardware("v100")
    comp = RESNET18_CONV_LAYERS[5].computation()  # C5, batch 16
    physical = _mappings(comp)

    def measured(candidate: Candidate) -> float:
        sched = lower_schedule(physical[candidate.mapping_index], candidate.schedule)
        return simulate_cycles(sched, hw).total_us

    def modeled(candidate: Candidate) -> float:
        sched = lower_schedule(physical[candidate.mapping_index], candidate.schedule)
        return predict_latency(sched, hw).total_us

    # Equal-budget GA vs random, both scored by direct measurement.
    budget = 192
    ga = genetic_search(
        physical, measured, GeneticConfig(population=24, generations=8, seed=1)
    )
    rnd = random_search(physical, measured, trials=budget, seed=1)

    # Full tuner vs no-prefilter vs no-refinement.
    variants = {
        "full": TunerConfig(),
        "no_prefilter": TunerConfig(prefilter_mappings=0),
        "no_refinement": TunerConfig(refine_rounds=0),
        "small_budget": TunerConfig(population=8, generations=2, measure_top=8,
                                    refine_rounds=0),
    }
    tuner_best = {}
    for name, config in variants.items():
        tuner_best[name] = Tuner(hw, config).tune(comp, list(physical)).best_us
    return ga[0][1], rnd[0][1], tuner_best


def test_report_ablation_explorer(benchmark):
    ga_best, rnd_best, tuner_best = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    lines = ["explorer ablation on ResNet-18 C5 (batch 16, V100)"]
    lines.append(f"  GA (measured fitness, equal budget): {ga_best:9.1f} us")
    lines.append(f"  random search (same budget):         {rnd_best:9.1f} us")
    for name, us in tuner_best.items():
        lines.append(f"  tuner[{name}]: {us:9.1f} us")
    write_table("ablation_explorer", lines)

    # GA beats or matches random at equal budget.
    assert ga_best <= rnd_best * 1.05
    # The full tuner is at least as good as the crippled variants.
    assert tuner_best["full"] <= tuner_best["small_budget"] * 1.05
    assert tuner_best["full"] <= tuner_best["no_refinement"] * 1.05
