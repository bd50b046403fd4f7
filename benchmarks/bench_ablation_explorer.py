"""Ablation: what the exploration machinery buys (DESIGN.md ablations).

Three design choices of the tuner are ablated on a mid-network conv layer:

* genetic algorithm vs uniform random sampling of the joint space,
* model-guided mapping pre-filter vs searching all mappings,
* the measured refinement rounds.

The claim under test mirrors Sec 5.3: model-guided evolutionary search
reaches better configurations than random sampling at equal budget.
"""

from repro.engine import EvaluationEngine, MemoCache
from repro.explore.genetic import GeneticConfig, genetic_search_rows
from repro.explore.random_search import random_search
from repro.explore.tuner import Tuner, TunerConfig
from repro.frontends.workloads import RESNET18_CONV_LAYERS
from repro.isa import intrinsics_for_target
from repro.mapping.generation import enumerate_mappings
from repro.mapping.physical import lower_to_physical
from repro.model import get_hardware

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

    engine = EvaluationEngine(comp, physical, hw, n_workers=1, memo=MemoCache())

    def measured(mapping_indices, batch):
        return engine.measure_rows(mapping_indices, batch)[1]

    # GA vs random, both scored by direct measurement: random search gets
    # as many measurements as the GA evaluated distinct candidates.
    ga = genetic_search_rows(
        physical, measured, GeneticConfig(population=24, generations=8, seed=1)
    )
    rnd = random_search(physical, measured, trials=len(ga), seed=1)
    assert len(rnd) == len(ga)

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
    return float(ga.costs[0]), float(rnd.costs[0]), tuner_best


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
