"""Genetic-algorithm search over the joint mapping x schedule space.

The paper's tuning engine keeps a population of (mapping, schedule)
candidates, evaluates them with the analytic performance model, keeps the
fittest, and mutates their schedules (and occasionally re-draws the
mapping) to produce the next generation.  Measurements on the "hardware"
(our cycle simulator) are reserved for the model-selected top candidates,
mirroring how AMOS limits expensive on-device runs.

Array-native exploration: the population is a mapping-index vector plus
a :class:`~repro.schedule.features.ScheduleBatch` (rows padded to the
widest mapping's spatial width), seeded with rows (the tuner's default
rows of its kept mappings), written, keyed and stacked with the shared
row codec of :mod:`repro.schedule.features` — the same key builder the
evaluation engine uses — and returned as rows (:class:`GAResult`), with
no schedule object built on the way.  Selection, elitism, schedule
mutation and mapping re-draw are numpy column operations: every
generation's fresh samples are one :meth:`SpaceTable.sample
<repro.schedule.space.SpaceTable.sample>` call and its mutations one
:meth:`~repro.schedule.space.SpaceTable.mutate` call over the whole
mixed-mapping batch, and per-row byte keys replace describe-string keys
for dedup.  Every stochastic decision decodes *pre-drawn uniform
matrices* from one seeded ``numpy.random.Generator`` with a **fixed
uniform budget per decision** (see :mod:`repro.schedule.space`), so a
run is a pure function of its mappings, spaces, seeds, config and
fitness.  ``tests/data/ga_trajectories.json`` pins four such runs —
ranked rows and per-generation telemetry under a fixed model-free cost —
as recorded from the per-candidate object GA this loop replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.mapping.physical import PhysicalMapping
from repro.obs import events as _events
from repro.obs.explore_log import generation_stats
from repro.schedule.features import (
    ScheduleBatch,
    blank_rows,
    row_keys,
    stack_rows,
    take_rows,
    write_rows,
)
from repro.schedule.space import MUTATE_UNIFORMS, ScheduleSpace, SpaceTable, _pick_vec

__all__ = [
    "GAResult",
    "GenerationCallback",
    "GeneticConfig",
    "RowFitness",
    "genetic_search_rows",
]


@dataclass
class GeneticConfig:
    population: int = 24
    generations: int = 8
    elite_fraction: float = 0.25
    mapping_mutation_prob: float = 0.15
    seed: int = 0


#: Per-generation observer: ``(generation, fitnesses, unique_candidates)``.
#: ``fitnesses`` is the evaluated cost of every population member and
#: ``unique_candidates`` the number of genotypically distinct members —
#: together the convergence + diversity signal of the search.
GenerationCallback = Callable[[int, list[float], int], None]

#: Row cost function: scores batch rows in one call — ``(mapping_indices,
#: batch) -> costs`` with no per-candidate objects.  The hook the
#: engine's ``predict_rows`` plugs into.
RowFitness = Callable[[np.ndarray, ScheduleBatch], np.ndarray]


@dataclass(frozen=True)
class GAResult:
    """Every evaluated candidate of one GA run, cost-ascending.

    The array-native return shape: ``mapping_index[i]`` indexes the
    mappings list, row ``i`` of ``batch`` (joint-width columns) is the
    schedule, ``costs[i]`` its fitness.
    Ordering is a stable sort over archive (first-evaluation) order:
    equal costs keep the order in which they were first evaluated.
    """

    mapping_index: np.ndarray  # (n,) int64
    batch: ScheduleBatch       # n rows, joint width
    costs: np.ndarray          # (n,) float64, ascending

    def __len__(self) -> int:
        return self.mapping_index.shape[0]


# ---------------------------------------------------------------------------
# Shared uniform-matrix layout.
#
# Initial fill, one row per candidate (K = 1 + 2*D + 4 columns):
#   col 0            mapping pick
#   cols 1..2d+4     the mapping's sample draw (trailing columns unused
#                    when the mapping is narrower than the joint width D)
# Breeding, one row per child (K = 2 + (1 + 2*D + 4) columns):
#   col 0            parent pick from the elite
#   col 1            mapping re-draw coin (< mapping_mutation_prob)
#   redraw path:     col 2 mapping pick, cols 3.. the sample draw
#   mutate path:     cols 2..2+MUTATE_UNIFORMS the mutation draw
#
# Both paths consume whole rows regardless of which columns a decision
# uses — the fixed budget that keeps the RNG stream independent of
# which path each child takes.
# ---------------------------------------------------------------------------


def _sample_width(joint_width: int) -> int:
    return 1 + 2 * joint_width + 4


def _breed_width(joint_width: int) -> int:
    return 2 + _sample_width(joint_width)


def genetic_search_rows(
    mappings: Sequence[PhysicalMapping],
    fitness_rows: RowFitness,
    config: GeneticConfig | None = None,
    seeds: tuple[np.ndarray, ScheduleBatch] | None = None,
    spaces: SpaceTable | None = None,
    on_generation: GenerationCallback | None = None,
) -> GAResult:
    """Array-native GA: the population lives as ScheduleBatch columns.

    Selection, elitism, schedule mutation and mapping re-draw are numpy
    column operations over a single seeded ``numpy.random.Generator``;
    dedup and the evaluated archive are keyed by per-row canonical byte
    keys.

    Args:
        mappings: the valid physical mappings to choose among.
        fitness_rows: row cost function ``(mapping_indices, batch) ->
            costs`` — typically the engine's ``predict_rows``.
        config: GA hyper-parameters.
        seeds: ``(mapping_indices, batch)`` rows injected into the
            initial population (the first ``population`` of them), e.g.
            the default rows of the kept mappings.
        spaces: the mappings' schedule spaces as one
            :class:`~repro.schedule.space.SpaceTable` (defaults to the
            table of unconstrained spaces).
        on_generation: telemetry hook invoked once per generation (and
            once for the final population) with the population's costs
            and its number of distinct members; it observes the search
            without affecting it — the RNG stream and selection are
            identical with or without a callback.
    """
    if not mappings:
        raise ValueError("no mappings to search over")
    config = config or GeneticConfig()
    if spaces is None:
        spaces = SpaceTable.of_spaces([ScheduleSpace(pm) for pm in mappings])
    if len(spaces) != len(mappings):
        raise ValueError("one schedule space per mapping required")
    rng = np.random.default_rng(config.seed)
    widths = spaces.n_spatial.tolist()
    joint = spaces.width
    pop_n = config.population

    def keys_of(mi: np.ndarray, batch: ScheduleBatch) -> list[bytes]:
        # Dedup keys: the shared row keys, prefixed by the mapping index.
        return row_keys(
            mi, batch, lambda m: m.to_bytes(8, "little"), widths.__getitem__
        )

    pop_mi = np.zeros(pop_n, dtype=np.int64)
    pop = blank_rows(pop_n, joint)
    n_seeds = 0
    if seeds is not None:
        seed_mi, seed_batch = seeds
        n_seeds = min(len(seed_batch), pop_n)
        head = np.arange(n_seeds)
        pop_mi[head] = seed_mi[:n_seeds]
        write_rows(pop, head, take_rows(seed_batch, head, width=joint))
    n_fill = pop_n - n_seeds
    if n_fill:
        u = rng.random((n_fill, _sample_width(joint)))
        fill_rows = np.arange(n_seeds, pop_n)
        pop_mi[fill_rows] = _pick_vec(u[:, 0], len(mappings))
        write_rows(pop, fill_rows, spaces.sample(pop_mi[fill_rows], u[:, 1:]))

    # Evaluated archive, insertion (first-appearance) order.
    evaluated: dict[bytes, float] = {}
    arch_mi: list[np.ndarray] = []
    arch_rows: list[ScheduleBatch] = []
    arch_costs: list[np.ndarray] = []

    def evaluate_population() -> np.ndarray:
        """Score the population; fresh rows go through ``fitness_rows``
        as one zero-copy row slice.  Returns per-row costs."""
        keys = keys_of(pop_mi, pop)
        fresh_rows: list[int] = []
        pending: set[bytes] = set()
        for i, key in enumerate(keys):
            if key not in evaluated and key not in pending:
                fresh_rows.append(i)
                pending.add(key)
        if fresh_rows:
            rows = np.asarray(fresh_rows, dtype=np.int64)
            chunk = take_rows(pop, rows)
            chunk_mi = pop_mi[rows]
            costs = np.asarray(fitness_rows(chunk_mi, chunk), dtype=np.float64)
            if costs.shape[0] != rows.shape[0]:
                raise ValueError(
                    f"fitness_rows returned {costs.shape[0]} costs for "
                    f"{rows.shape[0]} rows"
                )
            for i, cost in zip(fresh_rows, costs):
                evaluated[keys[i]] = float(cost)
            arch_mi.append(chunk_mi)
            arch_rows.append(chunk)
            arch_costs.append(costs)
        return np.asarray([evaluated[k] for k in keys], dtype=np.float64)

    def observe(generation: int, costs: np.ndarray) -> None:
        # Pure observation: costs are already computed, the RNG stream
        # is untouched — identical search with or without a callback.
        if on_generation is None and not _events._enabled:
            return
        fitnesses = [float(c) for c in costs]
        unique = len(set(keys_of(pop_mi, pop)))
        if on_generation is not None:
            on_generation(generation, fitnesses, unique)
        if _events._enabled:
            _events.get_bus().publish(
                "ga.generation",
                generation_stats(generation, fitnesses, unique).to_dict(),
            )

    for gen in range(config.generations):
        costs = evaluate_population()
        order = np.argsort(costs, kind="stable")
        observe(gen, costs)
        elite_count = max(1, int(pop_n * config.elite_fraction))
        elite_idx = order[:elite_count]
        n_children = pop_n - elite_count

        next_mi = np.zeros(pop_n, dtype=np.int64)
        next_pop = blank_rows(pop_n, joint)
        keep = np.arange(elite_count)
        next_mi[keep] = pop_mi[elite_idx]
        write_rows(next_pop, keep, take_rows(pop, elite_idx))

        if n_children:
            u = rng.random((n_children, _breed_width(joint)))
            parents = elite_idx[_pick_vec(u[:, 0], elite_count)]
            redraw = u[:, 1] < config.mapping_mutation_prob
            child_rows = np.arange(elite_count, pop_n)

            re_rows = np.nonzero(redraw)[0]
            target = child_rows[re_rows]
            next_mi[target] = _pick_vec(u[re_rows, 2], len(mappings))
            write_rows(next_pop, target, spaces.sample(next_mi[target], u[re_rows, 3:]))

            mut_rows = np.nonzero(~redraw)[0]
            p = parents[mut_rows]
            target = child_rows[mut_rows]
            next_mi[target] = pop_mi[p]
            children = spaces.mutate(
                pop_mi[p], take_rows(pop, p), u[mut_rows, 2 : 2 + MUTATE_UNIFORMS]
            )
            write_rows(next_pop, target, children)
        pop_mi, pop = next_mi, next_pop

    costs = evaluate_population()
    observe(config.generations, costs)

    all_mi = np.concatenate(arch_mi) if arch_mi else np.empty(0, dtype=np.int64)
    all_costs = (
        np.concatenate(arch_costs) if arch_costs else np.empty(0, dtype=np.float64)
    )
    order = np.argsort(all_costs, kind="stable")
    return GAResult(
        mapping_index=all_mi[order],
        batch=take_rows(stack_rows(arch_rows, joint), order),
        costs=all_costs[order],
    )

