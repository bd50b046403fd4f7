"""Random-search baseline explorer.

Used by the explorer ablation to quantify what the genetic algorithm
buys over uniform sampling of the joint space.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.explore.genetic import GAResult, RowFitness
from repro.mapping.physical import PhysicalMapping
from repro.schedule.features import encode_rows, take_rows
from repro.schedule.space import ScheduleSpace


def random_search(
    mappings: Sequence[PhysicalMapping],
    fitness_rows: RowFitness,
    trials: int = 128,
    seed: int = 0,
) -> GAResult:
    """Uniformly sample the joint space; returns every draw, cost-ascending.

    Each trial draws a mapping, then one of its schedules, from one
    ``random.Random(seed)`` stream.  The draws are encoded to rows once
    and scored in one ``fitness_rows`` call — the GA's row hook, so an
    engine's memo serves both explorers.  Draws are not deduplicated
    (``len(result) == trials``), and equal costs keep draw order.
    """
    if not mappings:
        raise ValueError("no mappings to search over")
    rng = random.Random(seed)
    spaces = [ScheduleSpace(pm) for pm in mappings]
    picks, schedules = [], []
    for _ in range(trials):
        mi = rng.randrange(len(mappings))
        picks.append(mi)
        schedules.append(spaces[mi].sample(rng))
    mapping_index = np.asarray(picks, dtype=np.int64)
    batch = encode_rows([spaces[mi].spatial_names for mi in picks], schedules)
    costs = np.asarray(fitness_rows(mapping_index, batch), dtype=np.float64)
    if costs.shape[0] != trials:
        raise ValueError(
            f"fitness_rows returned {costs.shape[0]} costs for {trials} rows"
        )
    order = np.argsort(costs, kind="stable")
    return GAResult(mapping_index[order], take_rows(batch, order), costs[order])
