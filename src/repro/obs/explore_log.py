"""Exploration telemetry: what the tuner did and how well the model led it.

One :class:`ExploreLog` records a single ``Tuner.tune`` run:

* the **mapping funnel** — how many mappings were enumerated, survived
  validation, passed the model pre-filter, and were actually measured on
  the simulator (the paper's Table 6 counts are the first two stages);
* **per-generation genetic-search stats** — best/mean fitness and
  population diversity, i.e. the convergence curve of Sec 5.3's tuner;
* paired ``(predicted_us, measured_us)`` samples for every candidate the
  simulator measured, from which the model-quality numbers behind Fig 5
  (pairwise rank accuracy, top-k recall) are computed per run.

Instrumented modules find the active log through the context-local
:func:`current_log`, so deep call sites (the mapping enumerator, the GA)
record telemetry without threading a logger through every signature.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs import events as _events

__all__ = [
    "ExploreLog",
    "FunnelCounts",
    "GenerationStats",
    "current_log",
    "use_log",
]

#: Funnel stages in pipeline order; each stage's count can only be <= the
#: previous one (they narrow the same mapping set).
FUNNEL_STAGES = ("enumerated", "validated", "prefiltered", "measured")


@dataclass
class FunnelCounts:
    """Mapping counts per exploration stage."""

    enumerated: int = 0
    validated: int = 0
    prefiltered: int = 0
    measured: int = 0

    def record(self, stage: str, count: int) -> None:
        if stage not in FUNNEL_STAGES:
            raise ValueError(f"unknown funnel stage {stage!r}; expected one of {FUNNEL_STAGES}")
        setattr(self, stage, getattr(self, stage) + count)

    def is_consistent(self) -> bool:
        """The funnel only narrows: enumerated >= validated >= prefiltered
        >= measured (all stages that were recorded at all)."""
        values = [getattr(self, s) for s in FUNNEL_STAGES]
        prev = None
        for v in values:
            if v == 0:
                continue  # stage not recorded (e.g. caller-supplied mappings)
            if prev is not None and v > prev:
                return False
            prev = v
        return True

    def to_dict(self) -> dict[str, int]:
        return {s: getattr(self, s) for s in FUNNEL_STAGES}


@dataclass(frozen=True)
class GenerationStats:
    """One genetic-search generation, summarised."""

    generation: int
    best_fitness: float
    mean_fitness: float
    worst_fitness: float
    unique_candidates: int
    population: int

    @property
    def diversity(self) -> float:
        """Fraction of the population that is genotypically distinct."""
        return self.unique_candidates / self.population if self.population else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "best_fitness": self.best_fitness,
            "mean_fitness": self.mean_fitness,
            "worst_fitness": self.worst_fitness,
            "unique_candidates": self.unique_candidates,
            "population": self.population,
            "diversity": self.diversity,
        }


def generation_stats(
    generation: int, fitnesses: Sequence[float], unique_candidates: int
) -> GenerationStats:
    """Summarise one generation; infeasible (infinite) fitnesses are
    excluded from the mean so one dead candidate cannot hide the curve."""
    finite = [f for f in fitnesses if math.isfinite(f)]
    best = min(finite) if finite else float("inf")
    worst = max(finite) if finite else float("inf")
    mean = sum(finite) / len(finite) if finite else float("inf")
    return GenerationStats(
        generation=generation,
        best_fitness=best,
        mean_fitness=mean,
        worst_fitness=worst,
        unique_candidates=unique_candidates,
        population=len(fitnesses),
    )


@dataclass
class ExploreLog:
    """Telemetry of one tune run."""

    operator: str = ""
    hardware: str = ""
    funnel: FunnelCounts = field(default_factory=FunnelCounts)
    generations: list[GenerationStats] = field(default_factory=list)
    samples: list[tuple[float, float]] = field(default_factory=list)

    # -- recording -----------------------------------------------------
    def record_funnel(self, stage: str, count: int) -> None:
        self.funnel.record(stage, count)
        if _events._enabled:
            _events.get_bus().publish(
                "funnel.stage",
                {
                    "stage": stage,
                    "count": count,
                    "total": getattr(self.funnel, stage),
                },
            )

    def record_generation(
        self, generation: int, fitnesses: Sequence[float], unique_candidates: int
    ) -> None:
        self.generations.append(
            generation_stats(generation, fitnesses, unique_candidates)
        )

    def record_sample(self, predicted_us: float, measured_us: float) -> None:
        """One paired model-prediction / simulator-measurement point."""
        self.samples.append((predicted_us, measured_us))

    # -- analysis ------------------------------------------------------
    def model_quality(self, top_rates: Sequence[float] = (0.1, 0.2)) -> dict[str, float]:
        """Fig 5-style model validation over this run's measured samples.

        Infeasible candidates (infinite prediction or measurement) are
        excluded: the rank metrics are about ordering feasible choices.
        """
        # Imported here, not at module level: repro.obs must stay a leaf
        # package (instrumented modules under repro.mapping/repro.explore
        # import it, so importing repro.explore back would be a cycle).
        from repro.explore.metrics import pairwise_accuracy, top_k_recall

        finite = [
            (p, m) for p, m in self.samples if math.isfinite(p) and math.isfinite(m)
        ]
        quality: dict[str, float] = {"num_samples": float(len(finite))}
        if len(finite) < 2:
            return quality
        predicted = [p for p, _ in finite]
        measured = [m for _, m in finite]
        quality["pairwise_accuracy"] = pairwise_accuracy(predicted, measured)
        for rate in top_rates:
            quality[f"top_{int(rate * 100)}pct_recall"] = top_k_recall(
                predicted, measured, rate
            )
        return quality

    def to_dict(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "hardware": self.hardware,
            "funnel": self.funnel.to_dict(),
            "generations": [g.to_dict() for g in self.generations],
            "num_samples": len(self.samples),
            "model_quality": self.model_quality(),
        }


# ----------------------------------------------------------------------
# Context-local active log
# ----------------------------------------------------------------------
_current: contextvars.ContextVar[ExploreLog | None] = contextvars.ContextVar(
    "repro_obs_explore_log", default=None
)


def current_log() -> ExploreLog | None:
    """The active tune run's log, or None outside an instrumented run."""
    return _current.get()


class use_log:
    """Bind an :class:`ExploreLog` as the active log for a region::

        with use_log(log):
            tuner.tune(comp)
    """

    def __init__(self, log: ExploreLog):
        self._log = log
        self._token: contextvars.Token | None = None

    def __enter__(self) -> ExploreLog:
        self._token = _current.set(self._log)
        return self._log

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _current.reset(self._token)

