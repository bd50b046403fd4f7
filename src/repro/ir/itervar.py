"""Iteration variables.

A tensor computation is a perfectly nested loop; each loop level is an
:class:`IterVar`.  AMOS distinguishes *spatial* iterations (those indexing
the output tensor) from *reduction* iterations (those reduced away), and the
mapping validity rules depend on the distinction: a spatial software
iteration may only match a spatial intrinsic iteration, and likewise for
reductions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ir.expr import Var


class IterKind(enum.Enum):
    """The role an iteration plays in the computation."""

    SPATIAL = "spatial"
    REDUCE = "reduce"


@dataclass(frozen=True)
class IterVar:
    """A loop variable with a known trip count.

    Attributes:
        var: the scalar :class:`~repro.ir.expr.Var` bound at this loop level.
        extent: trip count; the loop runs over ``range(extent)``.
        kind: spatial or reduce.
    """

    var: Var
    extent: int
    kind: IterKind = IterKind.SPATIAL

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise ValueError(f"iteration {self.var.name} has extent {self.extent}; must be positive")

    @property
    def name(self) -> str:
        return self.var.name

    @property
    def is_reduce(self) -> bool:
        return self.kind is IterKind.REDUCE

    @property
    def is_spatial(self) -> bool:
        return self.kind is IterKind.SPATIAL

    def __repr__(self) -> str:
        tag = "r" if self.is_reduce else "s"
        return f"{self.name}[{tag}:{self.extent}]"


def spatial_axis(extent: int, name: str) -> IterVar:
    """Create a spatial iteration variable."""
    return IterVar(Var(name), extent, IterKind.SPATIAL)


def reduce_axis(extent: int, name: str) -> IterVar:
    """Create a reduction iteration variable."""
    return IterVar(Var(name), extent, IterKind.REDUCE)
