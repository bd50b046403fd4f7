"""Schedule optimisations applied on top of a physical mapping.

Implements the optimisation set of paper Table 3a (tile / fuse / bind /
parallel / cache / unroll / vectorize) over the macro loop nest produced
by the physical mapping, plus the joint mapping x schedule search space
sampled by the explorer.
"""

from repro.schedule.schedule import Schedule, DimSplit
from repro.schedule.lowering import ScheduledMapping, lower_schedule, macro_dims
from repro.schedule.features import (
    BatchQuantities,
    MappingTable,
    ScheduleBatch,
    derive_batch,
    encode_rows,
)
from repro.schedule.space import ScheduleSpace, default_rows, default_schedule

__all__ = [
    "BatchQuantities",
    "DimSplit",
    "MappingTable",
    "Schedule",
    "ScheduleBatch",
    "ScheduleSpace",
    "ScheduledMapping",
    "default_rows",
    "default_schedule",
    "derive_batch",
    "encode_rows",
    "lower_schedule",
    "macro_dims",
]
