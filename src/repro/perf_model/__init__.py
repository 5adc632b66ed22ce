"""Roofline timing model: per-layer (Table 4, Figure 8) and end-to-end
iteration time (Table 5)."""

from .gpu import KernelCostModel
from .iteration import iteration_time, table5_row
from .layer_timing import (
    figure8,
    layer_oplog,
    layer_times,
    table4,
)

__all__ = [
    "KernelCostModel", "figure8", "iteration_time",
    "layer_oplog", "layer_times", "table4",
    "table5_row",
]
