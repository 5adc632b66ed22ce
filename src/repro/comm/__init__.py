"""Simulated NCCL-style communication: groups, collectives, cost model."""

from .collectives import (
    all_gather,
    all_reduce,
    all_to_all,
    broadcast,
    fault_scope,
    gather_concat,
    reduce_scatter,
    scatter,
)
from .cost_model import CollectiveCostModel
from .process_group import ProcessGroup

__all__ = [
    "CollectiveCostModel", "ProcessGroup",
    "all_gather", "all_reduce", "all_to_all", "broadcast", "fault_scope",
    "gather_concat", "reduce_scatter", "scatter",
]
