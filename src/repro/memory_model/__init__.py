"""Closed-form memory model (paper Section 4 + Appendices B-C)."""

from .activations import (
    memory_fraction_of_tp_baseline,
    per_layer_activation_bytes,
    per_layer_breakdown,
    per_layer_term_groups,
    table2,
    term_group_categories,
)
from .kv import (
    kv_cache_bytes,
)
from .pipeline import (
    in_flight_microbatches,
    pipeline_memory_profile,
    stage_memory,
)
from .weights import (
    figure1_budget,
    parameter_count,
    weight_and_optimizer_bytes,
)

__all__ = [
    "figure1_budget", "in_flight_microbatches",
    "kv_cache_bytes", "memory_fraction_of_tp_baseline",
    "parameter_count",
    "per_layer_activation_bytes", "per_layer_breakdown",
    "per_layer_term_groups", "pipeline_memory_profile",
    "stage_memory", "table2", "term_group_categories",
    "weight_and_optimizer_bytes",
]
