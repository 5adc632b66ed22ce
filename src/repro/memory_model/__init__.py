"""Closed-form memory model (paper Section 4 + Appendices B-C)."""

from .activations import (
    first_stage_layers_worth,
    input_output_extras_bytes,
    interleave_memory_factor,
    memory_fraction_of_tp_baseline,
    per_layer_activation_bytes,
    per_layer_breakdown,
    per_layer_term_groups,
    table2,
    term_group_categories,
    total_activation_bytes,
)
from .kv import (
    kv_cache_bytes,
)
from .pipeline import (
    in_flight_microbatches,
    microbatch_recompute_window,
    pipeline_memory_profile,
    stage_activation_bytes,
)
from .weights import (
    figure1_budget,
    parameter_count,
    weight_and_optimizer_bytes,
)

__all__ = [
    "figure1_budget", "first_stage_layers_worth",
    "in_flight_microbatches", "input_output_extras_bytes",
    "interleave_memory_factor",
    "kv_cache_bytes", "memory_fraction_of_tp_baseline",
    "microbatch_recompute_window", "parameter_count",
    "per_layer_activation_bytes", "per_layer_breakdown",
    "per_layer_term_groups", "pipeline_memory_profile",
    "stage_activation_bytes", "table2", "term_group_categories",
    "total_activation_bytes", "weight_and_optimizer_bytes",
]
