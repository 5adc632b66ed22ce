"""Parameter, gradient and optimizer-state memory (paper Figure 1).

Mixed-precision Adam training à la Megatron-LM keeps, per parameter:

* fp16 weight (2 bytes) and fp16 gradient (2 bytes),
* fp32 master weight (4 bytes),
* fp32 Adam first and second moments (4 + 4 bytes),

i.e. 16 bytes/parameter by default (``BYTES_PER_PARAM_MIXED_PRECISION``).
Model parallelism divides the parameters across the ``t * p`` model-
parallel ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ExperimentConfig, ModelConfig

#: fp16 param + fp16 grad + fp32 master + fp32 Adam m + fp32 Adam v.
BYTES_PER_PARAM_MIXED_PRECISION = 16

#: The optimizer-state portion of the above (master weight + both Adam
#: moments) — what Megatron's distributed optimizer / ZeRO stage 1 shards
#: across data-parallel replicas.
OPTIMIZER_STATE_BYTES_PER_PARAM = 12


def parameter_count(model: ModelConfig) -> int:
    """Total trainable parameters (embeddings tied per paper Section 3)."""
    return model.parameter_count(include_embeddings=True)


def parameters_per_rank(config: ExperimentConfig) -> float:
    """Parameters held by one GPU under ``t``-way TP and ``p``-way PP.

    An approximation (the embedding-holding stages carry slightly more);
    good to <1% for the paper's configurations.
    """
    return parameter_count(config.model) / config.parallel.model_parallel_size


def weight_and_optimizer_bytes(
    config: ExperimentConfig,
    distributed_optimizer: bool = False,
) -> float:
    """Per-rank bytes for parameters + gradients + optimizer state.

    ``distributed_optimizer=True`` models Megatron's distributed optimizer
    (ZeRO stage 1, the Related-Work family the paper calls complementary):
    the 12 B/param of fp32 master weights and Adam moments are sharded
    across the ``data_parallel`` replicas, leaving only the fp16 weight and
    gradient resident per rank plus a 1/dp share of the state.
    """
    per_param = float(BYTES_PER_PARAM_MIXED_PRECISION)
    if distributed_optimizer:
        dp = config.parallel.data_parallel
        state = OPTIMIZER_STATE_BYTES_PER_PARAM
        per_param = (per_param - state) + state / dp
    return parameters_per_rank(config) * per_param


@dataclass(frozen=True)
class MemoryBudget:
    """Per-GPU memory split for one configuration (a Figure 1 bar)."""

    name: str
    weights_and_optimizer_bytes: float
    activation_bytes: float
    device_capacity_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.weights_and_optimizer_bytes + self.activation_bytes

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.device_capacity_bytes


#: Figure 1's line: one 80 GB A100
DEVICE_CAPACITY_BYTES = 80 * 1024**3


def figure1_budget(
    config: ExperimentConfig,
    recompute="none",
    sequence_parallel: bool = False,
) -> MemoryBudget:
    """One bar of Figure 1: weights+optimizer vs activation memory against
    the 80 GB A100 line."""
    from .pipeline import stage_memory

    return MemoryBudget(
        name=config.model.name or "model",
        weights_and_optimizer_bytes=weight_and_optimizer_bytes(config),
        activation_bytes=stage_memory(
            config, 0, recompute, sequence_parallel).layers,
        device_capacity_bytes=DEVICE_CAPACITY_BYTES,
    )
