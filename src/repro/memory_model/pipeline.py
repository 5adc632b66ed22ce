"""Per-pipeline-rank activation memory (Appendices B and C; Figure 9).

1F1B keeps ``p - i`` microbatches in flight on stage ``i`` at peak; the
interleaved schedule keeps ``2(p-i-1) + (m-1)p + 1`` *model chunks* in
flight, each spanning ``L/(pm)`` layers (this reduces to the paper's
``L (1 + (p-1)/(pm))`` layers' worth on stage 0).

Each in-flight microbatch additionally pins its stage-output tensor
(``2sbh`` bytes) until it is consumed; Appendix B's optimization
deallocates it right after the forward pass because the data is redundant
with the next stage's input, saving ``sbh`` *elements* (``2sbh`` bytes)
per in-flight microbatch — ``sbhp`` elements on stage 0, the paper's
2.73 GB for the 530B model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import ExperimentConfig
from ..errors import ConfigError
from ..layers.transformer import Recompute
from .activations import per_layer_activation_bytes


def in_flight_microbatches(stage: int, pipeline_parallel: int,
                           num_microbatches: int,
                           interleave_stages: int = 1) -> float:
    """Peak number of microbatches whose activations stage ``stage`` holds.

    For the interleaved schedule this is fractional: chunks in flight
    divided by ``m`` (each chunk holds ``1/m`` of the stage's layers).
    """
    p, m = pipeline_parallel, interleave_stages
    if not (0 <= stage < p):
        raise ConfigError(f"stage {stage} out of range for p={p}")
    if m == 1:
        return float(min(num_microbatches, p - stage))
    chunks = 2 * (p - stage - 1) + (m - 1) * p + 1
    return min(float(num_microbatches), chunks / m)


def stage_activation_bytes(
    config: ExperimentConfig,
    stage: int,
    sequence_parallel: Optional[bool] = None,
    deallocate_output_tensor: bool = True,
) -> float:
    """Peak activation bytes on pipeline rank ``stage`` (a Figure 9 point),
    under selective recomputation as in the paper's Figure 9.

    Includes the per-layer activations of every in-flight microbatch, the
    stage-output tensors (unless deallocated per Appendix B), and stage
    0's embedding-dropout spike (Section 4.3's ``sbhp/t``).
    """
    model, par, train = config.model, config.parallel, config.training
    sp = par.sequence_parallel if sequence_parallel is None else sequence_parallel
    n_mb = config.num_microbatches
    s, b, h, t = model.seq_length, train.micro_batch_size, model.hidden_size, par.tensor_parallel

    r_layers = in_flight_microbatches(stage, par.pipeline_parallel, n_mb,
                                      par.interleave_stages)
    # Output tensors and the embedding spike are pinned per *microbatch*
    # regardless of interleaving: "r ... peaking at r = p on the first
    # pipeline stage" (Appendix B).
    r_mb = min(n_mb, par.pipeline_parallel - stage)
    layers_per_stage = model.num_layers / par.pipeline_parallel
    per_layer = per_layer_activation_bytes(
        model, b, tensor_parallel=t, sequence_parallel=sp,
        recompute=Recompute.SELECTIVE,
    )
    total = r_layers * layers_per_stage * per_layer
    if not deallocate_output_tensor:
        # One full (s, b, h) fp16 output tensor pinned per in-flight
        # microbatch: sbh elements = 2sbh bytes each (Appendix B's sbhp
        # elements = 2.73 GB on the 530B first stage).
        total += r_mb * 2.0 * s * b * h
    if stage == 0:
        # Embedding dropout mask per in-flight microbatch (1 byte/elem,
        # sequence-sharded under SP) — Section 4.3's sbhp/t.
        total += r_mb * s * b * h / (t if sp else 1)
    return total


@dataclass(frozen=True)
class PipelineMemoryProfile:
    """Figure 9's two series: bytes per pipeline rank, with and without
    output-tensor deallocation."""

    stages: List[int]
    optimized_bytes: List[float]
    unoptimized_bytes: List[float]

    def savings(self, stage: int) -> float:
        return self.unoptimized_bytes[stage] - self.optimized_bytes[stage]


def pipeline_memory_profile(
    config: ExperimentConfig,
    sequence_parallel: Optional[bool] = None,
) -> PipelineMemoryProfile:
    """Compute Figure 9 for ``config`` (the paper uses the 530B model)."""
    p = config.parallel.pipeline_parallel
    stages = list(range(p))
    return PipelineMemoryProfile(
        stages=stages,
        optimized_bytes=[
            stage_activation_bytes(config, i,
                                   sequence_parallel=sequence_parallel,
                                   deallocate_output_tensor=True)
            for i in stages
        ],
        unoptimized_bytes=[
            stage_activation_bytes(config, i,
                                   sequence_parallel=sequence_parallel,
                                   deallocate_output_tensor=False)
            for i in stages
        ],
    )


def microbatch_recompute_window(stage: int, pipeline_parallel: int) -> int:
    """Appendix C: outstanding back-propagation steps at stage ``S`` is
    ``max(0, p - S)`` — the window within which some microbatches can keep
    all activations stored."""
    if not (0 <= stage < pipeline_parallel):
        raise ConfigError(f"stage {stage} out of range")
    return max(0, pipeline_parallel - stage)
