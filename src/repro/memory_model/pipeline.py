"""Per-pipeline-rank activation memory (Equation 5, Section 4.3,
Appendices B and C; Figure 9).

:func:`stage_memory` is the one statement of a rank's peak: Figure 1,
Figure 9, the recomputation planner and Appendix C's windows all read
its term groups.  1F1B keeps ``p - i`` microbatches in flight on stage
``i`` at peak; the interleaved schedule keeps ``2(p-i-1) + (m-1)p + 1``
*model chunks* in flight, each spanning ``L/(pm)`` layers (on stage 0
the paper's ``L (1 + (p-1)/(pm))`` layers' worth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import ExperimentConfig
from ..errors import ConfigError
from ..layers.transformer import Recompute
from .activations import RecomputeLike, per_layer_activation_bytes


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


@dataclass(frozen=True)
class StageMemory:
    """One pipeline rank's peak activation bytes (per GPU), by term group.

    ``layers`` is the in-flight microbatches' transformer layers
    (Equations 1-4; on stage 0, Equation 5).  ``embedding`` is Section
    4.3's embedding-dropout masks and ``head`` the last stage's final
    layer norm, output-layer input and fp32 logits.  ``transient`` is
    full recomputation's rebuilt layer: it peaks after the head is
    freed, so the two never add.  ``outputs`` is the stage-output
    tensors Appendix B deallocates, outside :attr:`total`.  The int64
    token ids (8 B per token) are left out.
    """

    layers: float
    embedding: float
    head: float
    transient: float
    outputs: float

    @property
    def total(self) -> float:
        return self.layers + (self.embedding + max(self.head, self.transient))


def stage_memory(config: ExperimentConfig, stage: int,
                 recompute: RecomputeLike,
                 sequence_parallel: bool) -> StageMemory:
    """Peak activation bytes of pipeline rank ``stage`` under ``config``'s
    schedule, ``recompute`` on every layer and the given layout."""
    model, par, train = config.model, config.parallel, config.training
    p, m, t = par.pipeline_parallel, par.interleave_stages, par.tensor_parallel
    n = config.num_microbatches
    s, b, h, v = (model.seq_length, train.micro_batch_size, model.hidden_size,
                  model.vocab_size)
    sp, sbh = sequence_parallel, s * b * h
    per_layer = per_layer_activation_bytes(model, b, t, sp, recompute)
    layers = (in_flight_microbatches(stage, p, n, m)
              * (model.num_layers / p) * per_layer)
    # One (sequence-sharded under SP) byte mask per microbatch holding the
    # embedding: p of them, or 2p once interleaving runs chunk 0 ahead.
    holders = min(n, 2 * p if m > 1 else p)
    embedding = holders * sbh / (t if sp else 1) if stage == 0 else 0.0
    head = 0.0
    if stage == p - 1:
        # Without SP the layer-norm and projection inputs are replicated.
        head = (4.0 * sbh / t * (1.0 + v / h) if sp
                else 4.0 * sbh + 4.0 * s * b * v / t)
    transient = 0.0
    if Recompute(recompute) == Recompute.FULL:
        # The rebuilt layer's stores; its checkpoint is already counted.
        transient = per_layer_activation_bytes(
            model, b, t, sp, Recompute.NONE) - per_layer
    # Appendix B: one full fp16 (s, b, h) output pinned per in-flight
    # microbatch -- sbhp elements, 2.73 GB on the 530B first stage.
    outputs = min(n, p - stage) * 2.0 * sbh
    return StageMemory(layers, embedding, head, transient, outputs)


@dataclass(frozen=True)
class PipelineMemoryProfile:
    """Figure 9's two series: bytes per pipeline rank, with and without
    output-tensor deallocation."""

    stages: List[int]
    optimized_bytes: List[float]
    unoptimized_bytes: List[float]

    def savings(self, stage: int) -> float:
        return self.unoptimized_bytes[stage] - self.optimized_bytes[stage]


def pipeline_memory_profile(config: ExperimentConfig,
                            sequence_parallel: bool) -> PipelineMemoryProfile:
    """Figure 9 for ``config`` (the paper uses the 530B model) under
    selective recomputation."""
    memory = [stage_memory(config, i, Recompute.SELECTIVE, sequence_parallel)
              for i in range(config.parallel.pipeline_parallel)]
    return PipelineMemoryProfile(
        stages=list(range(len(memory))),
        optimized_bytes=[mem.total for mem in memory],
        unoptimized_bytes=[mem.total + mem.outputs for mem in memory],
    )
