"""FLOP model (paper Appendix A, Equations 7-9).

Only GEMMs are counted, following Narayanan et al. [13].  Per transformer
layer and microbatch ``B``:

* QKV transformations: ``6Bsh^2``; attention scores: ``2Bs^2h``;
  attention over values: ``2Bs^2h``; output projection: ``2Bsh^2``;
* MLP: ``16Bsh^2``; LM head logits: ``2Bshv``;
* backward doubles everything.

.. note:: **Paper Equation 8 discrepancy.**  Appendix A states the extra
   selective-recompute work is ``4Bs^2h`` per layer (one forward re-run of
   the two attention GEMMs), which yields hardware FLOPs of
   ``72BLsh^2 (1 + 2s/9h + v/12hL)`` — yet Equation 8 prints ``s/3h`` and
   Equation 9 concludes ``hardware/model ≈ 1 + s/6h`` (2.7% for GPT-3,
   1.6% for MT-NLG, the Section 5 numbers).  ``1 + s/6h`` is the ratio of
   the extra *forward* attention FLOPs to the total *forward* FLOPs, not of
   hardware to model FLOPs.  We implement both: ``paper_mode=True``
   (default) reproduces the published Eq. 8/9 numbers; ``paper_mode=False``
   counts strictly (``+4BLs^2h``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ExperimentConfig, ModelConfig
from ..layers.transformer import Recompute


def forward_flops_per_layer(model: ModelConfig, batch: int) -> float:
    """GEMM FLOPs of one transformer layer's forward pass: 24Bsh^2 + 4Bs^2h."""
    s, h = model.seq_length, model.hidden_size
    return 24.0 * batch * s * h * h + 4.0 * batch * s * s * h


def attention_core_forward_flops_per_layer(model: ModelConfig, batch: int) -> float:
    """The recomputed part under selective recomputation: QK^T + PV = 4Bs^2h."""
    s, h = model.seq_length, model.hidden_size
    return 4.0 * batch * s * s * h


def logits_forward_flops(model: ModelConfig, batch: int) -> float:
    """LM-head projection: 2Bshv."""
    return 2.0 * batch * model.seq_length * model.hidden_size * model.vocab_size


def model_flops_per_iteration(model: ModelConfig, batch: int) -> float:
    """Equation 7: ``72 B L s h^2 (1 + s/6h + v/12hL)``.

    Exactly ``3 x`` the forward GEMMs (forward + double-cost backward),
    implementation- and hardware-independent.
    """
    fwd = model.num_layers * forward_flops_per_layer(model, batch)
    fwd += logits_forward_flops(model, batch)
    return 3.0 * fwd


def hardware_flops_per_iteration(
    model: ModelConfig, batch: int,
    recompute: Recompute = Recompute.SELECTIVE,
    paper_mode: bool = True,
) -> float:
    """FLOPs actually executed per iteration, including recomputation.

    * ``Recompute.NONE`` — equals model FLOPs.
    * ``Recompute.SELECTIVE`` — Equation 8.  ``paper_mode=True`` uses the
      printed ``72BLsh^2(1 + s/3h + v/12hL)``; ``paper_mode=False`` adds
      the strictly-counted ``4BLs^2h``.
    * ``Recompute.FULL`` — one extra full forward pass of every layer
      (the logits layer is not checkpointed).
    """
    recompute = Recompute(recompute)
    base = model_flops_per_iteration(model, batch)
    s, h, L = model.seq_length, model.hidden_size, model.num_layers
    if recompute == Recompute.NONE:
        return base
    if recompute == Recompute.SELECTIVE:
        if paper_mode:
            v = model.vocab_size
            return 72.0 * batch * L * s * h * h * (1 + s / (3 * h) + v / (12 * h * L))
        return base + L * attention_core_forward_flops_per_layer(model, batch)
    return base + L * forward_flops_per_layer(model, batch)


def hardware_to_model_ratio(model: ModelConfig) -> float:
    """Equation 9 (``≈ 1 + s/6h`` for selective recompute in paper mode)."""
    return (
        hardware_flops_per_iteration(model, 1, Recompute.SELECTIVE)
        / model_flops_per_iteration(model, 1)
    )


def selective_recompute_flops_overhead(model: ModelConfig) -> float:
    """Section 5's "2.7% and 1.6% FLOPs overhead": extra forward attention
    FLOPs relative to forward FLOPs, ``≈ s/6h``."""
    extra = model.num_layers * attention_core_forward_flops_per_layer(model, 1)
    fwd = (model.num_layers * forward_flops_per_layer(model, 1)
           + logits_forward_flops(model, 1))
    return extra / fwd


def attention_memory_factor(model: ModelConfig) -> float:
    """Section 5's ``5as/h`` — the attention-core share driver (80 for
    GPT-3, 64 for MT-NLG)."""
    return 5.0 * model.num_heads * model.seq_length / model.hidden_size


@dataclass(frozen=True)
class Utilization:
    """Model/hardware FLOPs utilization for one measured iteration."""

    model_flops: float
    hardware_flops: float
    iteration_time: float
    peak_flops_per_gpu: float
    num_gpus: int

    @property
    def mfu(self) -> float:
        """Model FLOPs Utilization (Section 6.3)."""
        return self.model_flops / self.iteration_time / (self.peak_flops_per_gpu * self.num_gpus)

    @property
    def hfu(self) -> float:
        """Hardware FLOPs Utilization (Section 6.3)."""
        return self.hardware_flops / self.iteration_time / (self.peak_flops_per_gpu * self.num_gpus)


def utilization(config: ExperimentConfig, iteration_time: float,
                recompute: Recompute = Recompute.SELECTIVE,
                peak_flops_per_gpu: float = 312e12,
                paper_mode: bool = True) -> Utilization:
    """MFU/HFU for one iteration of ``config`` (global batch)."""
    batch = config.training.global_batch_size
    return Utilization(
        model_flops=model_flops_per_iteration(config.model, batch),
        hardware_flops=hardware_flops_per_iteration(config.model, batch,
                                                    recompute, paper_mode=paper_mode),
        iteration_time=iteration_time,
        peak_flops_per_gpu=peak_flops_per_gpu,
        num_gpus=config.num_gpus,
    )
