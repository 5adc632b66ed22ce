"""Serving-side latency and goodput estimates.

Prices the engine's prefill/decode steps with the existing
:class:`~repro.perf_model.KernelCostModel` (GEMM roofline + launch
overheads) and :class:`~repro.comm.cost_model.CollectiveCostModel`
(alpha-beta ring all-reduce), mirroring the ops the engine actually
executes: per-layer QKV/WO/FC1/FC2 GEMMs on ``1/t`` shards, the
one-query attention streaming the cached K/V, the vocab projection, and
``2L + 1`` tensor-parallel all-reduces per step.

Also provides the *static batching* baseline the bench gate compares the
continuous scheduler against: FCFS fixed batches at the same KV-block
budget, worst-case block reservation, every batch running until its
longest member finishes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..config import ModelConfig
from ..errors import ConfigError, PlanningError
from ..perf_model import KernelCostModel

#: fp16 wire/storage width used for byte estimates, matching the
#: tracer's pricing convention.
_WIRE_BYTES = 2

#: Host link of a KV swap: a PCIe 4.0 x16 link's ~32 GB/s and a few
#: microseconds per transfer
SWAP_BANDWIDTH = 32.0e9
SWAP_LATENCY = 5e-6


class ServingPerfModel:
    """Analytic step times for one model replica under t-way TP."""

    def __init__(self, config: ModelConfig, tensor_parallel: int = 1):
        if config.hidden_size % tensor_parallel != 0:
            raise ConfigError("hidden_size must divide by tensor_parallel")
        self.config = config
        self.t = tensor_parallel
        self.cost = KernelCostModel()
        self.h_local = config.hidden_size // tensor_parallel

    def decode_step_time(self, batch: int,
                         context_lengths: Sequence[int]) -> float:
        """One engine decode step: ``batch`` single-token queries whose
        attention spans ``context_lengths`` cached positions each."""
        cfg, t, w = self.config, self.t, _WIRE_BYTES
        h, v, layers = cfg.hidden_size, cfg.vocab_size, cfg.num_layers
        b = batch
        gemms = (
            (2.0 * b * h * (3 * h // t), w * (h * 3 * h // t + b * h)),   # qkv
            (2.0 * b * (h // t) * h, w * ((h // t) * h + b * h)),         # wo
            (2.0 * b * h * (4 * h // t), w * (h * 4 * h // t + b * h)),   # fc1
            (2.0 * b * (4 * h // t) * h, w * ((4 * h // t) * h + b * h)), # fc2
        )
        layer_time = sum(self.cost.gemm_time(f, m) for f, m in gemms)
        # one-query attention: 4*c*h_local flops per request, streaming
        # the 2*c*h_local cached K/V elements.  A paged-attention kernel
        # serves the whole ragged batch in ONE launch, so the per-request
        # work is summed into a single gemm_time call — this is what makes
        # batched decode pay one launch per step rather than per token.
        # The executed engine does the same: one F.decode_attention per
        # layer per step, whose op record carries these flops and bytes.
        total_context = float(sum(context_lengths))
        layer_time += self.cost.gemm_time(
            4.0 * total_context * self.h_local,
            w * 2 * total_context * self.h_local)
        # layer-norms + residual adds + gelu traffic
        layer_time += self.cost.elementwise_time(w * b * h * 8)
        step = layers * layer_time
        step += self.cost.gemm_time(2.0 * b * h * (v // t),
                                    w * (h * v // t + b * v // t))
        if t > 1:
            all_reduce = self.cost.comm.all_reduce_time(b * h * w, t)
            step += (2 * layers + 1) * all_reduce
        return step

    def prefill_time(self, num_tokens: int) -> float:
        """Per-token prefill (how the engine actually runs a prompt)."""
        return sum(self.decode_step_time(1, [i + 1]) for i in range(num_tokens))

    def swap_time(self, nbytes: float) -> float:
        """One direction of a KV swap over the host link."""
        return SWAP_LATENCY + nbytes / SWAP_BANDWIDTH


def simulate_static_batching(specs, perf: ServingPerfModel, block_size: int,
                             num_blocks: int, max_batch: int) -> Dict[str, float]:
    """Static-batching throughput at the same KV budget.

    FCFS batches of up to ``max_batch`` requests, each reserving its
    *worst-case* blocks (``ceil((prompt + max_new) / block_size)`` — a
    static scheduler cannot reclaim mid-flight); the batch starts once
    every member has arrived and runs until **all** members finish, so
    short requests idle behind the longest one and later arrivals wait
    for the whole batch.  These are exactly the two inefficiencies
    continuous batching removes.
    """
    clock = 0.0
    total_tokens = 0
    i = 0
    ordered = sorted(specs, key=lambda s: s.arrival_s)
    while i < len(ordered):
        batch: List = []
        blocks = 0
        while i < len(ordered) and len(batch) < max_batch:
            spec = ordered[i]
            need = -(-(len(spec.prompt) + spec.max_new_tokens) // block_size)
            if blocks + need > num_blocks:
                break
            blocks += need
            batch.append(spec)
            i += 1
        if not batch:
            raise PlanningError(
                "static batching cannot fit a single request in the KV pool")
        clock = max(clock, max(s.arrival_s for s in batch))
        for spec in batch:
            clock += perf.prefill_time(len(spec.prompt))
        steps = max(s.max_new_tokens for s in batch)
        width = len(batch)
        for step in range(steps):
            contexts = [len(s.prompt) + min(step, s.max_new_tokens) + 1
                        for s in batch]
            clock += perf.decode_step_time(width, contexts)
        total_tokens += sum(s.max_new_tokens for s in batch)
    return {
        "tokens_generated": float(total_tokens),
        "elapsed_s": clock,
        "tokens_per_s": total_tokens / clock if clock > 0 else 0.0,
    }
