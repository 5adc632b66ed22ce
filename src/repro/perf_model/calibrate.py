"""Reproducible calibration of the kernel cost model.

The shipped defaults (GEMM efficiency curve, elementwise fusion factor,
NVLink collective bandwidth) were produced by a grid search of this form
against the paper's Table 4 22B baseline row (7.7 ms forward / 11.9 ms
backward) with the other present-work rows as a tie-breaker; several
knob combinations sit in a shallow optimum basin (tests assert the
shipped defaults land within a few percent of the grid optimum).  Re-run
after changing the op log's cost charges, or calibrate against a
different target machine's measurements:

    from repro.perf_model.calibrate import calibrate
    result = calibrate()          # paper targets
    print(result.cost_model)      # best-fit KernelCostModel
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..config import PAPER_CONFIGS, ModelConfig
from ..hardware import ClusterSpec, GPUSpec, LinkSpec, NodeSpec
from ..layers.transformer import Recompute
from .gpu import KernelCostModel
from .layer_timing import layer_times


@dataclass(frozen=True)
class CalibrationTarget:
    """One measured per-layer time to fit, in seconds.

    ``combined_only=True`` fits forward+backward as one number (used for
    targets backed out of end-to-end iteration times, where the split is
    unknown).
    """

    model: ModelConfig
    microbatch_size: int
    tensor_parallel: int
    sequence_parallel: bool
    recompute: Recompute
    forward: float
    backward: float
    weight: float = 1.0
    combined_only: bool = False


def paper_targets() -> Tuple[CalibrationTarget, ...]:
    """Table 4's baseline row (primary) and the present-work per-layer
    times implied by Table 5 (secondary, lower weight)."""
    from ..experiments import PAPER_TABLE4, PAPER_TABLE5  # they import perf_model

    forward_ms, backward_ms, _, _ = PAPER_TABLE4["Baseline no recompute"]
    targets = [
        CalibrationTarget(PAPER_CONFIGS["22B"].model, 4, 8, False,
                          Recompute.NONE, forward=forward_ms / 1e3,
                          backward=backward_ms / 1e3, weight=2.0),
    ]
    # Present-work per-layer combined times backed out of Table 5:
    # iteration / (n_mb * layers_per_rank * (1 + (p - 1) / (n_mb * v))).
    # Only the combined time is knowable: these fit fwd+bwd as one number.
    for name in ("175B", "530B", "1T"):
        cfg = PAPER_CONFIGS[name]
        p, v = cfg.parallel.pipeline_parallel, cfg.parallel.interleave_stages
        n = cfg.training.num_microbatches()
        combined = PAPER_TABLE5[name][1] / (
            n * cfg.model.num_layers / p * (1 + (p - 1) / (n * v)))
        fwd = combined * 7.2 / 20.3  # nominal split, unused for the error
        targets.append(CalibrationTarget(
            cfg.model, cfg.training.micro_batch_size, 8, True,
            Recompute.SELECTIVE, forward=fwd, backward=combined - fwd,
            weight=1.0, combined_only=True,
        ))
    return tuple(targets)


@dataclass
class CalibrationResult:
    gemm_efficiency: float
    gemm_half_sat_flops: float
    fusion_factor: float
    nvlink_bandwidth: float
    error: float
    per_target_error: Dict[str, float] = field(default_factory=dict)

    @property
    def cost_model(self) -> KernelCostModel:
        gpu = GPUSpec(gemm_efficiency=self.gemm_efficiency,
                      gemm_half_sat_flops=self.gemm_half_sat_flops)
        node = NodeSpec(gpu=gpu, intra_node_link=LinkSpec(
            "NVLink (calibrated)", self.nvlink_bandwidth, 7e-6))
        return KernelCostModel(gpu=gpu, cluster=ClusterSpec(node=node),
                               fusion_factor=self.fusion_factor)


def _target_error(cost: KernelCostModel, target: CalibrationTarget) -> float:
    lt = layer_times(target.model, target.microbatch_size,
                     target.tensor_parallel,
                     sequence_parallel=target.sequence_parallel,
                     recompute=target.recompute, cost=cost)
    if target.combined_only:
        want = target.forward + target.backward
        return abs(lt.combined - want) / want
    return (abs(lt.forward - target.forward) / target.forward
            + abs(lt.backward_total - target.backward) / target.backward)


def error_of(cost: KernelCostModel) -> float:
    """Weighted fit error of an arbitrary cost model against the paper's
    targets."""
    return sum(_target_error(cost, t) * t.weight for t in paper_targets())


def calibrate(
    targets: Optional[Sequence[CalibrationTarget]] = None,
    gemm_efficiencies: Sequence[float] = (0.62, 0.66, 0.70, 0.74),
    half_sats: Sequence[float] = (1.0e10, 2.0e10, 3.0e10),
    fusion_factors: Sequence[float] = (0.45, 0.55, 0.65),
    nvlink_bandwidths: Sequence[float] = (250e9, 300e9),
) -> CalibrationResult:
    """Grid-search the cost-model knobs against measured layer times.

    Returns the weighted-L1-best combination.  Deterministic and pure —
    re-running with the shipped grids reproduces the library defaults.
    """
    targets = tuple(targets) if targets is not None else paper_targets()
    best: Optional[CalibrationResult] = None
    for eff, half, fusion, nvl in itertools.product(
            gemm_efficiencies, half_sats, fusion_factors, nvlink_bandwidths):
        gpu = GPUSpec(gemm_efficiency=eff, gemm_half_sat_flops=half)
        node = NodeSpec(gpu=gpu, intra_node_link=LinkSpec("NVLink", nvl, 7e-6))
        cost = KernelCostModel(gpu=gpu, cluster=ClusterSpec(node=node),
                               fusion_factor=fusion)
        per_target = {
            f"{t.model.name or 'model'}/{t.recompute.value}": _target_error(cost, t)
            for t in targets
        }
        error = sum(e * t.weight for e, t in zip(per_target.values(), targets))
        if best is None or error < best.error:
            best = CalibrationResult(
                gemm_efficiency=eff, gemm_half_sat_flops=half,
                fusion_factor=fusion, nvlink_bandwidth=nvl,
                error=error, per_target_error=per_target,
            )
    assert best is not None
    return best
