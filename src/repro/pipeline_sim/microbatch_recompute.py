"""Microbatch-level activation recomputation (paper Appendix C).

Instead of checkpointing every microbatch, each pipeline stage stores
*all* activations for as many of its in-flight microbatches as device
memory allows and checkpoints only the rest.  Because a freed slot is
re-used by the next incoming microbatch (the "moving window" of Figure
10.b), a stage with ``k`` full slots out of ``r`` in-flight microbatches
skips recomputation for a ``k/r`` fraction of its backward passes.

Later stages have smaller windows (``max(0, p - S)`` outstanding
back-propagations), so many of them need no recomputation at all —
matching the paper's observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import ExperimentConfig
from ..errors import PlanningError
from ..layers.transformer import Recompute
from ..memory_model.pipeline import in_flight_microbatches, stage_memory
from ..memory_model.weights import weight_and_optimizer_bytes
from ..perf_model.iteration import _iterations
from ..planner.planner import RESERVE_BYTES

#: Appendix C keeps full activations on top of selective recomputation,
#: with sequence parallelism on (the paper's Table 5 configurations)
BASE_RECOMPUTE = Recompute.SELECTIVE


@dataclass(frozen=True)
class StageWindow:
    """Recompute plan for one pipeline stage."""

    stage: int
    in_flight: float
    full_slots: float          # microbatches stored without checkpointing
    bytes_used: float

    @property
    def full_fraction(self) -> float:
        return self.full_slots / self.in_flight if self.in_flight else 1.0

    @property
    def needs_recompute(self) -> bool:
        return self.full_slots < self.in_flight


@dataclass(frozen=True)
class MicrobatchRecomputePlan:
    """Per-stage full-storage windows under a device memory budget."""

    stages: List[StageWindow]
    base_recompute: Recompute

    @property
    def mean_full_fraction(self) -> float:
        return sum(s.full_fraction for s in self.stages) / len(self.stages)

    def stage(self, index: int) -> StageWindow:
        return self.stages[index]


def plan_microbatch_recompute(
    config: ExperimentConfig,
    device_memory_bytes: float = 80 * 1024**3,
) -> MicrobatchRecomputePlan:
    """Choose, per stage, how many in-flight microbatches store full
    activations.

    The budget is device memory minus weights/optimizer state minus a
    fragmentation reserve.  Slots are greedy: every stage independently
    maximizes its full-storage count (stages do not contend for memory —
    each GPU has its own).
    """
    par = config.parallel
    static = weight_and_optimizer_bytes(config) + RESERVE_BYTES
    budget = device_memory_bytes - static
    if budget <= 0:
        raise PlanningError(
            f"weights/optimizer ({static/2**30:.1f} GiB) exceed device memory"
        )
    stages = []
    for stage in range(par.pipeline_parallel):
        r = in_flight_microbatches(stage, par.pipeline_parallel,
                                   config.num_microbatches, par.interleave_stages)
        all_ckpt = stage_memory(config, stage, BASE_RECOMPUTE, True).layers
        all_full = stage_memory(config, stage, Recompute.NONE, True).layers
        # Interleaving inflates stored layers-worth; spread it per microbatch.
        extra_per_mb = (all_full - all_ckpt) / r
        if all_ckpt > budget:
            k = 0.0  # cannot even upgrade one microbatch
        else:
            k = min(r, (budget - all_ckpt) / extra_per_mb) if extra_per_mb > 0 else r
            if k < r:
                k = float(int(k))  # whole microbatches; k == r stays exact
                                   # (r is fractional under interleaving)
        stages.append(StageWindow(
            stage=stage, in_flight=r, full_slots=k,
            bytes_used=all_ckpt + k * extra_per_mb,
        ))
    return MicrobatchRecomputePlan(stages=stages, base_recompute=BASE_RECOMPUTE)


def baseline_and_plan_times(config: ExperimentConfig,
                            plan: MicrobatchRecomputePlan):
    """The Appendix C before/after pair of
    :class:`~repro.perf_model.iteration.IterationResult`:
    ``iteration_time(config)``, and the iteration when each stage skips
    recomputation for its ``full_fraction`` of microbatches (mean-field:
    the stage's backward duration shrinks proportionally), so the MFU
    delta (the paper's +0.7% / +0.4%) reads directly.  The two differ
    only in their backward durations, so they are priced over one
    schedule and one layer / embedding / head trace."""
    return tuple(_iterations(config, [
        (True, plan.base_recompute, [0.0] * len(plan.stages)),
        (True, plan.base_recompute,
         [stage.full_fraction for stage in plan.stages])], None))
