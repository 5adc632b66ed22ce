"""Recompute/communication overlap for context-parallel layers.

Checkpointed long-context layers re-issue their re-shard collectives
(Ulysses all-to-alls, ring P2P hops) while *recomputing* the segment
during backward.  Those replayed transfers have no consumer until the
recomputation reaches the attention core, so they can stay in flight
under the recompute kernels (arXiv 2406.08756): per checkpoint segment
the device pays ``max(recompute, comm)`` instead of ``recompute + comm``
(:func:`~repro.perf_model.gpu.exposed_time` with the recompute as cover).

This module is the analytic half of that scheduler; the executable half
is :func:`repro.longctx.recompute_overlap_scope`, which marks
recompute-phase collectives so
:func:`repro.observability.attribute` books them into the
``overlapped_comm`` bucket instead of ``exposed_comm``.  The two halves
are reconciled in the ``longctx`` bench preset: the traced
exposed-bucket reduction must meet the analytic floor.

Forward-pass and backward-proper collectives produce values consumed
immediately, so they remain exposed under either accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..comm.cost_model import CollectiveCostModel
from ..config import ModelConfig
from ..errors import PlanningError
from ..layers.transformer import Recompute
from ..longctx.layout import LAYOUTS
from ..perf_model.gpu import exposed_time


@dataclass(frozen=True)
class OverlapSegment:
    """One checkpoint segment: recompute work and its in-flight comm."""

    label: str
    recompute_s: float   # seconds of recompute kernels in the segment
    comm_s: float        # seconds of collectives replayed by the segment

    @property
    def exposed_s(self) -> float:
        return exposed_time(self.comm_s, self.recompute_s)

    @property
    def hidden_s(self) -> float:
        return min(self.comm_s, self.recompute_s)


@dataclass(frozen=True)
class OverlapResult:
    """Serial-vs-overlapped accounting over a sequence of segments."""

    segments: Tuple[OverlapSegment, ...]
    always_exposed_s: float   # fwd + bwd-proper collectives (never hidden)

    @property
    def recompute_s(self) -> float:
        return sum(s.recompute_s for s in self.segments)

    @property
    def overlappable_comm_s(self) -> float:
        return sum(s.comm_s for s in self.segments)

    @property
    def hidden_comm_s(self) -> float:
        return sum(s.hidden_s for s in self.segments)

    @property
    def exposed_serial_s(self) -> float:
        """Exposed comm when every transfer blocks (overlap off)."""
        return self.always_exposed_s + self.overlappable_comm_s

    @property
    def exposed_overlapped_s(self) -> float:
        """Exposed comm once recompute hides what it can (overlap on)."""
        return self.always_exposed_s + sum(s.exposed_s for s in self.segments)

    @property
    def serial_time_s(self) -> float:
        return self.exposed_serial_s + self.recompute_s

    @property
    def overlapped_time_s(self) -> float:
        return (self.always_exposed_s
                + sum(max(s.recompute_s, s.comm_s) for s in self.segments))

    @property
    def exposed_reduction(self) -> float:
        """exposed(overlap off) / exposed(overlap on); ``inf`` if fully hidden."""
        if self.exposed_overlapped_s == 0.0:
            return float("inf") if self.exposed_serial_s > 0.0 else 1.0
        return self.exposed_serial_s / self.exposed_overlapped_s

    @property
    def speedup(self) -> float:
        if self.overlapped_time_s == 0.0:
            return 1.0
        return self.serial_time_s / self.overlapped_time_s


def schedule_overlap(segments: Sequence[OverlapSegment],
                     always_exposed_s: float = 0.0) -> OverlapResult:
    """Greedy per-segment overlap: each segment's in-flight comm hides
    under that segment's recompute, independently (transfers are issued
    at segment entry and joined at segment exit, so nothing spans a
    checkpoint boundary)."""
    for seg in segments:
        if seg.recompute_s < 0 or seg.comm_s < 0:
            raise PlanningError(f"negative time in segment {seg.label!r}")
    if always_exposed_s < 0:
        raise PlanningError("negative always_exposed_s")
    return OverlapResult(segments=tuple(segments),
                         always_exposed_s=always_exposed_s)


def longctx_overlap_segments(
    model: ModelConfig,
    microbatch_size: int,
    context_parallel: int,
    layout: str = "ulysses",
    recompute: Recompute = Recompute.FULL,
) -> Tuple[List[OverlapSegment], float]:
    """Build per-layer overlap segments for a context-parallel model.

    Returns ``(segments, always_exposed_s)``: one segment per
    checkpointed layer pairing its recompute seconds (serial per-layer
    recompute work divided across the ``p`` sequence shards) with the
    collective seconds its replay keeps in flight, plus the
    forward/backward-proper collective seconds that stay exposed.  The
    layout's class states the calls and their price; the replay
    re-issues the forward calls inside the checkpoint segment — the
    calls :func:`~repro.longctx.recompute_overlap_scope` marks
    overlapped.
    """
    from ..perf_model.layer_timing import layer_times

    recompute = Recompute(recompute)
    cls = LAYOUTS[layout]
    p = context_parallel
    if p < 1:
        raise PlanningError(f"context_parallel must be >= 1, got {p}")
    replay_calls = 0 if recompute is Recompute.NONE else cls.forward_calls(p)
    call_s = cls.call_seconds(CollectiveCostModel(),
                              cls.shard_bytes(model, microbatch_size, p), p)

    lt = layer_times(model, microbatch_size, tensor_parallel=1,
                     recompute=recompute)
    recompute_s = lt.recompute / p

    segments = [
        OverlapSegment(label=f"layer{i}", recompute_s=recompute_s,
                       comm_s=replay_calls * call_s)
        for i in range(model.num_layers)
    ]
    always_exposed = cls.calls_per_layer(p) * call_s * model.num_layers
    return segments, always_exposed


def longctx_overlap_report(
    model: ModelConfig,
    microbatch_size: int,
    context_parallel: int,
    layout: str = "ulysses",
    recompute: Recompute = Recompute.FULL,
) -> OverlapResult:
    """End-to-end analytic overlap result for one model/layout cell."""
    segments, always_exposed = longctx_overlap_segments(
        model, microbatch_size, context_parallel, layout, recompute)
    return schedule_overlap(segments, always_exposed)
