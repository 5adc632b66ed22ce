"""Roofline-style kernel cost model.

Each :class:`~repro.tensor.oplog.OpRecord` from an instrumented run is
priced as:

* **GEMM** — ``max(flops / (peak x gemm_efficiency), bytes / HBM)`` plus a
  kernel-launch overhead;
* **elementwise** — ``bytes / (HBM x hbm_efficiency)`` plus launch
  overhead (layer-norm, dropout, softmax, GeLU, residual adds — the ops
  sequence parallelism shrinks by ``1/t``);
* **collective** — the ring alpha-beta model of
  :class:`~repro.comm.cost_model.CollectiveCostModel`; records marked
  ``overlapped`` cost nothing when ``overlap_backward_comm`` is on (the
  paper's backward all-reduce / weight-grad overlap, and the backward
  re-all-gather of the Y_i^s optimization).

Calibration policy (see DESIGN.md): the single free knob set,
(``gemm_efficiency``, ``hbm_efficiency``, launch/call overheads), is fit
once against the paper's Table 4 22B **baseline row** (7.7 ms forward /
11.9 ms backward); every other number in Tables 4-5 and Figure 8 is a
prediction of the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..comm.cost_model import CollectiveCostModel
from ..hardware import ClusterSpec, GPUSpec
from ..tensor.oplog import OpKind, OpLog, OpRecord, Phase


@dataclass(frozen=True)
class PhaseTimes:
    """Seconds per phase for one instrumented region (e.g. one layer)."""

    forward: float
    backward: float     # gradient computation only
    recompute: float    # checkpoint re-execution during backward

    @property
    def backward_total(self) -> float:
        """What a profiler sees as "backward": gradients + recomputation."""
        return self.backward + self.recompute

    @property
    def combined(self) -> float:
        return self.forward + self.backward + self.recompute

    def overhead_vs(self, baseline: "PhaseTimes") -> float:
        """Combined-time overhead relative to a baseline (Table 4's last
        column): ``combined / baseline.combined - 1``."""
        return self.combined / baseline.combined - 1.0


@dataclass(frozen=True)
class KernelCostModel:
    """Prices op records against an A100-like GPU and cluster."""

    gpu: GPUSpec = field(default_factory=GPUSpec)
    cluster: ClusterSpec = field(default_factory=lambda: ClusterSpec(num_nodes=1))
    hbm_efficiency: float = 0.85
    #: Scales elementwise byte charges to reflect kernel fusion (Megatron's
    #: fused bias-GeLU, bias-dropout-add and scale-mask-softmax kernels
    #: avoid round trips the unfused op log charges for).
    fusion_factor: float = 0.55
    overlap_backward_comm: bool = True
    comm_call_overhead: float = 12e-6
    #: Memo for :meth:`op_time` — the layer-timing sweeps price the same
    #: (kind, flops, bytes, comm) tuples thousands of times.  Excluded from
    #: equality/hash/repr so the dataclass stays value-semantic.
    _op_time_cache: dict = field(default_factory=dict, repr=False,
                                 compare=False, hash=False)

    @property
    def comm(self) -> CollectiveCostModel:
        return CollectiveCostModel(cluster=self.cluster,
                                   call_overhead=self.comm_call_overhead)

    # -- per-op pricing ------------------------------------------------------
    def gemm_time(self, flops: float, bytes_moved: float = 0.0) -> float:
        compute = flops / self.gpu.gemm_throughput(flops)
        memory = bytes_moved / (self.gpu.hbm_bandwidth * self.hbm_efficiency)
        return max(compute, memory) + self.gpu.kernel_launch_overhead

    def elementwise_time(self, bytes_moved: float, fused: bool = False) -> float:
        # Unfused logs charge every constituent round trip, so the discount
        # models the fusion the real kernels would apply.  Records from
        # ``repro.fusion`` already report the fused traffic — discounting
        # them again would double-count the win.
        effective = bytes_moved if fused else bytes_moved * self.fusion_factor
        return (effective / (self.gpu.hbm_bandwidth * self.hbm_efficiency)
                + self.gpu.kernel_launch_overhead)

    def op_time(self, record: OpRecord) -> float:
        key = (record.kind, record.flops, record.bytes_moved, record.fused,
               record.comm, record.overlapped)
        cached = self._op_time_cache.get(key)
        if cached is not None:
            return cached
        if record.kind == OpKind.GEMM:
            cost = self.gemm_time(record.flops, record.bytes_moved)
        elif record.kind == OpKind.ELEMENTWISE:
            cost = self.elementwise_time(record.bytes_moved, fused=record.fused)
        elif record.comm is not None:
            if record.overlapped and self.overlap_backward_comm:
                cost = 0.0
            else:
                cost = self.comm.time(record.comm)
        else:
            cost = 0.0
        self._op_time_cache[key] = cost
        return cost

    # -- aggregate pricing -----------------------------------------------------
    def price_records(self, records: Iterable[OpRecord],
                      phase: Optional[Phase] = None) -> float:
        return sum(
            self.op_time(r) for r in records if phase is None or r.phase == phase
        )

    def price(self, oplog: OpLog) -> PhaseTimes:
        return self.phase_times(oplog.records)

    def phase_times(self, records: Sequence[OpRecord]) -> PhaseTimes:
        return PhaseTimes(
            forward=self.price_records(records, Phase.FORWARD),
            backward=self.price_records(records, Phase.BACKWARD),
            recompute=self.price_records(records, Phase.RECOMPUTE),
        )

    def price_breakdown(self, oplog: OpLog) -> dict:
        """Seconds attributed per (phase, op kind) — where the time goes.

        Collectives that are overlapped (and skipped when
        ``overlap_backward_comm`` is on) appear under ``"overlapped"``
        with the time they *would* have cost, so the attribution sums to
        the phase totals while still exposing hidden communication.
        """
        out: dict = {}
        for record in oplog.records:
            phase = record.phase.value
            if (record.comm is not None and record.overlapped
                    and self.overlap_backward_comm):
                kind = "overlapped"
                cost = self.comm.time(record.comm)
            else:
                kind = record.kind.value
                cost = self.op_time(record)
            out.setdefault(phase, {}).setdefault(kind, 0.0)
            out[phase][kind] += cost
        return out
