"""Roofline-style kernel cost model.

Each :class:`~repro.tensor.oplog.OpRecord` from an instrumented run is
priced as:

* **GEMM** — ``max(flops / (peak x gemm_efficiency), bytes / HBM)`` plus a
  kernel-launch overhead;
* **elementwise** — ``bytes / (HBM x hbm_efficiency)`` plus launch
  overhead (layer-norm, dropout, softmax, GeLU, residual adds — the ops
  sequence parallelism shrinks by ``1/t``);
* **collective** — the ring alpha-beta model of
  :class:`~repro.comm.cost_model.CollectiveCostModel`, less what its
  ``cover`` hides (:func:`exposed_time`): the paper's backward all-reduce
  runs under the weight-gradient GEMM, and the re-all-gather of the
  Y_i^s optimization under the dY GEMM.

Calibration policy (see DESIGN.md): the single free knob set,
(``gemm_efficiency``, ``hbm_efficiency``, launch/call overheads), is fit
once against the paper's Table 4 22B **baseline row** (7.7 ms forward /
11.9 ms backward); every other number in Tables 4-5 and Figure 8 is a
prediction of the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..comm.cost_model import CollectiveCostModel
from ..hardware import ClusterSpec, GPUSpec
from ..tensor.oplog import OpKind, OpLog, OpRecord, Phase


def exposed_time(comm_s: float, cover_s: float) -> float:
    """A hidden transfer pays what the compute covering it leaves uncovered."""
    return max(0.0, comm_s - cover_s)


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
        """Seconds of ``record`` alone; a transfer at its full price."""
        key = (record.kind, record.flops, record.bytes_moved, record.fused,
               record.comm)
        cached = self._op_time_cache.get(key)
        if cached is not None:
            return cached
        if record.kind == OpKind.GEMM:
            cost = self.gemm_time(record.flops, record.bytes_moved)
        elif record.kind == OpKind.ELEMENTWISE:
            cost = self.elementwise_time(record.bytes_moved, fused=record.fused)
        elif record.comm is not None:
            cost = self.comm.time(record.comm)
        else:
            cost = 0.0
        self._op_time_cache[key] = cost
        return cost

    # -- aggregate pricing -----------------------------------------------------
    def record_times(self, records: Sequence[OpRecord]) -> List[float]:
        """Seconds per record, in log order; a transfer pays
        :func:`exposed_time` against its cover's (none: ``0.0``)."""
        own = [self.op_time(r) for r in records]
        return [t if r.comm is None else exposed_time(t, own[i + r.cover] if r.cover else 0.0)
                for i, (r, t) in enumerate(zip(records, own))]

    def price(self, oplog: OpLog) -> PhaseTimes:
        return self.phase_times(oplog.records)

    def phase_times(self, records: Sequence[OpRecord]) -> PhaseTimes:
        by_phase = {phase: [] for phase in Phase}
        for record, seconds in zip(records, self.record_times(records)):
            by_phase[record.phase].append(seconds)
        return PhaseTimes(**{p.value: sum(t) for p, t in by_phase.items()})

    def price_breakdown(self, oplog: OpLog) -> dict:
        """Seconds attributed per (phase, op kind) — where the time goes.

        A covered transfer books what its cover hides under
        ``"overlapped"`` (outside the phase totals) and any part left
        exposed under ``"exposed <record name>"``.
        """
        out: dict = {}
        for record, cost in zip(oplog.records, self.record_times(oplog.records)):
            kinds = out.setdefault(record.phase.value, {})
            if record.cover:
                kinds["overlapped"] = kinds.get("overlapped", 0.0) + (self.op_time(record) - cost)
            if cost or not record.cover:
                kind = f"exposed {record.name}" if record.cover else record.kind.value
                kinds[kind] = kinds.get(kind, 0.0) + cost
        return out
