"""Structured record of every injected fault and every recovery action.

The :class:`ResilienceReport` is the observability half of the fault
harness: after a run it answers (a) was every injected fault detected
and attributed, (b) how long did detection take in simulated seconds,
(c) what did recovery do about each one, and (d) what did the faults
cost — wasted FLOPs and the goodput ratio (useful FLOPs / total FLOPs),
the metric the benchmark sweeps against fault rate and checkpoint
interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..observability.serialize import to_jsonable
from ..observability.tracer import active_tracer


@dataclass
class FaultRecord:
    """One injected fault, as the watchdog saw it."""

    step: int
    kind: str                     # FaultKind value
    rank: int
    error: str                    # raised error type ("" for stragglers)
    detected: bool = True
    detection_latency_s: float = 0.0
    op: str = ""                  # collective the fault struck


@dataclass
class RecoveryRecord:
    """One recovery action the trainer took."""

    step: int
    action: str                   # "retry" | "rollback" | "shrink" | "replan"
    detail: str = ""
    backoff_s: float = 0.0
    wasted_flops: float = 0.0


@dataclass
class ResilienceReport:
    """Everything a post-mortem needs, accumulated during the run."""

    faults: List[FaultRecord] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    collectives_observed: int = 0
    steps_completed: int = 0
    steps_replayed: int = 0
    checkpoints_saved: int = 0
    rollbacks: int = 0
    retries: int = 0
    shrinks: int = 0
    useful_flops: float = 0.0
    wasted_flops: float = 0.0
    simulated_seconds: float = 0.0
    final_world_size: Optional[int] = None

    def recover(self, record: RecoveryRecord, **trace_args: object) -> None:
        """Record one recovery action.  Under a tracer, simulated time
        advances by the action's backoff (0 unless it is a retry), a
        ``recovery.<action>`` instant carries ``trace_args`` and
        ``repro_recoveries_total`` counts it."""
        self.recoveries.append(record)
        tracer = active_tracer()
        if tracer is not None:
            tracer.advance(record.backoff_s)
            tracer.instant(f"recovery.{record.action}", subsystem="resilience",
                           step=record.step, **trace_args)
            if tracer.metrics is not None:
                tracer.metrics.counter(
                    "repro_recoveries_total",
                    "recovery actions by kind").inc(action=record.action)

    @property
    def all_faults_detected(self) -> bool:
        return all(f.detected for f in self.faults)

    def goodput(self) -> float:
        """Useful FLOPs over total FLOPs spent (1.0 on a clean run)."""
        total = self.useful_flops + self.wasted_flops
        return 1.0 if total == 0 else self.useful_flops / total

    def to_json(self) -> Dict[str, Any]:
        """The report as plain JSON types: every field, plus ``goodput``
        and ``all_faults_detected``.

        Serializes through the canonical path shared with the metrics
        snapshot (:mod:`repro.observability.serialize`), and is itself
        the single source :meth:`MetricsRegistry.observe_resilience`
        consumes — goodput is computed once, here.
        """
        doc = to_jsonable(self)
        doc.update(goodput=self.goodput(),
                   all_faults_detected=self.all_faults_detected)
        return doc

    def summary(self) -> str:
        lines = [
            f"resilience report: {len(self.faults)} fault(s) injected, "
            f"{sum(f.detected for f in self.faults)} detected",
        ]
        for f in self.faults:
            lines.append(
                f"  step {f.step:3d}  {f.kind:18s} rank {f.rank}  "
                f"op {f.op or '-':13s} -> {f.error or 'flagged':19s} "
                f"latency {f.detection_latency_s * 1e3:8.3f} ms")
        for r in self.recoveries:
            extra = f"  backoff {r.backoff_s * 1e3:.1f} ms" if r.backoff_s else ""
            lines.append(f"  step {r.step:3d}  recovery: {r.action:8s} {r.detail}{extra}")
        lines.append(
            f"  steps: {self.steps_completed} completed, "
            f"{self.steps_replayed} replayed; retries {self.retries}, "
            f"rollbacks {self.rollbacks}, shrinks {self.shrinks}, "
            f"checkpoints {self.checkpoints_saved}")
        lines.append(
            f"  goodput {self.goodput():.1%} "
            f"(useful {self.useful_flops:.3g} / wasted {self.wasted_flops:.3g} FLOPs); "
            f"simulated comm+recovery time {self.simulated_seconds:.4f} s")
        return "\n".join(lines)
