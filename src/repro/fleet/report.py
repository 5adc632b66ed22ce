"""Fleet-level observability: the :class:`FleetReport`.

Extends the training-side :class:`~repro.resilience.report.ResilienceReport`
(fault records, recovery actions, goodput) with serving-fleet accounting:
request completion/shedding counts, migration-vs-recompute recovery
tallies, and TTFT/TPOT latency quantiles estimated from the shared
:class:`~repro.observability.metrics.Histogram` buckets.

Goodput here is measured in **simulated seconds** rather than FLOPs:
``useful_s`` is time replicas spent on first-time prefill and decode,
``wasted_s`` is everything faults caused — recovery replays, migration
swap/wire traffic, watchdog timeout stalls and post-fault backoff
sleeps.  A clean run has goodput exactly 1.0; the ``chaos_serve`` bench
preset gates the default fault plan at >= 0.85.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..resilience.report import ResilienceReport


@dataclass
class FleetReport(ResilienceReport):
    """One fleet run: resilience ledger + serving outcome summary."""

    replicas: int = 0
    final_replicas: int = 0
    rounds: int = 0
    requests: int = 0
    completed: int = 0
    shed: int = 0
    dispatches: int = 0
    redispatches: int = 0
    migrations: int = 0
    recomputes: int = 0
    tokens_generated: int = 0
    useful_s: float = 0.0
    wasted_s: float = 0.0
    kv_drift_bytes: float = 0.0
    #: worst paged-KV pool fragmentation (1 - peak_live/peak_reserved)
    #: seen by any replica across its whole life, restarts included.
    kv_fragmentation: float = 0.0
    ttft_p50_s: float = 0.0
    ttft_p95_s: float = 0.0
    ttft_p99_s: float = 0.0
    tpot_p50_s: float = 0.0
    tpot_p95_s: float = 0.0
    tpot_p99_s: float = 0.0
    per_request: List[Dict[str, Any]] = field(default_factory=list)

    def goodput(self) -> float:
        """Useful simulated seconds over total spent (1.0 when clean)."""
        total = self.useful_s + self.wasted_s
        return 1.0 if total == 0 else self.useful_s / total

    def summary(self) -> str:
        lines = [super().summary()]
        lines.append(
            f"  fleet: {self.replicas} replica(s) ({self.final_replicas} "
            f"surviving), {self.rounds} round(s); "
            f"{self.completed}/{self.requests} request(s) completed, "
            f"{self.shed} shed")
        lines.append(
            f"  recovery: {self.migrations} migration(s), "
            f"{self.recomputes} recompute(s); dispatches "
            f"{self.dispatches} (+{self.redispatches} retried)")
        lines.append(
            f"  latency: TTFT p50/p95/p99 = {self.ttft_p50_s * 1e3:.3f}/"
            f"{self.ttft_p95_s * 1e3:.3f}/{self.ttft_p99_s * 1e3:.3f} ms; "
            f"TPOT p50/p95/p99 = {self.tpot_p50_s * 1e6:.1f}/"
            f"{self.tpot_p95_s * 1e6:.1f}/{self.tpot_p99_s * 1e6:.1f} us")
        lines.append(
            f"  goodput {self.goodput():.1%} (useful {self.useful_s:.6f} s "
            f"/ wasted {self.wasted_s:.6f} s); KV drift "
            f"{self.kv_drift_bytes:.1f} B; KV fragmentation "
            f"{self.kv_fragmentation:.1%}")
        return "\n".join(lines)
