"""Chaos-serving fleet: fault-tolerant multi-replica routing.

Composes the two verified halves of the repo — the continuous-batching
serving stack (:mod:`repro.serving`) and the deterministic fault
machinery (:mod:`repro.resilience`) — into a simulated N-replica fleet
that stays correct and live while replicas crash, straggle and drop
dispatches mid-decode.

The headline guarantee mirrors the training side's bitwise-identical
weights: under *any* fleet fault plan, every request's streamed token
sequence is identical to the fault-free run at the same seed, because
decoding is greedy (there is no per-request sampling stream), the
request's control record (:class:`~repro.serving.RequestState`) carries
its logits and tokens so far, and recovery either restores KV pages
bit-exactly (swap migration) or replays deterministic engine math
(recompute-from-prompt).  See ``docs/serving.md`` ("Chaos serving") and
``docs/resilience.md`` (the fleet recovery ladder).

The router also hosts the fleet's request-telemetry seams
(:func:`build_fleet` accepts ``monitor=``, ``recorder=`` and
``request_tracker=``): per-request span graphs with an exact
partition invariant, an always-on flight-recorder ring with postmortem
dumps, and the SLO burn-rate monitor whose health scores and shedding
alerts feed back into dispatch — all one ``is None`` check per seam
when detached.  See :mod:`repro.observability.request_trace`,
:mod:`repro.observability.monitor` and ``docs/observability.md``
("Request tracing & SLO monitoring").
"""

from .report import FleetReport
from .router import FleetRouter, Replica, ReplicaHealth, build_fleet

__all__ = [
    "FleetReport",
    "FleetRouter",
    "Replica",
    "ReplicaHealth",
    "build_fleet",
]
