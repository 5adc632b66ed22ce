"""NCCL-style watchdog: timeout detection over the collective cost model.

Real Megatron training guards every collective with a watchdog thread
(``NCCL_TIMEOUT``): if a collective does not complete within the window,
the job aborts and is restarted from a checkpoint.  This simulated
watchdog does the same bookkeeping in *simulated* seconds — every
observed collective is priced by the ring alpha-beta
:class:`~repro.comm.cost_model.CollectiveCostModel` and accumulated on a
clock, so detection latencies and recovery overheads come out in the
same units as the paper's iteration times:

* a hung collective (crash / dropped message) is detected after exactly
  ``timeout_s`` simulated seconds — the fundamental detection latency of
  timeout-based failure detectors;
* a straggler that inflates a collective past ``timeout_s`` becomes a
  :class:`~repro.errors.CollectiveTimeout`; a milder one is flagged when
  the observed time exceeds
  :data:`~repro.observability.monitor.STRAGGLER_THRESHOLD` times the
  expected time (the per-collective profiling check real clusters alarm
  on; the fleet SLO monitor applies the same rule to decode rounds), with
  detection latency equal to the slowed collective's completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..comm.cost_model import CollectiveCostModel
from ..errors import CollectiveTimeout
from ..observability.monitor import is_straggling
from ..tensor.oplog import CommInfo


@dataclass
class Watchdog:
    """Times collectives on a simulated clock and raises on timeout.

    Every watched collective is priced on the ``"tp"`` (intra-node) links.
    """

    cost: CollectiveCostModel = field(default_factory=CollectiveCostModel)
    #: NCCL_TIMEOUT analogue, in simulated seconds.
    timeout_s: float = 0.5
    #: Accumulated simulated seconds across everything observed.
    clock_s: float = 0.0
    #: Optional :class:`~repro.observability.FlightRecorder`: every trip
    #: (``hang``) lands in the ring buffer.
    recorder: Optional[object] = None

    def expected_time(self, op: str, nbytes: int, world: int) -> float:
        return self.cost.time(CommInfo(op, nbytes, world, "tp"))

    def observe(self, op: str, nbytes: int, world: int,
                slowdown: float = 1.0) -> Tuple[float, float]:
        """Account one completed (possibly slowed) collective.

        Returns ``(expected_s, observed_s)`` and advances the clock by
        the observed time; raises :class:`CollectiveTimeout` (after
        advancing the clock by ``timeout_s``) if the slowed collective
        cannot finish inside the watchdog window.
        """
        info = CommInfo(op, nbytes, world, "tp")
        expected = self.cost.time(info)
        observed = expected if slowdown == 1.0 else self.cost.time(info, slowdown)
        if observed > self.timeout_s:
            self.clock_s += self.timeout_s
            raise CollectiveTimeout(op, self.timeout_s)
        self.clock_s += observed
        return expected, observed

    def is_straggling(self, expected_s: float, observed_s: float) -> bool:
        return is_straggling(expected_s, observed_s)

    def hang(self, op: str) -> float:
        """A collective that never completes: the clock runs to the
        timeout, which is the detection latency.  Returns ``timeout_s``;
        the caller raises the appropriate typed error."""
        self.clock_s += self.timeout_s
        if self.recorder is not None:
            self.recorder.record("watchdog_trip", self.clock_s, op=op,
                                 timeout_s=self.timeout_s)
        return self.timeout_s

    def sleep(self, seconds: float) -> None:
        """Advance the clock without a collective (retry backoff)."""
        self.clock_s += seconds
