"""Fleet SLO monitor and flight recorder.

Two online companions to the request tracer:

* :class:`FlightRecorder` — an always-on bounded ring buffer of
  structured events (dispatch decisions, watchdog trips, fault
  injections, KV admission verdicts).  Recording costs one ``is None``
  check at every hook site when off; when a fault fires or a watchdog
  trips, the buffer is dumped as a canonical-JSON **postmortem**
  artifact that is byte-identical at equal seeds.

* :class:`SLOMonitor` — multi-window burn-rate tracking over the
  TTFT/TPOT error budgets plus a per-replica health score (the p50 of
  each replica's last :data:`HEALTH_WINDOW` decode rounds against the
  fleet median, estimated on :class:`Histogram` buckets).  The monitor
  watches only *telemetry* the router already emits — per-round
  heartbeats, decode durations, dispatch send/ack pairs — and derives
  crash / straggler / dispatch-loss detections from transitions in that
  stream.  Because the injected :class:`~repro.resilience.FaultPlan` is
  seeded, the detections can be cross-checked against the ground-truth
  :class:`~repro.fleet.FleetReport` fault ledger
  (:meth:`SLOMonitor.score_against`); the ``fleet_obs`` bench preset
  gates the match at exact precision/recall = 1.0.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..errors import ConfigError
from .metrics import Histogram
from .serialize import dumps_json, to_jsonable
from .tracer import Tracer

#: Fleet fault vocabulary, as the string values recorded in
#: ``FaultRecord.kind`` (kept as literals so the observability layer
#: does not import the resilience package it instruments).
CRASH = "replica_crash"
DISPATCH_LOSS = "dispatch_loss"
SLOW = "slow_replica"
FLEET_FAULT_KINDS = (CRASH, DISPATCH_LOSS, SLOW)

#: The straggler rule, shared by the training watchdog's per-collective
#: profiling alarm and the fleet monitor's decode-round check: observed
#: time above this multiple of the expected time is a straggler.
STRAGGLER_THRESHOLD = 4.0

#: The SLO policy: the share of requests allowed to miss their SLO, the
#: short and long burn-rate windows (in requests), the burn rate both
#: windows must reach for an alert, and the decode rounds per replica
#: the health score looks back over.
ERROR_BUDGET = 0.1
SHORT_WINDOW = 8
LONG_WINDOW = 32
BURN_THRESHOLD = 1.0
HEALTH_WINDOW = 16


def is_straggling(expected_s: float, observed_s: float) -> bool:
    """True when ``observed_s`` exceeds :data:`STRAGGLER_THRESHOLD` times
    ``expected_s``."""
    return observed_s > STRAGGLER_THRESHOLD * max(expected_s, 1e-30)


def check_slo(name: str, seconds: Optional[float]) -> None:
    """An SLO threshold is unset (None) or a finite number of seconds
    above zero; anything else raises :class:`ConfigError`."""
    if seconds is not None and not 0.0 < seconds < math.inf:
        raise ConfigError(
            f"{name} must be a finite number of seconds > 0, got {seconds}")


class FlightRecorder:
    """Bounded ring buffer of structured events with postmortem dumps."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ConfigError(
                f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self.postmortems: List[dict] = []

    def record(self, kind: str, t: float, **fields: object) -> None:
        """Append one event; old events fall off the ring."""
        event = {"seq": self._seq, "t": t, "kind": kind}
        event.update(fields)
        self._events.append(event)
        self._seq += 1

    def events(self) -> List[dict]:
        return list(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including rolled-off ones)."""
        return self._seq

    def postmortem(self, trigger: str, t: float, **context: object) -> dict:
        """Snapshot the ring into a postmortem document and keep it.

        Called when a fault fires or a watchdog trips; the document is
        JSON-ready and byte-deterministic at equal seeds.
        """
        doc = to_jsonable({
            "trigger": trigger,
            "clock_s": t,
            "context": dict(context),
            "capacity": self.capacity,
            "recorded": self._seq,
            "dropped": max(0, self._seq - len(self._events)),
            "events": list(self._events),
        })
        self.postmortems.append(doc)
        return doc

    def dumps(self) -> str:
        """Canonical JSON of every postmortem captured so far."""
        return dumps_json({"postmortems": self.postmortems})


@dataclass(frozen=True)
class Detection:
    """One monitor verdict: fault ``kind`` on ``replica`` at ``round``.

    ``replica`` is ``-1`` for dispatch losses — the router records the
    fault spec's rank there, but the loss strikes whatever dispatch goes
    out next, so replica identity is not part of the match key.
    """

    round: int
    kind: str
    replica: int = -1


class SLOMonitor:
    """Derives burn rates, health scores and fault detections from the
    router's per-round telemetry stream."""

    def __init__(self, slo_ttft_s: Optional[float] = None,
                 slo_tpot_s: Optional[float] = None,
                 recorder: Optional[FlightRecorder] = None,
                 tracer: Optional[Tracer] = None):
        check_slo("slo_ttft_s", slo_ttft_s)
        check_slo("slo_tpot_s", slo_tpot_s)
        self.slo_ttft_s = slo_ttft_s
        self.slo_tpot_s = slo_tpot_s
        self.recorder = recorder
        self.tracer = tracer
        self.detections: List[Detection] = []
        # Rolling SLO-violation windows (True = budget-burning request).
        self._ttft_bad: Deque[bool] = deque(maxlen=LONG_WINDOW)
        self._tpot_bad: Deque[bool] = deque(maxlen=LONG_WINDOW)
        # Per-replica recent decode times for the health score.
        self._decode: Dict[int, Deque[float]] = {}
        # Heartbeat ledger: replicas alive at the end of last round.
        self._alive: Optional[Set[int]] = None
        # Straggler latches: replicas already flagged slow this "life".
        self._slow_latched: Set[int] = set()
        # Dispatches sent on the wire this round but not yet acked.
        self._in_flight: Dict[str, int] = {}

    # -- telemetry ingest --------------------------------------------------
    def start_run(self, replica_ids: Sequence[int]) -> None:
        """Arm the heartbeat ledger with the initial replica set."""
        self._alive = set(replica_ids)

    def heartbeat(self, replica_id: int) -> None:
        """A replica (re)announced itself mid-round — a crash restart.
        Without this, a replica that restarts and crashes again inside
        the same round would never show an alive->silent transition."""
        if self._alive is not None:
            self._alive.add(replica_id)

    def observe_ttft(self, value: float) -> None:
        if self.slo_ttft_s is not None:
            self._ttft_bad.append(value > self.slo_ttft_s)

    def observe_tpot(self, value: float) -> None:
        if self.slo_tpot_s is not None:
            self._tpot_bad.append(value > self.slo_tpot_s)

    def observe_decode(self, replica_id: int, round_idx: int,
                       expected_s: float, observed_s: float) -> None:
        """One replica's decode-round duration (straggler telemetry)."""
        self._decode.setdefault(
            replica_id, deque(maxlen=HEALTH_WINDOW)).append(observed_s)
        # Straggler check: the watchdog's profiling alarm, latched per
        # replica life so a persistently slow replica yields exactly one
        # detection (until a crash-restart resets it).
        if (replica_id not in self._slow_latched
                and is_straggling(expected_s, observed_s)):
            self._slow_latched.add(replica_id)
            self._detect(Detection(round_idx, SLOW, replica_id))

    def dispatch_issued(self, request_id: str, round_idx: int) -> None:
        """A dispatch went out on the wire."""
        self._in_flight[request_id] = round_idx

    def dispatch_delivered(self, request_id: str) -> None:
        """The replica answered (admitted *or* nacked — both are acks)."""
        self._in_flight.pop(request_id, None)

    def end_round(self, round_idx: int, live_ids: Sequence[int]) -> None:
        """Round-boundary sweep: heartbeat-silence and lost-dispatch
        checks.  Must be called every round, including idle ones, so
        detection rounds line up with the fault ledger's ``step``."""
        live = set(live_ids)
        if self._alive is None:
            self._alive = live
        for replica_id in sorted(self._alive - live):
            # Alive -> silent transition: the replica missed its
            # heartbeat this round.  A later restart re-enters `live`
            # and re-arms both the crash and straggler detectors.
            self._detect(Detection(round_idx, CRASH, replica_id))
            self._slow_latched.discard(replica_id)
        self._alive = live
        for request_id in sorted(self._in_flight):
            self._detect(Detection(self._in_flight[request_id],
                                   DISPATCH_LOSS, -1))
        self._in_flight.clear()

    def _detect(self, detection: Detection) -> None:
        self.detections.append(detection)
        if self.recorder is not None:
            self.recorder.record("monitor_detection", float(detection.round),
                                 fault=detection.kind,
                                 replica=detection.replica,
                                 round=detection.round)
        if self.tracer is not None:
            self.tracer.instant(f"monitor.{detection.kind}",
                                subsystem="monitor", rank=0,
                                replica=detection.replica,
                                round=detection.round)

    # -- burn rates --------------------------------------------------------
    def _burn(self, window: Deque[bool], n: int) -> float:
        recent = list(window)[-n:]
        if not recent:
            return 0.0
        return (sum(recent) / len(recent)) / ERROR_BUDGET

    def ttft_burn(self, window: Optional[int] = None) -> float:
        """TTFT error-budget burn rate over the last ``window`` requests
        (1.0 = burning exactly at budget)."""
        return self._burn(self._ttft_bad, window or LONG_WINDOW)

    def tpot_burn(self, window: Optional[int] = None) -> float:
        return self._burn(self._tpot_bad, window or LONG_WINDOW)

    def ttft_burn_alert(self) -> bool:
        """Multi-window alert: both the fast and slow windows must burn
        above threshold, so one outlier cannot trip shedding but a
        sustained breach trips it quickly."""
        return (self.ttft_burn(SHORT_WINDOW) >= BURN_THRESHOLD
                and self.ttft_burn(LONG_WINDOW) >= BURN_THRESHOLD)

    # -- health scores -----------------------------------------------------
    def health_score(self, replica_id: int) -> float:
        """Rolling decode p50 of this replica over the fleet median of
        the same statistic (1.0 = typical, > 1 = slow).  Replicas with
        no samples score a neutral 1.0."""
        p50s = {}
        for rid, times in self._decode.items():
            hist = Histogram("decode_s")
            for observed_s in times:
                hist.observe(observed_s)
            p50s[rid] = hist.quantile(0.50)
        mine = p50s.get(replica_id)
        if mine is None or not p50s:
            return 1.0
        ordered = sorted(p50s.values())
        mid = len(ordered) // 2
        median = (ordered[mid] if len(ordered) % 2
                  else 0.5 * (ordered[mid - 1] + ordered[mid]))
        if median <= 0.0:
            return 1.0
        return mine / median

    # -- the exactness gate ------------------------------------------------
    def score_against(self, report) -> dict:
        """Precision/recall of the detections against the ground-truth
        fault ledger of a :class:`~repro.fleet.FleetReport`.

        Match key: ``(step, kind, rank)`` for crashes and stragglers,
        ``(step, kind)`` for dispatch losses (rank is recorded, not
        matched, on the loss path).  Multiset matching, so two losses in
        one round need two detections.
        """
        truth: Counter = Counter()
        for record in report.faults:
            kind = getattr(record.kind, "value", record.kind)
            if kind not in FLEET_FAULT_KINDS:
                continue
            replica = -1 if kind == DISPATCH_LOSS else record.rank
            truth[(record.step, kind, replica)] += 1
        seen: Counter = Counter(
            (d.round, d.kind, d.replica) for d in self.detections)
        tp = sum(min(count, seen[key]) for key, count in truth.items())
        missed = sorted((truth - seen).elements())
        spurious = sorted((seen - truth).elements())
        detections = sum(seen.values())
        injected = sum(truth.values())
        return {
            "injected": injected,
            "detections": detections,
            "true_positives": tp,
            "precision": tp / detections if detections else 1.0,
            "recall": tp / injected if injected else 1.0,
            "missed": [list(m) for m in missed],
            "spurious": [list(s) for s in spurious],
        }

    def snapshot(self) -> dict:
        """JSON-ready monitor state summary."""
        return to_jsonable({
            "detections": [{"round": d.round, "kind": d.kind,
                            "replica": d.replica} for d in self.detections],
            "ttft_burn_short": self.ttft_burn(SHORT_WINDOW),
            "ttft_burn_long": self.ttft_burn(LONG_WINDOW),
            "tpot_burn_short": self.tpot_burn(SHORT_WINDOW),
            "tpot_burn_long": self.tpot_burn(LONG_WINDOW),
            "health_scores": {str(rid): self.health_score(rid)
                              for rid in sorted(self._decode)},
        })
