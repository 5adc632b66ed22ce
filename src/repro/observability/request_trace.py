"""Distributed request tracing for the serving fleet.

Where the span :class:`~repro.observability.tracer.Tracer` answers
*where a replica's simulated time went*, the :class:`RequestTracker`
answers *where one request's wall time went* — across dispatch retries,
replica crashes, SwappedKV migrations and recompute recoveries.  The
router (or a single-replica scheduler) drives it with **mark-at-close**
semantics: ``mark(rid, phase, t)`` states "the interval from this
request's previous mark up to ``t`` was ``phase``".  Because each span's
recorded ``end`` is the exact float the next span starts from, the spans
of one request *partition* its wall time ``[arrival_s, finished_s]``
with zero gap and zero overlap **by construction** — the accounting
invariant :func:`partition_error` verifies and the ``fleet_obs`` bench
preset gates at exactly ``0.0``.

The per-request graph is also *reconcilable*: TTFT/TPOT recomputed from
the span graph alone (:func:`reconcile_quantiles`) land in the same
:class:`~repro.observability.metrics.Histogram` buckets the router
fills, so the quantiles in a :class:`~repro.fleet.FleetReport` must
match the trace-derived ones bit for bit.

When a shared :class:`Tracer` is attached, every mark additionally
emits a span on a per-request ``"request"`` track (one Perfetto thread
per request index), so ``repro trace`` renders the causal request
timeline next to the replica timelines it summarizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .metrics import Histogram
from .serialize import dumps_json
from .tracer import SpanEvent, Tracer

#: Request lifecycle phases, in the order they typically appear.  Every
#: :class:`RequestSpan` carries one of these.
REQUEST_PHASES = (
    "queue_wait",      # waiting for dispatch (incl. backoff sleeps)
    "dispatch_lost",   # watchdog window burned by a swallowed dispatch
    "prefill",         # admission onto a replica (router-clock instant)
    "decode",          # one lockstep decode round on a replica
    "preempt",         # resident but swapped/queued out on its replica
    "recover",         # off-replica after a crash/drain, or recompute replay
    "migrate",         # p2p wire transfer of host KV to a new replica
    "shed",            # dropped by SLO-aware admission control
)

#: Terminal outcomes recorded by :meth:`RequestTracker.finish`.
OUTCOMES = ("completed", "shed")


@dataclass(frozen=True)
class RequestSpan:
    """One phase interval ``[ts, end]`` of a request's wall time.

    ``end`` is stored (not derived) so that adjacency is exact: the next
    span of the same request starts at this very float.  ``replica`` is
    ``-1`` for router-side phases, ``round`` / ``tokens`` are ``-1``
    when not applicable.
    """

    request_id: str
    phase: str
    ts: float
    end: float
    replica: int = -1
    round: int = -1
    tokens: int = -1
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.ts


@dataclass
class RequestTrace:
    """The full causal span graph of one request."""

    request_id: str
    index: int
    arrival_s: float
    spans: List[RequestSpan] = field(default_factory=list)
    finished_s: float = -1.0     # -1.0 while the request is still open
    outcome: str = ""            # "" open, else one of OUTCOMES

    @property
    def open(self) -> bool:
        return self.outcome == ""

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "index": self.index,
            "arrival_s": self.arrival_s,
            "finished_s": self.finished_s,
            "outcome": self.outcome,
            "spans": [{
                "phase": s.phase, "ts": s.ts, "end": s.end,
                "replica": s.replica, "round": s.round,
                "tokens": s.tokens, "args": dict(s.args),
            } for s in self.spans],
        }


class RequestTracker:
    """Collects per-request span graphs with mark-at-close semantics.

    One tracker serves one fleet (or scheduler) run; all timestamps are
    on the *driver's* clock (the router lockstep clock for fleets).  The
    router, not the tracker, allocates the Perfetto flow ids that link a
    dispatch span (``flow_out``) to the replica-side admission span
    (``flow_in``).
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self._traces: Dict[str, RequestTrace] = {}
        self._last: Dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------
    def begin(self, request_id: str, index: int, arrival_s: float) -> None:
        if request_id in self._traces:
            raise ValueError(f"request {request_id!r} already tracked")
        self._traces[request_id] = RequestTrace(
            request_id=request_id, index=index, arrival_s=arrival_s)
        self._last[request_id] = arrival_s

    def mark(self, request_id: str, phase: str, t: float, *,
             replica: int = -1, round_idx: int = -1, tokens: int = -1,
             **args: object) -> RequestSpan:
        """Close the interval from the previous mark up to ``t`` as
        ``phase``.  ``t`` may equal the previous mark (a zero-duration
        event span, e.g. admission on the router clock) but never
        precede it."""
        if phase not in REQUEST_PHASES:
            raise ValueError(f"unknown request phase {phase!r}")
        trace = self._traces[request_id]
        last = self._last[request_id]
        if t < last:
            raise ValueError(
                f"mark for {request_id!r} moves backward: {t} < {last}")
        span = RequestSpan(request_id=request_id, phase=phase, ts=last,
                           end=t, replica=replica, round=round_idx,
                           tokens=tokens, args=dict(args))
        trace.spans.append(span)
        self._last[request_id] = t
        if self.tracer is not None:
            span_args: Dict[str, object] = {"phase": "request",
                                            "request": request_id}
            if replica >= 0:
                span_args["replica"] = replica
            if round_idx >= 0:
                span_args["round"] = round_idx
            if tokens >= 0:
                span_args["tokens"] = tokens
            span_args.update(args)
            self.tracer.spans.append(SpanEvent(
                name=f"request.{phase}", subsystem="request",
                rank=trace.index, ts=last, dur=t - last, args=span_args,
                id=self.tracer._new_span_id(), parent=-1))
        return span

    def finish(self, request_id: str, t: float, outcome: str) -> None:
        """Seal a request at ``t`` (which must be its last mark)."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        trace = self._traces[request_id]
        if not trace.open:
            raise ValueError(f"request {request_id!r} already finished")
        last = self._last[request_id]
        if t != last:
            raise ValueError(
                f"finish of {request_id!r} at {t} does not meet its last "
                f"mark at {last}; mark the closing phase first")
        trace.finished_s = t
        trace.outcome = outcome

    # -- access ------------------------------------------------------------
    def trace(self, request_id: str) -> RequestTrace:
        return self._traces[request_id]

    def traces(self) -> List[RequestTrace]:
        """All traces, in arrival-index order."""
        return sorted(self._traces.values(), key=lambda t: t.index)

    def to_json(self) -> str:
        """Canonical JSON of every request trace (byte-deterministic)."""
        return dumps_json({"requests": [t.to_dict() for t in self.traces()]})


# -- the accounting invariant ---------------------------------------------

def partition_error(trace: RequestTrace) -> Tuple[float, float]:
    """``(max_gap, max_overlap)`` of one request's span partition.

    Walks ``[arrival_s .. finished_s]`` and measures how far each span
    start strays from the previous span's end.  By construction of
    :meth:`RequestTracker.mark` both are exactly ``0.0``; anything else
    means an instrumentation seam dropped a mark.
    """
    max_gap = 0.0
    max_overlap = 0.0
    cursor = trace.arrival_s
    for span in trace.spans:
        delta = span.ts - cursor
        if delta > 0:
            max_gap = max(max_gap, delta)
        elif delta < 0:
            max_overlap = max(max_overlap, -delta)
        cursor = span.end
    if trace.finished_s >= 0:
        delta = trace.finished_s - cursor
        if delta > 0:
            max_gap = max(max_gap, delta)
        elif delta < 0:
            max_overlap = max(max_overlap, -delta)
    return max_gap, max_overlap


def verify_partition(tracker: RequestTracker) -> dict:
    """Aggregate partition check over every tracked request."""
    max_gap = 0.0
    max_overlap = 0.0
    open_requests = 0
    for trace in tracker.traces():
        gap, overlap = partition_error(trace)
        max_gap = max(max_gap, gap)
        max_overlap = max(max_overlap, overlap)
        if trace.open:
            open_requests += 1
    return {
        "requests": len(tracker.traces()),
        "open_requests": open_requests,
        "max_gap_s": max_gap,
        "max_overlap_s": max_overlap,
        "exact": max_gap == 0.0 and max_overlap == 0.0
        and open_requests == 0,
    }


# -- reconciliation with the FleetReport ledger ----------------------------

def trace_latencies(trace: RequestTrace) -> Tuple[float, float]:
    """``(ttft_s, tpot_s)`` recomputed purely from the span graph.

    TTFT is the end of the first span that carries at least one
    generated token, minus arrival; TPOT spreads the remaining decode
    wall time over the remaining tokens — the exact expressions the
    router evaluates online, applied to the stored floats, so a correct
    graph reproduces the ledger bit for bit.
    """
    first_token_s = None
    for span in trace.spans:
        if span.tokens >= 1:
            first_token_s = span.end
            break
    if first_token_s is None:
        raise ValueError(f"request {trace.request_id!r} has no token-bearing "
                         f"span; cannot derive TTFT")
    total_tokens = max(span.tokens for span in trace.spans)
    ttft = first_token_s - trace.arrival_s
    tpot = (trace.finished_s - first_token_s) / max(1, total_tokens - 1)
    return ttft, tpot


def reconcile_quantiles(tracker: RequestTracker, report) -> dict:
    """Cross-check span-graph latencies against a :class:`FleetReport`.

    Rebuilds the TTFT/TPOT histograms from the request traces alone
    (the default bucket layout, as the router's) and compares the
    exported quantiles for exact equality with the report's.
    """
    ttft_h = Histogram("trace_ttft_seconds")
    tpot_h = Histogram("trace_tpot_seconds")
    completed = 0
    for trace in tracker.traces():
        if trace.outcome != "completed":
            continue
        completed += 1
        ttft, tpot = trace_latencies(trace)
        ttft_h.observe(ttft)
        tpot_h.observe(tpot)
    ttft_q = {"p50": ttft_h.quantile(0.50), "p95": ttft_h.quantile(0.95),
              "p99": ttft_h.quantile(0.99)}
    tpot_q = {"p50": tpot_h.quantile(0.50), "p95": tpot_h.quantile(0.95),
              "p99": tpot_h.quantile(0.99)}
    ttft_match = (ttft_q["p50"] == report.ttft_p50_s
                  and ttft_q["p95"] == report.ttft_p95_s
                  and ttft_q["p99"] == report.ttft_p99_s)
    tpot_match = (tpot_q["p50"] == report.tpot_p50_s
                  and tpot_q["p95"] == report.tpot_p95_s
                  and tpot_q["p99"] == report.tpot_p99_s)
    return {
        "completed": completed,
        "report_completed": report.completed,
        "ttft": ttft_q,
        "tpot": tpot_q,
        "ttft_match": ttft_match and completed == report.completed,
        "tpot_match": tpot_match and completed == report.completed,
    }
