"""Span tracer on the **simulated** clock.

The tracer records where simulated time goes: spans (named intervals
with a subsystem and a rank), instant events (faults, recoveries,
checkpoint saves) and, via registered memory trackers, activation-byte
counter series.  Time never comes from the wallclock — the clock only
advances when an instrumented component prices work with the repo's
deterministic cost models:

* collectives advance it by the ring alpha-beta time
  (:class:`~repro.comm.cost_model.CollectiveCostModel`);
* GEMMs advance it by ``flops / gemm_throughput(flops)`` on the
  :class:`~repro.hardware.GPUSpec` roofline;
* bandwidth-bound ops advance it by ``bytes / hbm_bandwidth``;
* resilience hooks advance it by detection latencies and backoffs.

Two runs at the same seed therefore produce identical event streams —
the byte-identical-trace guarantee the tests assert.

Enabling is explicit and scoped (:func:`trace_scope`).  When no tracer
is installed every hook site is a single ``is None`` check; the
disabled overhead is bounded by ``benchmarks/test_disabled_overhead.py``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..comm.cost_model import CollectiveCostModel, logged_nbytes
from ..hardware import GPUSpec
from ..tensor import backend as bk
from ..tensor.context import ctx
from ..tensor.oplog import CommInfo, OpKind, OpRecord
from .metrics import MetricsRegistry

#: Accounting width of a communicated element (FP16, the paper's wire
#: format) — concrete simulation math runs in float64, but the clock
#: should advance by what the modeled hardware would move.
_WIRE_BYTES = 2


@dataclass(frozen=True)
class SpanEvent:
    """One completed interval: ``[ts, ts + dur)`` of simulated seconds.

    ``id`` is a stable per-tracer span number (emission order of
    ``begin_span``/direct pricing) and ``parent`` the id of the
    enclosing open span (``-1`` at top level) — the stream ids the
    offline critical-path analysis rebuilds the hierarchy from.
    """

    name: str
    subsystem: str            # Perfetto process ("train", "comm", ...)
    rank: int                 # Perfetto thread within the subsystem
    ts: float
    dur: float
    args: Dict[str, object] = field(default_factory=dict)
    id: int = -1
    parent: int = -1


@dataclass(frozen=True)
class InstantEvent:
    """A point-in-time marker (fault, recovery action, checkpoint)."""

    name: str
    subsystem: str
    rank: int
    ts: float
    args: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Collects spans/instants on a deterministic simulated clock."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.cost = CollectiveCostModel()
        self.gpu = GPUSpec()
        self.metrics = metrics
        self.clock_s = 0.0
        self.spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []
        self.current_rank = 0
        self._stack: List[tuple] = []
        self._trackers: Dict[str, object] = {}
        self._next_span_id = 0
        self._pending_comm: Optional[OpRecord] = None

    # -- clock -------------------------------------------------------------
    def advance(self, seconds: float) -> None:
        """Move simulated time forward (never backward)."""
        if seconds > 0:
            self.clock_s += seconds

    # -- spans -------------------------------------------------------------
    def _new_span_id(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    def _parent_id(self) -> int:
        return self._stack[-1][5] if self._stack else -1

    def begin_span(self, name: str, subsystem: str = "train",
                   rank: Optional[int] = None, **args: object) -> None:
        r = self.current_rank if rank is None else rank
        self._stack.append((name, subsystem, r, self.clock_s, args,
                            self._new_span_id()))

    def end_span(self) -> SpanEvent:
        name, subsystem, rank, start, args, span_id = self._stack.pop()
        event = SpanEvent(name=name, subsystem=subsystem, rank=rank, ts=start,
                          dur=self.clock_s - start, args=dict(args),
                          id=span_id, parent=self._parent_id())
        self.spans.append(event)
        return event

    @contextmanager
    def span(self, name: str, subsystem: str = "train",
             rank: Optional[int] = None, **args: object) -> Iterator[None]:
        """A span covering the simulated time its body advances the clock.

        On the way out it also closes, innermost first, any span its body
        left open: a replayed plan that raises never reaches its recorded
        end-spans, and the enclosing ``step`` span must not close in their
        place."""
        self.begin_span(name, subsystem, rank, **args)
        depth = len(self._stack)
        try:
            yield
        finally:
            while len(self._stack) >= depth:
                self.end_span()

    @contextmanager
    def rank_scope(self, rank: int) -> Iterator[None]:
        """Attribute nested spans/instants to ``rank`` (pipeline executor)."""
        prev = self.current_rank
        self.current_rank = rank
        try:
            yield
        finally:
            self.current_rank = prev

    def instant(self, name: str, subsystem: str = "train",
                rank: Optional[int] = None, **args: object) -> None:
        r = self.current_rank if rank is None else rank
        self.instants.append(InstantEvent(
            name=name, subsystem=subsystem, rank=r, ts=self.clock_s,
            args=dict(args)))

    # -- memory ------------------------------------------------------------
    def watch_tracker(self, tracker, name: str) -> None:
        """Wire a :class:`MemoryTracker`'s watermark clock to this tracer
        and include its timeline in the exported counter tracks."""
        tracker.set_clock(lambda: self.clock_s)
        self._trackers[name] = tracker

    def watched_trackers(self) -> Dict[str, object]:
        return dict(self._trackers)

    # -- instrumentation hooks --------------------------------------------
    def on_collective(self, op: str, shards: Sequence) -> None:
        """Price and record one simulated collective (data-plane hook).

        The data plane does not know whether the surrounding operator
        *could* overlap this collective with compute — that marker lives
        on the autograd-layer :class:`OpRecord` (``overlapped=True`` in
        :mod:`repro.parallel.mappings`).  Every overlapped operator logs
        its record immediately before issuing the collective, so a
        pending overlapped record whose op matches annotates this span;
        the annotation is what splits exposed from (potentially)
        overlapped communication in the trace analysis.
        """
        pending, self._pending_comm = self._pending_comm, None
        overlapped = (pending is not None and pending.comm is not None
                      and pending.comm.op == op)
        n = len(shards)
        nbytes = logged_nbytes(op, bk.size_of(shards[0]) * _WIRE_BYTES, n)
        dur = self.cost.time(CommInfo(op, nbytes, n)) if n > 1 else 0.0
        start = self.clock_s
        self.clock_s += dur
        args: Dict[str, object] = {"bytes": nbytes, "world": n,
                                   "phase": ctx().phase.value,
                                   "overlapped": overlapped}
        if overlapped:
            args["logical"] = pending.name
        self.spans.append(SpanEvent(
            name=op, subsystem="comm", rank=self.current_rank, ts=start,
            dur=dur, args=args, id=self._new_span_id(),
            parent=self._parent_id()))
        if self.metrics is not None:
            self.metrics.counter(
                "repro_collectives_total",
                "simulated collectives by op").inc(op=op)
            self.metrics.counter(
                "repro_collective_bytes_total",
                "payload bytes by op (accounting width)").inc(nbytes, op=op)
            self.metrics.histogram(
                "repro_collective_seconds",
                "alpha-beta priced collective time").observe(dur, op=op)

    def on_op(self, record: OpRecord) -> None:
        """Price one compute/p2p op record from the autograd layer.

        Collective records are *not* priced here — the data-plane hook in
        :mod:`repro.comm.collectives` already observed them; pricing both
        would double-count communication time.
        """
        if record.kind == OpKind.GEMM:
            dur = (record.flops / self.gpu.gemm_throughput(record.flops)
                   + self.gpu.kernel_launch_overhead) if record.flops > 0 else 0.0
            start = self.clock_s
            self.clock_s += dur
            self.spans.append(SpanEvent(
                name=record.name, subsystem="compute", rank=self.current_rank,
                ts=start, dur=dur,
                args={"flops": record.flops, "phase": record.phase.value},
                id=self._new_span_id(), parent=self._parent_id()))
        elif record.kind == OpKind.ELEMENTWISE:
            dur = (record.bytes_moved / self.gpu.hbm_bandwidth
                   + self.gpu.kernel_launch_overhead) if record.bytes_moved > 0 else 0.0
            if record.fused:
                # Fused kernels are few enough to be worth a span each;
                # plain elementwise ops only advance the clock (same math),
                # keeping unfused traces byte-identical.
                start = self.clock_s
                self.clock_s += dur
                self.spans.append(SpanEvent(
                    name=record.name, subsystem="compute",
                    rank=self.current_rank, ts=start, dur=dur,
                    args={"bytes": record.bytes_moved,
                          "phase": record.phase.value, "fused": True},
                    id=self._new_span_id(), parent=self._parent_id()))
            else:
                self.advance(dur)
        elif record.kind == OpKind.P2P and record.comm is not None:
            dur = self.cost.time(record.comm)
            start = self.clock_s
            self.clock_s += dur
            self.spans.append(SpanEvent(
                name=record.name, subsystem="comm", rank=self.current_rank,
                ts=start, dur=dur,
                args={"bytes": record.comm.nbytes, "phase": record.phase.value,
                      "overlapped": record.overlapped},
                id=self._new_span_id(), parent=self._parent_id()))
        elif record.kind == OpKind.COLLECTIVE:
            # Not priced here (the data-plane hook already did); an
            # overlapped record is parked so the hook, which fires next,
            # can annotate the collective span it is about to emit.
            if record.overlapped:
                self._pending_comm = record
            return
        else:
            return
        if self.metrics is not None:
            self.metrics.counter(
                "repro_flops_total", "FLOPs by phase").inc(
                    record.flops, phase=record.phase.value)
            if record.bytes_moved:
                self.metrics.counter(
                    "repro_bytes_moved_total",
                    "memory traffic by phase").inc(
                        record.bytes_moved, phase=record.phase.value)

    # -- finalization ------------------------------------------------------
    def finish(self) -> None:
        """Close dangling spans and publish clock/memory gauges."""
        while self._stack:
            self.end_span()
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_sim_clock_seconds",
                "total simulated seconds traced").set(self.clock_s)
            for name in sorted(self._trackers):
                tracker = self._trackers[name]
                for rank in sorted(tracker.snapshot().peak_bytes):
                    self.metrics.gauge(
                        "repro_activation_peak_bytes",
                        "peak saved-activation bytes").set(
                            tracker.peak_bytes(rank), tracker=name,
                            rank=str(rank))


_NULL_CTX = nullcontext()


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off.

    The process-wide tracer lives in the execution context
    (``ctx().tracer``); ``None`` (the default) keeps every hook site a
    single identity check — tracing must cost nothing when off.
    """
    return ctx().tracer


def install_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or with ``None``, remove) the process-wide tracer.

    Wires the two push-style seams: the collective data plane
    (:mod:`repro.comm.collectives`) and the autograd execution context
    (:func:`repro.tensor.context.ctx`).  Prefer :func:`trace_scope`.
    """
    from ..comm import collectives

    collectives.install_trace_hook(None if tracer is None
                                   else tracer.on_collective)
    ctx().tracer = tracer


@contextmanager
def trace_scope(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for a ``with`` block; restores the previous one
    (and finalizes open spans) on exit."""
    previous = ctx().tracer
    install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
        tracer.finish()


def span_or_null(tracer: Optional[Tracer], name: str,
                 subsystem: str = "train", rank: Optional[int] = None,
                 **args: object):
    """``tracer.span(...)`` when tracing, else a shared no-op context."""
    if tracer is None:
        return _NULL_CTX
    return tracer.span(name, subsystem, rank, **args)
