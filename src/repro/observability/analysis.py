"""Offline trace analysis: critical-path attribution and model cross-checks.

The tracer (PR 2) records *what happened*; this module answers *where the
time and memory went* and whether the measurements still agree with the
paper's closed-form models:

* **Time attribution** — a priority sweep over each rank's span timeline
  partitions the whole window into the buckets the paper's claims are
  stated in: ``forward`` / ``backward`` / ``recompute`` /
  ``exposed_comm`` / ``overlapped_comm`` (the ``overlapped=True``
  markers from :mod:`repro.parallel.mappings`) / ``recovery_stall`` /
  ``serving`` (replica prefill/decode/preempt/resume work) / ``fleet``
  (router-era dispatch/migrate/recover/shed actions) / ``other`` /
  ``pipeline_bubble``.  Buckets partition ``[0, wall]`` exactly, so
  they sum to the wall time by construction — including under
  ``chaos_serve`` fleet traces, whose router/replica spans land in the
  two serving-era buckets instead of inflating the bubble.
* **Utilization cross-check** — MFU/HFU derived from traced GEMM FLOPs
  and the measured wall time, reconciled against
  :func:`repro.perf_model.measured_utilization` (the same formulas
  ``perf_model/iteration.py`` prices Table 5 with).  The instrumented
  simulator's per-op FLOPs match the strict Appendix A formulas
  exactly, so the two MFUs agree to float precision.
* **Memory attribution** — measured :class:`~repro.tensor.MemoryTracker`
  category byte counts matched term-by-term (Equations 1-4 constituents,
  regrouped by :func:`repro.memory_model.per_layer_term_groups`) against
  the analytic model, reporting drift per term, not just per total.
* **Critical path** — the cross-rank 1F1B dependency chain, re-walked
  from the trace's per-rank ``forward mbI gG`` / ``backward mbI gG``
  spans using the same :func:`repro.pipeline_sim.op_dependency` edges as
  the schedule simulator.

Everything works both *live* (on a :class:`Tracer`) and *offline* (on an
exported ``trace.json``): :func:`from_tracer`, :func:`from_chrome_events`
and :func:`load_trace` normalize either source into :class:`TraceData`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ExperimentConfig
from ..errors import ConfigError
from ..layers.transformer import Recompute
from .perfetto import (
    REPLICA_PID_BASE,
    SUBSYSTEM_PIDS,
    TIME_SCALE,
    read_trace_events,
)
from .tracer import InstantEvent, SpanEvent, Tracer

#: Attribution buckets, in report order.  They partition the analysis
#: window: per rank the bucket times sum to the wall time exactly.
BUCKETS = (
    "forward", "backward", "recompute", "exposed_comm", "overlapped_comm",
    "recovery_stall", "serving", "fleet", "other", "pipeline_bubble",
)

#: Sweep priorities (lower wins) when intervals nest or overlap: a
#: recovery stall dominates everything it covers, a priced comm or
#: compute span beats the surrounding scheduler span, a ``recompute[...]``
#: region claims its un-spanned elementwise time before the enclosing
#: backward does.  Replica-side serving spans beat the fleet-router
#: wrappers that enclose them (a ``serve.resume`` nested inside a
#: ``fleet.migrate`` is replica work; only the router-only residue —
#: wire transfers, detection stalls — stays in the ``fleet`` bucket).
_PRIORITY_STALL = 0
_PRIORITY_COMM = 1
_PRIORITY_COMPUTE = 2
_PRIORITY_RECOMPUTE_REGION = 3
_PRIORITY_TRAIN_LEAF = 4
_PRIORITY_TRAIN_OTHER = 5
_PRIORITY_SERVE_LEAF = 6
_PRIORITY_FLEET = 7

#: Telemetry *view* tracks: per-request and monitor spans re-present
#: time that replica/router spans already account for, so the analysis
#: (like the offline loader's memory/pipeline skip) never buckets them.
_VIEW_SUBSYSTEMS = frozenset({"request", "monitor"})

_PIPE_SPAN = re.compile(r"^(forward|backward) mb(\d+) g(\d+)$")


# ---------------------------------------------------------------------------
# Normalized trace model (live tracer or exported Chrome JSON)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceData:
    """The tracer's own span/instant records on one simulated-seconds axis."""

    spans: Tuple[SpanEvent, ...]
    instants: Tuple[InstantEvent, ...]
    wall: float

    def ranks(self) -> List[int]:
        return sorted({s.rank for s in self.spans}
                      | {i.rank for i in self.instants})


def from_tracer(tracer: Tracer) -> TraceData:
    """A live tracer's event stream, view tracks dropped."""
    return TraceData(
        spans=tuple(s for s in tracer.spans
                    if s.subsystem not in _VIEW_SUBSYSTEMS),
        instants=tuple(i for i in tracer.instants
                       if i.subsystem not in _VIEW_SUBSYSTEMS),
        wall=tracer.clock_s)


def from_chrome_events(events: Sequence[dict]) -> TraceData:
    """Normalize exported Chrome/Perfetto events (the offline path).

    Only tracer-produced subsystems are kept — the re-homed analytic
    pipeline-schedule track, the memory counter track and the telemetry
    view tracks (``request``/``monitor``) are views, not timed work on
    the simulated clock.  Replica pids (``REPLICA_PID_BASE + N``) map
    back to their ``replica<N>`` subsystems so fleet traces round-trip.
    """
    pid_to_subsystem = {pid: name for name, pid in SUBSYSTEM_PIDS.items()}
    skip = {"memory", "pipeline"} | set(_VIEW_SUBSYSTEMS)
    spans: List[SpanEvent] = []
    instants: List[InstantEvent] = []
    wall = 0.0
    for event in events:
        ph = event.get("ph")
        pid = event.get("pid")
        subsystem = pid_to_subsystem.get(pid)
        if subsystem is None and isinstance(pid, int) \
                and REPLICA_PID_BASE <= pid < 100:
            subsystem = f"replica{pid - REPLICA_PID_BASE}"
        if subsystem is None or subsystem in skip or ph not in ("X", "i"):
            continue
        name, rank = event.get("name", ""), event.get("tid", 0)
        ts, args = event["ts"] / TIME_SCALE, dict(event.get("args", {}))
        if ph == "X":
            dur = event.get("dur", 0.0) / TIME_SCALE
            spans.append(SpanEvent(name, subsystem, rank, ts, dur, args))
            wall = max(wall, ts + dur)
        else:
            instants.append(InstantEvent(name, subsystem, rank, ts, args))
            wall = max(wall, ts)
    return TraceData(spans=tuple(spans), instants=tuple(instants), wall=wall)


def load_trace(path: str) -> TraceData:
    """Load an exported ``trace.json`` into the normalized model; a file
    that is not a valid Chrome trace raises :class:`ConfigError`."""
    try:
        events = read_trace_events(path)
    except ValueError as exc:
        raise ConfigError(f"{path} is not a Chrome trace: {exc}") from None
    return from_chrome_events(events)


# ---------------------------------------------------------------------------
# Time attribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankAttribution:
    """One rank's wall-time partition into the analysis buckets."""

    rank: int
    wall: float
    buckets: Dict[str, float]

    @property
    def busy(self) -> float:
        return self.wall - self.buckets.get("pipeline_bubble", 0.0)

    @property
    def coverage_error(self) -> float:
        """|sum(buckets) - wall| / wall — zero up to float rounding."""
        if self.wall <= 0:
            return 0.0
        return abs(sum(self.buckets.values()) - self.wall) / self.wall


@dataclass(frozen=True)
class Attribution:
    """Per-rank partitions plus the rank-summed totals."""

    wall: float
    ranks: Tuple[RankAttribution, ...]
    totals: Dict[str, float]

    @property
    def coverage_error(self) -> float:
        return max((r.coverage_error for r in self.ranks), default=0.0)


def _bucket_intervals(data: TraceData, rank: int) -> List[tuple]:
    """(start, end, priority, bucket) intervals for one rank's sweep."""
    intervals: List[tuple] = []
    for span in data.spans:
        if span.rank != rank:
            continue
        if span.subsystem == "comm":
            bucket = ("overlapped_comm" if span.args.get("overlapped")
                      else "exposed_comm")
            intervals.append((span.ts, span.ts + span.dur,
                              _PRIORITY_COMM, bucket))
        elif span.subsystem == "compute":
            phase = span.args.get("phase", "forward")
            bucket = phase if phase in ("forward", "backward", "recompute") \
                else "other"
            intervals.append((span.ts, span.ts + span.dur,
                              _PRIORITY_COMPUTE, bucket))
        elif span.subsystem == "train":
            if span.name.startswith("recompute["):
                intervals.append((span.ts, span.ts + span.dur,
                                  _PRIORITY_RECOMPUTE_REGION, "recompute"))
            elif span.name.startswith("forward"):
                intervals.append((span.ts, span.ts + span.dur,
                                  _PRIORITY_TRAIN_LEAF, "forward"))
            elif span.name.startswith("backward"):
                intervals.append((span.ts, span.ts + span.dur,
                                  _PRIORITY_TRAIN_LEAF, "backward"))
            else:
                # step / grad_sync / optimizer.step / train_step wrappers
                intervals.append((span.ts, span.ts + span.dur,
                                  _PRIORITY_TRAIN_OTHER, "other"))
        elif span.subsystem == "fleet":
            intervals.append((span.ts, span.ts + span.dur,
                              _PRIORITY_FLEET, "fleet"))
        elif span.subsystem == "serving" \
                or span.subsystem.startswith("replica"):
            intervals.append((span.ts, span.ts + span.dur,
                              _PRIORITY_SERVE_LEAF, "serving"))
    for inst in data.instants:
        if inst.rank != rank or inst.subsystem != "resilience":
            continue
        # Resilience hooks advance the clock by the stall *before*
        # logging the instant, so the stall interval ends at the instant.
        stall = (float(inst.args.get("detection_latency_s", 0.0) or 0.0)
                 + float(inst.args.get("backoff_s", 0.0) or 0.0))
        if stall > 0:
            intervals.append((inst.ts - stall, inst.ts,
                              _PRIORITY_STALL, "recovery_stall"))
    return intervals


def _sweep(intervals: List[tuple], wall: float) -> Dict[str, float]:
    """Partition ``[0, wall]`` by highest-priority covering interval."""
    buckets = {b: 0.0 for b in BUCKETS}
    if wall <= 0:
        return buckets
    bounds = {0.0, wall}
    for start, end, _, _ in intervals:
        bounds.add(min(max(start, 0.0), wall))
        bounds.add(min(max(end, 0.0), wall))
    points = sorted(bounds)
    # Small active sets (nesting depth); a scan per segment is plenty.
    ordered = sorted(range(len(intervals)),
                     key=lambda i: (intervals[i][2], -intervals[i][0]))
    for lo, hi in zip(points, points[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        chosen = "pipeline_bubble"
        for idx in ordered:
            start, end, _, bucket = intervals[idx]
            if start <= mid < end:
                chosen = bucket
                break
        buckets[chosen] += hi - lo
    return buckets


def attribute(data: TraceData) -> Attribution:
    """Per-rank critical-path time attribution over ``[0, data.wall]``.

    Each rank's timeline is partitioned by a priority sweep: recovery
    stalls > comm spans (split exposed/overlapped by the operator
    markers) > compute spans (split by phase, which already accounts
    recomputation) > ``recompute[...]`` regions > forward/backward
    scheduler spans (their residual is un-spanned elementwise time) >
    other train spans > replica serving spans > fleet router spans;
    uncovered time is the pipeline bubble (idle).
    """
    w = data.wall
    ranks = [RankAttribution(rank=rank, wall=w,
                             buckets=_sweep(_bucket_intervals(data, rank), w))
             for rank in data.ranks()]
    totals = {b: sum(r.buckets[b] for r in ranks) for b in BUCKETS}
    return Attribution(wall=w, ranks=tuple(ranks), totals=totals)


# ---------------------------------------------------------------------------
# Utilization cross-check (traced FLOPs vs perf_model formulas)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtilizationCrosscheck:
    """Trace-derived MFU/HFU reconciled against the analytic formulas."""

    iteration_time: float
    num_gpus: int
    peak_flops_per_gpu: float
    traced_model_flops: float      # fwd + bwd GEMM FLOPs, cluster-wide/iter
    traced_hardware_flops: float   # + recompute
    model_flops: float             # analytic (Appendix A strict)
    hardware_flops: float
    mfu: float                     # from traced FLOPs
    hfu: float
    model_mfu: float               # from perf_model.measured_utilization
    model_hfu: float

    @property
    def mfu_delta(self) -> float:
        return self.mfu - self.model_mfu

    @property
    def hfu_delta(self) -> float:
        return self.hfu - self.model_hfu


def traced_flops_by_phase(data: TraceData) -> Dict[str, float]:
    """Per-tensor-parallel-rank GEMM FLOPs summed by phase."""
    flops: Dict[str, float] = {}
    for span in data.spans:
        if span.subsystem != "compute":
            continue
        phase = str(span.args.get("phase", "forward"))
        flops[phase] = flops.get(phase, 0.0) + float(span.args.get("flops", 0.0))
    return flops


def utilization_crosscheck(
    data: TraceData,
    config: ExperimentConfig,
    num_iterations: int = 1,
    recompute: Recompute = Recompute.NONE,
) -> UtilizationCrosscheck:
    """Reconcile trace-derived MFU/HFU with ``perf_model``'s formulas.

    Traced spans log *per-rank* FLOPs once per tensor-parallel group, so
    cluster FLOPs are the span sum times ``tensor_parallel``.  Both
    sides use the same measured wall time; the only difference is where
    the FLOPs come from (counted spans vs closed forms), so the deltas
    measure model drift, not timing noise.
    """
    from ..hardware import GPUSpec
    from ..perf_model import measured_utilization

    peak_flops_per_gpu = GPUSpec().peak_flops
    iteration = data.wall / max(num_iterations, 1)
    t = config.parallel.tensor_parallel
    by_phase = traced_flops_by_phase(data)
    scale = t / max(num_iterations, 1)
    traced_model = (by_phase.get("forward", 0.0)
                    + by_phase.get("backward", 0.0)) * scale
    traced_hw = traced_model + by_phase.get("recompute", 0.0) * scale
    denom = iteration * peak_flops_per_gpu * config.num_gpus
    util = measured_utilization(config, iteration, recompute=recompute,
                                peak_flops_per_gpu=peak_flops_per_gpu,
                                paper_flops_mode=False)
    return UtilizationCrosscheck(
        iteration_time=iteration,
        num_gpus=config.num_gpus,
        peak_flops_per_gpu=peak_flops_per_gpu,
        traced_model_flops=traced_model,
        traced_hardware_flops=traced_hw,
        model_flops=util.model_flops,
        hardware_flops=util.hardware_flops,
        mfu=traced_model / denom if denom else 0.0,
        hfu=traced_hw / denom if denom else 0.0,
        model_mfu=util.mfu,
        model_hfu=util.hfu,
    )


# ---------------------------------------------------------------------------
# Memory attribution (per-term drift against Equations 1-6)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryTermDrift:
    """Measured-vs-analytic activation bytes, per observable term group."""

    sequence_parallel: bool
    recompute: Recompute
    measured: Dict[str, float]     # term group -> measured bytes
    predicted: Dict[str, float]    # term group -> Eq. 1-4 bytes
    unmapped: Dict[str, float]     # measured categories with no term

    @property
    def drift(self) -> Dict[str, float]:
        terms = sorted(set(self.measured) | set(self.predicted))
        return {t: self.measured.get(t, 0.0) - self.predicted.get(t, 0.0)
                for t in terms}

    @property
    def total_drift(self) -> float:
        return (sum(abs(v) for v in self.drift.values())
                + sum(abs(v) for v in self.unmapped.values()))

    @classmethod
    def of(cls, categories: Dict[str, int], predicted: Dict[str, float],
           sequence_parallel: bool, recompute: Recompute) -> "MemoryTermDrift":
        """Fold measured tracker category bytes into ``recompute``'s term
        groups and match them against ``predicted``; a category with no
        term lands in ``unmapped``."""
        from ..memory_model import term_group_categories

        mapping = term_group_categories(recompute)
        group_of = {cat: group for group, cats in mapping.items()
                    for cat in cats}
        measured: Dict[str, float] = {g: 0.0 for g in mapping}
        unmapped: Dict[str, float] = {}
        for category, nbytes in categories.items():
            if category in group_of:
                measured[group_of[category]] += nbytes
            else:
                unmapped[category] = float(nbytes)
        return cls(sequence_parallel=sequence_parallel, recompute=recompute,
                   measured=measured, predicted=predicted, unmapped=unmapped)


def forward_layer(layout, model, microbatch_size: int, recompute: Recompute,
                  fused: bool, tracker, *scopes) -> None:
    """The one forward every memory observer reads: one abstract layer of
    ``model`` under ``layout``, built from seed 0 and forwarded with
    ``tracker`` (a :class:`~repro.tensor.MemoryTracker`, or a memory
    profiler's ledger) charging its saves, inside ``scopes`` (the
    profiler's, a tracer's)."""
    from contextlib import ExitStack

    from ..layers.transformer import abstract_layer
    from ..tensor import instrument, seed

    if microbatch_size < 1:
        raise ConfigError(
            f"microbatch_size must be >= 1, got {microbatch_size}")
    seed(0)
    layer, x = abstract_layer(layout, model, microbatch_size,
                              recompute=recompute, fused=fused)
    with ExitStack() as stack:
        for scope in (*scopes, instrument(memory=tracker)):
            stack.enter_context(scope)
        layer(x)


def term_drifts(layout, model, microbatch_size: int, recompute: Recompute,
                by_rank: Sequence[Dict[str, int]]) -> List[MemoryTermDrift]:
    """Fold each rank's measured category bytes into term groups and match
    them against ``layout``'s closed form: Equations 1-4 for the
    tensor-parallel layouts, the context layouts' own ``term_groups``
    for Ulysses and ring."""
    from ..memory_model import per_layer_term_groups
    from ..parallel.layout import TensorParallel

    recompute = Recompute(recompute)
    size = layout.group.size
    if isinstance(layout, TensorParallel):
        sp = layout.sequence_parallel
        predicted = per_layer_term_groups(model, microbatch_size, size, sp,
                                          recompute)
    else:
        sp = False
        predicted = layout.term_groups(model, microbatch_size, size, recompute)
    return [MemoryTermDrift.of(categories, predicted, sp, recompute)
            for categories in by_rank]


def layer_term_drift(layout, model, microbatch_size: int,
                     recompute: Recompute,
                     fused: bool = False) -> List[MemoryTermDrift]:
    """Forward one abstract layer under ``layout`` with a fresh tracker and
    match each rank's saved bytes, term by term, against the layout's
    closed form (:func:`term_drifts`).  Zero drift on every (layout,
    recompute, fused) cell; ``fused=True`` runs the kernels of
    :mod:`repro.fusion`, whose nodes save the same logical tensors as the
    chains they replace."""
    from ..tensor import MemoryTracker

    tracker = MemoryTracker()
    forward_layer(layout, model, microbatch_size, recompute, fused, tracker)
    return term_drifts(layout, model, microbatch_size, recompute,
                       [tracker.category_breakdown(rank)
                        for rank in range(layout.group.size)])


def memory_term_drift(model, microbatch_size: int, tensor_parallel: int,
                      sequence_parallel: bool,
                      recompute: Recompute,
                      fused: bool = False) -> MemoryTermDrift:
    """Rank 0's :func:`layer_term_drift` under ``tensor_parallel``-way
    tensor parallelism: the measured side of the Table 2 cross-check at
    per-term granularity."""
    from ..comm.process_group import ProcessGroup
    from ..parallel.layout import TensorParallel

    return layer_term_drift(
        TensorParallel(ProcessGroup(tensor_parallel), sequence_parallel),
        model, microbatch_size, recompute, fused)[0]


MEMORY_DRIFT_CASES = (
    (False, Recompute.NONE),
    (True, Recompute.NONE),
    (False, Recompute.SELECTIVE),
    (True, Recompute.SELECTIVE),
    (False, Recompute.FULL),
    (True, Recompute.FULL),
)


def memory_drift_report(model, microbatch_size: int,
                        tensor_parallel: int,
                        fused: bool = False) -> List[MemoryTermDrift]:
    """Per-term drift across all Table 2 (SP, recompute) combinations."""
    return [memory_term_drift(model, microbatch_size, tensor_parallel, sp, rc,
                              fused=fused)
            for sp, rc in MEMORY_DRIFT_CASES]


# ---------------------------------------------------------------------------
# Cross-rank critical path (1F1B dependency walk over traced spans)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPathNode:
    kind: str          # "forward" | "backward"
    microbatch: int
    group: int
    rank: int
    ts: float
    dur: float


@dataclass(frozen=True)
class CriticalPath:
    """The dependency chain ending at the last-finishing pipeline op."""

    nodes: Tuple[CriticalPathNode, ...]
    span: float                    # end of last node - start of first
    busy: float                    # sum of node durations on the path
    time_by_kind: Dict[str, float]


def schedule_critical_path(data: TraceData,
                           num_groups: int) -> Optional[CriticalPath]:
    """Walk the 1F1B dependency edges backward from the last-finishing
    ``forward mbI gG`` / ``backward mbI gG`` span.

    Edges come from :func:`repro.pipeline_sim.op_dependency` (cross-rank
    dataflow) plus the same-rank program order; at each step the
    predecessor finishing latest is on the critical path.  Spans from
    repeated iterations are separated by occurrence index.
    """
    from ..pipeline_sim import op_dependency

    occurrences: Dict[tuple, int] = {}
    nodes: Dict[tuple, CriticalPathNode] = {}
    per_rank: Dict[int, List[tuple]] = {}
    for span in sorted(data.spans, key=lambda s: (s.ts, s.name)):
        if span.subsystem != "train":
            continue
        m = _PIPE_SPAN.match(span.name)
        if not m:
            continue
        kind, mb, group = m.group(1), int(m.group(2)), int(m.group(3))
        base = ("F" if kind == "forward" else "B", mb, group)
        step = occurrences.get(base, 0)
        occurrences[base] = step + 1
        key = base + (step,)
        nodes[key] = CriticalPathNode(kind=kind, microbatch=mb, group=group,
                                      rank=span.rank, ts=span.ts, dur=span.dur)
        per_rank.setdefault(span.rank, []).append(key)
    if not nodes:
        return None

    prev_on_rank: Dict[tuple, tuple] = {}
    for keys in per_rank.values():
        for prev, cur in zip(keys, keys[1:]):
            prev_on_rank[cur] = prev

    def predecessors(key: tuple):
        letter, mb, group, step = key
        out = []
        dep = op_dependency((letter, mb, group), num_groups)
        if dep is not None:
            dep_key = dep + (step,)
            if dep_key in nodes and dep_key != key:
                out.append(dep_key)
        seq = prev_on_rank.get(key)
        if seq is not None:
            out.append(seq)
        return out

    def end(key: tuple) -> float:
        node = nodes[key]
        return node.ts + node.dur

    current = max(nodes, key=lambda k: (end(k), k))
    path = [current]
    while True:
        preds = predecessors(current)
        if not preds:
            break
        current = max(preds, key=lambda k: (end(k), preds.index(k) == 0))
        path.append(current)
    path.reverse()

    chain = tuple(nodes[k] for k in path)
    by_kind: Dict[str, float] = {"forward": 0.0, "backward": 0.0}
    for node in chain:
        by_kind[node.kind] = by_kind.get(node.kind, 0.0) + node.dur
    return CriticalPath(
        nodes=chain,
        span=end(path[-1]) - nodes[path[0]].ts,
        busy=sum(n.dur for n in chain),
        time_by_kind=by_kind,
    )
