"""Merged Perfetto / ``chrome://tracing`` JSON export.

One trace file interleaves every instrumented event source on the same
simulated-time axis:

* one **pid** per subsystem (``train``, ``compute``, ``comm``,
  ``memory``, ``checkpoint``, ``resilience``, ``pipeline``,
  ``serving``, ``fleet``, plus one per serving replica —
  ``replica<N>`` maps to pid ``10 + N``), named with ``process_name``
  metadata events;
* one **tid** per rank inside a subsystem, named with ``thread_name``
  metadata events;
* duration events (``ph: "X"``) for tracer spans, instant events
  (``ph: "i"``) for faults/recoveries/checkpoints, counter events
  (``ph: "C"``) for the memory trackers' activation-byte watermarks;
* optionally the analytic Figure-10 schedule (:func:`schedule_events`,
  one row per pipeline rank under the ``pipeline`` pid) and the
  activation ledger's live-bytes tracks (:func:`counter_events`).

This is the one module that knows the Chrome event format.  Events are
sorted by ``(pid, tid, ts, name)`` so every track is monotone in ``ts``
and the byte stream is deterministic.  :func:`validate_trace_events` is
the schema contract the tests and the ``repro trace`` CLI both enforce.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from .serialize import to_jsonable
from .tracer import Tracer

#: Canonical subsystem -> pid assignment (stable across runs).  The
#: telemetry view tracks (``request``: one thread per request index;
#: ``monitor``: SLO-monitor detections) live far past the replica block
#: so arbitrarily large fleets never collide with them.
SUBSYSTEM_PIDS: Dict[str, int] = {
    "train": 1,
    "compute": 2,
    "comm": 3,
    "memory": 4,
    "checkpoint": 5,
    "resilience": 6,
    "pipeline": 7,
    "serving": 8,
    "fleet": 9,
    "request": 900,
    "monitor": 901,
}

#: Serving replicas get their own Perfetto processes: subsystem
#: ``replica<N>`` maps to pid ``REPLICA_PID_BASE + N``, directly after
#: the canonical block so fleet traces group router + replicas together.
REPLICA_PID_BASE = 10

#: Chrome traces use microseconds; tracer clocks are simulated seconds.
TIME_SCALE = 1e6


def _pid_for(subsystem: str) -> int:
    if subsystem in SUBSYSTEM_PIDS:
        return SUBSYSTEM_PIDS[subsystem]
    if subsystem.startswith("replica") and subsystem[7:].isdigit():
        return REPLICA_PID_BASE + int(subsystem[7:])
    # Unknown subsystems get a stable pid past the canonical block.
    return 100 + sum(ord(c) for c in subsystem) % 100


def _metadata(pid: int, name: str, tids: Iterable[int],
              thread_prefix: str = "rank") -> List[dict]:
    out = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name}}]
    for tid in sorted(set(tids)):
        out.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                    "args": {"name": f"{thread_prefix} {tid}"}})
    return out


def tracer_events(tracer: Tracer) -> List[dict]:
    """Tracer spans/instants/memory counters as Chrome trace events."""
    out: List[dict] = []
    tids_by_subsystem: Dict[str, set] = {}

    for span in tracer.spans:
        pid = _pid_for(span.subsystem)
        tids_by_subsystem.setdefault(span.subsystem, set()).add(span.rank)
        args = dict(to_jsonable(span.args))
        if span.id >= 0:
            # Stream ids: survive the round-trip through JSON so the
            # offline analysis can rebuild the span hierarchy.
            args["span"] = span.id
            args["parent"] = span.parent
        out.append({
            "name": span.name, "cat": span.subsystem, "ph": "X",
            "ts": span.ts * TIME_SCALE, "dur": span.dur * TIME_SCALE,
            "pid": pid, "tid": span.rank, "args": args,
        })
    for inst in tracer.instants:
        pid = _pid_for(inst.subsystem)
        tids_by_subsystem.setdefault(inst.subsystem, set()).add(inst.rank)
        out.append({
            "name": inst.name, "cat": inst.subsystem, "ph": "i", "s": "t",
            "ts": inst.ts * TIME_SCALE, "pid": pid, "tid": inst.rank,
            "args": to_jsonable(inst.args),
        })

    memory_pid = _pid_for("memory")
    have_memory = False
    for name in sorted(tracer.watched_trackers()):
        tracker = tracer.watched_trackers()[name]
        for event in tracker.watermark_events():
            have_memory = True
            out.append({
                "name": f"activation_bytes[{name}/rank {event.rank}]",
                "cat": "memory", "ph": "C", "ts": event.t * TIME_SCALE,
                "pid": memory_pid, "tid": 0,
                "args": {"live": event.live_bytes, "peak": event.peak_bytes},
            })

    for subsystem, tids in sorted(tids_by_subsystem.items()):
        prefix = "request" if subsystem == "request" else "rank"
        out.extend(_metadata(_pid_for(subsystem), subsystem, tids, prefix))
    if have_memory:
        out.extend(_metadata(memory_pid, "memory", [0], "counters"))
    return out


def counter_events(ledger) -> List[dict]:
    """A :class:`~repro.observability.memprof.MemoryLedger`'s counter
    tracks: live bytes per category per rank over the ledger timeline,
    plus total live bytes per rank.  Append to a trace via
    ``export_trace(..., extra_events=...)``."""
    pid = _pid_for("memory")
    events: List[dict] = []
    for ev in ledger.timeline:
        ts = ev.t * TIME_SCALE
        events.append({
            "name": f"memprof_bytes[{ev.category}/rank {ev.rank}]",
            "cat": "memory", "ph": "C", "ts": ts, "pid": pid, "tid": 0,
            "args": {"live": ev.category_bytes},
        })
        events.append({
            "name": f"memprof_bytes[total/rank {ev.rank}]",
            "cat": "memory", "ph": "C", "ts": ts, "pid": pid, "tid": 0,
            "args": {"live": ev.live_bytes},
        })
    if events:
        events.extend(_metadata(pid, "memory", [0], "counters"))
    return events


#: Figure 10's segment kinds: the event name and Chrome colour of the
#: checkpointed forward, the all-saved forward, recompute and backward.
_SEGMENT_NAME = {"F": "forward (checkpointed)", "f": "forward (stored)",
                 "R": "recompute", "B": "backward"}
_SEGMENT_COLOR = {"F": "good", "f": "white", "R": "terrible",
                  "B": "thread_state_running"}


def schedule_events(table, costs) -> List[dict]:
    """The analytic pipeline schedule of Figure 10 (a ``ScheduleTable``
    priced by ``TimelineCosts``) as duration events under the
    ``pipeline`` pid, one row per pipeline rank, in issue order."""
    from ..pipeline_sim.timeline import simulate_timeline

    pid = _pid_for("pipeline")
    segments, _makespan = simulate_timeline(table, costs)
    out = [{
        "name": _SEGMENT_NAME[seg.symbol], "cat": "pipeline", "ph": "X",
        "ts": seg.start * TIME_SCALE,
        "dur": (seg.end - seg.start) * TIME_SCALE,
        "pid": pid, "tid": seg.rank, "cname": _SEGMENT_COLOR[seg.symbol],
    } for seg in segments]
    out.extend(_metadata(pid, "pipeline", range(len(table.starts) - 1),
                         "pipeline rank"))
    return out


def _sort_key(event: dict):
    # Metadata first (no ts), then per-track monotone time.
    is_meta = 0 if event.get("ph") == "M" else 1
    return (event.get("pid", 0), event.get("tid", 0), is_meta,
            event.get("ts", -1.0), event.get("name", ""))


def merged_trace(tracer: Tracer,
                 extra_events: Optional[List[dict]] = None) -> dict:
    """The full trace document: tracer + extra sources, sorted and ready
    for ``json.dump``."""
    events = tracer_events(tracer)
    if extra_events:
        events.extend(extra_events)
    events.sort(key=_sort_key)
    return {"traceEvents": to_jsonable(events), "displayTimeUnit": "ms"}


def export_trace(tracer: Tracer, path: str,
                 extra_events: Optional[List[dict]] = None) -> int:
    """Write the merged trace to ``path``; returns the event count.

    The byte stream is canonical (sorted keys, fixed separators) so two
    runs at the same seed write identical files.
    """
    doc = merged_trace(tracer, extra_events)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(doc["traceEvents"])


#: Phase letters this exporter can legitimately produce.  Anything else
#: is a schema violation.
KNOWN_PHASES = frozenset({"M", "X", "i", "I", "C", "B", "E"})

#: Legal ``args["phase"]`` tags on spans: the training execution phases
#: plus the serving lifecycle phases the scheduler emits.  The offline
#: analysis buckets by these strings, so an unknown tag would silently
#: fall out of every attribution — fail loudly here instead.
SPAN_PHASES = frozenset({
    "forward", "backward", "recompute",            # ExecutionPhase values
    "prefill", "decode", "preempt", "resume",      # serving lifecycle
    "dispatch", "migrate", "recover", "shed",      # fleet router actions
    "request", "monitor",                          # telemetry view tracks
})


def validate_trace_events(events: List[dict]) -> None:
    """Assert the Perfetto-loadable schema contract; raises ``ValueError``.

    Checks, per the trace tests' requirements: every event has a known
    ``ph``, every non-metadata event has ``ts/pid/tid`` with integer
    non-negative pid/tid and non-negative ts, duration events carry
    non-negative ``dur``, ``ts`` is monotone non-decreasing within each
    ``(pid, tid)`` track, every pid that emits events also carries
    ``process_name`` metadata, and any ``args["phase"]`` tag on a span
    is a known training or serving phase (:data:`SPAN_PHASES`).

    Cross-track **flow events** are checked structurally: a span may
    carry ``args["flow_out"]`` (the producing side of a causal link,
    e.g. a router dispatch) and/or ``args["flow_in"]`` (the consuming
    side, e.g. the replica admission it caused).  Flow ids must be
    non-negative integers and every id must appear on *both* sides —
    a dangling id means a cross-replica link was cut mid-emission.
    """
    last_ts: Dict[tuple, float] = {}
    named_pids = set()
    used_pids = set()
    flow_out: set = set()
    flow_in: set = set()
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"event is not an object: {event!r}")
        ph = event.get("ph")
        if ph is None:
            raise ValueError(f"event missing 'ph': {event!r}")
        if ph not in KNOWN_PHASES:
            raise ValueError(f"unknown phase {ph!r}: {event!r}")
        if ph == "M":
            if event.get("name") == "process_name":
                named_pids.add(event["pid"])
            continue
        for key in ("ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event missing {key!r}: {event!r}")
        for key in ("pid", "tid"):
            value = event[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"bad {key} {value!r} (want int >= 0): {event!r}")
        used_pids.add(event["pid"])
        if event["ts"] < 0:
            raise ValueError(f"negative ts: {event!r}")
        if ph == "X":
            if "dur" not in event:
                raise ValueError(f"duration event missing 'dur': {event!r}")
            if event["dur"] < 0:
                raise ValueError(f"negative dur: {event!r}")
            tag = event.get("args", {}).get("phase")
            if tag is not None and tag not in SPAN_PHASES:
                raise ValueError(f"unknown span phase tag {tag!r}: {event!r}")
            for side, seen in (("flow_out", flow_out), ("flow_in", flow_in)):
                flow = event.get("args", {}).get(side)
                if flow is None:
                    continue
                if not isinstance(flow, int) or isinstance(flow, bool) \
                        or flow < 0:
                    raise ValueError(
                        f"bad {side} id {flow!r} (want int >= 0): {event!r}")
                seen.add(flow)
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(
                    f"counter event needs a non-empty args dict: {event!r}")
            for series, value in args.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"bad counter value {series}={value!r} "
                        f"(want number >= 0): {event!r}")
        if ph in ("X", "i", "I", "C"):
            track = (event["pid"], event["tid"])
            if event["ts"] < last_ts.get(track, 0.0):
                raise ValueError(
                    f"non-monotone ts on track {track}: {event!r}")
            last_ts[track] = event["ts"]
    unnamed = used_pids - named_pids
    if unnamed:
        raise ValueError(f"pids without process_name metadata: {sorted(unnamed)}")
    dangling = (flow_out - flow_in) | (flow_in - flow_out)
    if dangling:
        raise ValueError(
            f"dangling flow ids (seen on only one side): {sorted(dangling)}")


def read_trace_events(path: str) -> List[dict]:
    """Load ``path`` and return its validated ``traceEvents``; raises
    ``ValueError`` for anything that is not a valid Chrome trace."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                  list):
        raise ValueError("want a JSON object with a 'traceEvents' list")
    validate_trace_events(doc["traceEvents"])
    return doc["traceEvents"]


def validate_trace_file(path: str) -> int:
    """Load ``path`` and validate it; returns the number of events."""
    return len(read_trace_events(path))
