"""Chrome-trace export of simulated pipeline schedules.

Writes the ``chrome://tracing`` / Perfetto JSON event format so a
simulated 1F1B or interleaved iteration (e.g. the 530B schedule behind
Table 5) can be inspected visually: one row per pipeline rank, one
duration event per forward/recompute/backward segment, colored by phase.
"""

from __future__ import annotations

import json
from typing import List

from .schedule import ScheduleTable
from .timeline import TimelineCosts, _simulate_events

#: chrome traces use microseconds; our durations are arbitrary units when
#: they come from TimelineCosts, seconds when from the perf model.
_COLOR = {"F": "good", "f": "white", "R": "terrible", "B": "thread_state_running"}
_NAME = {"F": "forward (checkpointed)", "f": "forward (stored)",
         "R": "recompute", "B": "backward"}


def chrome_trace_events(table: ScheduleTable, costs: TimelineCosts,
                        time_scale: float = 1e6) -> List[dict]:
    """The trace as a list of Chrome duration events (``ph: "X"``)."""
    events, _makespan = _simulate_events(table, costs)
    out = []
    for ev in events:
        out.append({
            "name": _NAME[ev.symbol],
            "cat": "pipeline",
            "ph": "X",
            "ts": ev.start * time_scale,
            "dur": (ev.end - ev.start) * time_scale,
            "pid": 0,
            "tid": ev.rank,
            "cname": _COLOR[ev.symbol],
        })
    # name the rows
    for rank in range(len(table.starts) - 1):
        out.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
            "args": {"name": f"pipeline rank {rank}"},
        })
    return out


def export_chrome_trace(table: ScheduleTable, costs: TimelineCosts,
                        path: str, time_scale: float = 1e6) -> int:
    """Write the trace JSON to ``path``; returns the number of events."""
    events = chrome_trace_events(table, costs, time_scale=time_scale)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
