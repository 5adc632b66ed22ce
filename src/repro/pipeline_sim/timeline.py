"""ASCII schedule timelines (paper Figure 10).

Renders the computation pattern of each pipeline rank over time, one
character per time cell:

* ``F`` — forward pass with activations checkpointed (Figure 10's yellow),
* ``f`` — forward pass with **all activations saved** (white),
* ``R`` — recomputation (red),
* ``B`` — back-propagation (blue),
* ``.`` — idle (pipeline bubble).

The renderer consumes the same
:func:`~repro.pipeline_sim.schedule.walk_schedule` order as
:func:`repro.pipeline_sim.simulator.simulate`, splitting each backward op
into its recompute and gradient components so the Figure 10.a vs 10.b
contrast (checkpoint-everything vs microbatch-level recomputation) is
visible directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .schedule import Op, OpKind, StorageWindow, schedule_1f1b, walk_schedule


@dataclass(frozen=True)
class TimelineCosts:
    """Per-op durations for timeline rendering (arbitrary units).

    ``full_storage_slots`` enables the Appendix C moving window: each
    rank stores all activations for up to that many in-flight
    microbatches, whose backward then needs no recompute segment.
    """

    num_groups: int
    forward: float = 1.0
    recompute: float = 1.0
    backward: float = 2.0
    full_storage_slots: int = 0


@dataclass
class TimelineEvent:
    rank: int
    start: float
    end: float
    symbol: str


def _simulate_events(ranks_ops: List[List[Op]],
                     costs: TimelineCosts) -> Tuple[List[TimelineEvent], float]:
    p = len(ranks_ops)
    done = {}
    clock = [0.0] * p
    events: List[TimelineEvent] = []
    window = StorageWindow([costs.full_storage_slots] * p, ranks_ops)
    for rank, op, key, dep in walk_schedule(ranks_ops, costs.num_groups, done):
        end = clock[rank]
        if dep is not None:
            end = max(end, done[dep])
        if op.kind == OpKind.F:
            symbol = "f" if window.forward(rank, op.microbatch) else "F"
            segments = [(symbol, costs.forward)]
        elif window.backward(rank, op.microbatch) or costs.recompute <= 0:
            segments = [("B", costs.backward)]
        else:
            segments = [("R", costs.recompute), ("B", costs.backward)]
        for symbol, duration in segments:
            events.append(TimelineEvent(rank, end, end + duration, symbol))
            end += duration
        done[key] = end
        clock[rank] = end
    return events, max(clock)


def render_timeline(ranks_ops: List[List[Op]], costs: TimelineCosts,
                    cell: Optional[float] = None, max_width: int = 120) -> str:
    """One line per pipeline rank, one character per ``cell`` time units."""
    events, makespan = _simulate_events(ranks_ops, costs)
    if cell is None:
        smallest = min(costs.forward, costs.backward,
                       costs.recompute if costs.recompute > 0 else costs.forward)
        cell = max(smallest, makespan / max_width)
    n_cells = max(1, round(makespan / cell))
    grid = [["."] * n_cells for _ in ranks_ops]
    for ev in events:
        lo = int(round(ev.start / cell))
        hi = max(lo + 1, int(round(ev.end / cell)))
        for i in range(lo, min(hi, n_cells)):
            grid[ev.rank][i] = ev.symbol
    lines = [
        f"rank {rank}: {''.join(row)}" for rank, row in enumerate(grid)
    ]
    legend = ("[F=forward (checkpointed)  f=forward (all saved)  "
              "R=recompute  B=backward  .=idle]")
    return "\n".join([legend] + lines)


def figure10(pipeline_parallel: int = 4, num_microbatches: int = 9,
             full_storage_slots: int = 1) -> str:
    """The paper's Figure 10: baseline (a) vs microbatch-level
    recomputation (b) on the first-stage computation pattern."""
    sched = schedule_1f1b(pipeline_parallel, num_microbatches)
    base = render_timeline(sched, TimelineCosts(
        num_groups=pipeline_parallel, forward=1, recompute=1, backward=2))
    window = render_timeline(sched, TimelineCosts(
        num_groups=pipeline_parallel, forward=1, recompute=1, backward=2,
        full_storage_slots=full_storage_slots))
    return (
        "(a) baseline: every microbatch checkpointed and recomputed\n"
        f"{base}\n\n"
        f"(b) microbatch-level recomputation ({full_storage_slots} full-storage "
        "slot(s) per rank; 'f' microbatches skip the R segment)\n"
        f"{window}"
    )
