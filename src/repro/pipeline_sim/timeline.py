"""ASCII schedule timelines (paper Figure 10).

Renders the computation pattern of each pipeline rank over time, one
character per time cell:

* ``F`` — forward pass with activations checkpointed (Figure 10's yellow),
* ``f`` — forward pass with **all activations saved** (white),
* ``R`` — recomputation (red),
* ``B`` — back-propagation (blue),
* ``.`` — idle (pipeline bubble).

The renderer follows the schedule table's
:attr:`~repro.pipeline_sim.schedule.ScheduleTable.issue_order`, the order
the ``PipelinedGPT`` executor runs and ``SimResult.op_finish`` records,
splitting each backward op into its recompute and gradient components so
the Figure 10.a vs 10.b contrast (checkpoint-everything vs
microbatch-level recomputation) is visible directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigError
from .schedule import (ScheduleTable, StorageWindow, op_dependency,
                       schedule_table)


@dataclass(frozen=True)
class TimelineCosts:
    """Per-op durations for timeline rendering (arbitrary units).

    ``full_storage_slots`` enables the Appendix C moving window: each
    rank stores all activations for up to that many in-flight
    microbatches, whose backward then needs no recompute segment.
    """

    forward: float = 1.0
    recompute: float = 1.0
    backward: float = 2.0
    full_storage_slots: int = 0

    def __post_init__(self):
        # a zero forward or backward leaves no cell width to render with;
        # a zero recompute only drops the R segment
        if not (self.forward > 0 and self.backward > 0
                and self.recompute >= 0 and self.full_storage_slots >= 0):
            raise ConfigError(
                f"timeline costs need forward > 0, backward > 0, "
                f"recompute >= 0 and full_storage_slots >= 0, got {self}")


@dataclass
class TimelineEvent:
    rank: int
    start: float
    end: float
    symbol: str


def simulate_timeline(table: ScheduleTable, costs: TimelineCosts
                      ) -> Tuple[List[TimelineEvent], float]:
    """Every rank's segments in issue order, and the makespan: the walk
    both the ASCII renderer and the Perfetto export
    (:func:`repro.observability.perfetto.schedule_events`) draw."""
    p = len(table.starts) - 1
    done = {}
    clock = [0.0] * p
    events: List[TimelineEvent] = []
    window = StorageWindow([costs.full_storage_slots] * p, table)
    for rank, key in table.issued():
        end = clock[rank]
        dep = op_dependency(key, table.num_groups)
        if dep is not None:
            end = max(end, done[dep])
        letter, microbatch, _group = key
        if letter == "F":
            symbol = "f" if window.forward(rank, microbatch) else "F"
            segments = [(symbol, costs.forward)]
        elif window.backward(rank, microbatch) or costs.recompute <= 0:
            segments = [("B", costs.backward)]
        else:
            segments = [("R", costs.recompute), ("B", costs.backward)]
        for symbol, duration in segments:
            events.append(TimelineEvent(rank, end, end + duration, symbol))
            end += duration
        done[key] = end
        clock[rank] = end
    return events, max(clock)


#: Widest rendered row, in cells: a longer schedule gets wider cells
MAX_WIDTH = 120


def render_timeline(table: ScheduleTable, costs: TimelineCosts) -> str:
    """One line per pipeline rank, one character per cell: the shortest
    segment's duration, widened so a row fits in :data:`MAX_WIDTH`."""
    events, makespan = simulate_timeline(table, costs)
    smallest = min(costs.forward, costs.backward,
                   costs.recompute if costs.recompute > 0 else costs.forward)
    cell = max(smallest, makespan / MAX_WIDTH)
    n_cells = max(1, round(makespan / cell))
    grid = [["."] * n_cells for _ in range(len(table.starts) - 1)]
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


def figure10() -> str:
    """The paper's Figure 10: baseline (a) vs microbatch-level
    recomputation (b) on the first-stage computation pattern, for four
    pipeline ranks, nine microbatches and one full-storage slot."""
    table = schedule_table(4, 9)
    base = render_timeline(table, TimelineCosts(
        forward=1, recompute=1, backward=2))
    window = render_timeline(table, TimelineCosts(
        forward=1, recompute=1, backward=2, full_storage_slots=1))
    return (
        "(a) baseline: every microbatch checkpointed and recomputed\n"
        f"{base}\n\n"
        "(b) microbatch-level recomputation (1 full-storage "
        "slot(s) per rank; 'f' microbatches skip the R segment)\n"
        f"{window}"
    )
