"""Event-driven execution of a pipeline schedule.

Each rank executes its op list strictly in order (one compute stream per
GPU); an op additionally waits for its 1F1B dependency
(:func:`~repro.pipeline_sim.schedule.op_dependency`), plus a
point-to-point activation or gradient send when that ran on another rank.

:func:`price`, the one pricing body, evaluates that dataflow one
wavefront level at a time over a table's compact
:class:`~repro.pipeline_sim.schedule.LevelPlan` (the perf model prices
plans kept by ``schedule.level_plan``): all ops of a level finish at
``max(previous op on the rank, dependency + send) + duration`` in one
array expression — per op the float operations of a per-op loop, so
every value is bitwise that loop's.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ScheduleError
from .schedule import LevelPlan


def price(plan: LevelPlan, forward: Sequence[float],
          backward: Sequence[float], p2p: float = 0.0
          ) -> Tuple[float, List[float], np.ndarray]:
    """``plan``'s makespan, per-rank busy time and finish time per level
    position, given each group's forward and backward seconds and the
    seconds of a send between ranks."""
    if not len(forward) == len(backward) == plan.num_groups:
        raise ScheduleError(f"pricing needs a forward and a backward time "
                            f"for each of {plan.num_groups} group(s)")
    per_code = np.array([*forward, *backward], dtype=float)
    # slots N, N + 1: what "waits for nothing" / "first op of its rank" read
    finish = np.empty(len(plan.code) + 2)
    finish[-2:] = (-np.inf, 0.0)
    plan.relax(finish, np.where(plan.remote, p2p, 0.0), per_code[plan.code])

    # per rank: its slice of the rank-major durations, summed in the per-op
    # loop's order by np.add.accumulate (add.reduce would reassociate); the
    # loop's start from 0.0 can only flip a zero's sign, which `0.0 +`
    # restores.  An empty rank's clock reads the 0.0 slot.
    duration = per_code[plan.rank_code]
    starts = plan.starts.tolist()
    busy = [0.0 + float(np.add.accumulate(duration[a:b])[-1]) if b > a
            else 0.0 for a, b in zip(starts, starts[1:])]
    return max(finish[plan.last].tolist()), busy, finish
