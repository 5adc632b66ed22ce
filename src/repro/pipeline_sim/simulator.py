"""Event-driven execution of a pipeline schedule.

Each rank executes its op list strictly in order (one compute stream per
GPU); an op additionally waits for its 1F1B dependency
(:func:`~repro.pipeline_sim.schedule.op_dependency`), plus a
point-to-point activation or gradient send when that ran on another rank.
The simulator yields the iteration makespan, per-rank busy time / bubble
fraction, and a per-rank activation-memory high-water mark (activations
charged at forward completion, released when the backward completes —
optionally including the Appendix-B output tensors), which cross-checks
the closed-form :mod:`repro.memory_model.pipeline` profile.

It prices the dataflow one wavefront level at a time: all ops of a
level finish at ``max(previous op on the rank, dependency + send) +
duration`` in one array expression — per op the float operations of a
per-op loop, so every value is bitwise that loop's.  :func:`price`, the
one pricing body, reads only a table's compact
:class:`~repro.pipeline_sim.schedule.LevelPlan` (the perf model prices
plans kept by ``schedule.level_plan``) for the makespan and busy times;
:func:`simulate` adds the peaks and ``SimResult.op_finish``, built on
first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Tuple

import numpy as np

from .schedule import LevelPlan, ScheduleTable


@dataclass(frozen=True)
class PipelineCosts:
    """Durations and memory charges driving a schedule simulation.

    ``forward_time`` / ``backward_time`` map a layer-group index to
    seconds (so the embedding-bearing group 0 and head-bearing last group
    can cost more).  ``activation_bytes`` is charged per (microbatch,
    group) from forward completion to backward completion.
    """

    forward_time: Callable[[int], float]
    backward_time: Callable[[int], float]
    p2p_time: float = 0.0
    activation_bytes: Callable[[int], float] = lambda g: 0.0
    output_tensor_bytes: float = 0.0
    deallocate_output_tensor: bool = True


@dataclass
class SimResult:
    makespan: float
    busy_time: List[float]
    _peaks: Callable[[], List[float]] = field(
        repr=False, compare=False, default=list)
    _issue_order: Callable[[], Dict[Tuple[str, int, int], float]] = field(
        repr=False, compare=False, default=dict)

    @cached_property
    def peak_activation_bytes(self) -> List[float]:
        """Per-rank activation high-water mark; built on first access."""
        return self._peaks()

    @cached_property
    def op_finish(self) -> Dict[Tuple[str, int, int], float]:
        """Finish time per ``(kind, microbatch, group)``, inserted in the
        table's issue order; built on first access."""
        return self._issue_order()

    @property
    def bubble_fraction(self) -> float:
        """Idle fraction of the busiest rank's timeline, averaged over ranks."""
        if self.makespan == 0:
            return 0.0
        return 1.0 - sum(self.busy_time) / (len(self.busy_time) * self.makespan)

    def bubble_fraction_of(self, rank: int) -> float:
        if self.makespan == 0:
            return 0.0
        return 1.0 - self.busy_time[rank] / self.makespan


def price(plan: LevelPlan, costs: PipelineCosts
          ) -> Tuple[float, List[float], np.ndarray]:
    """The one pricing body: ``plan``'s makespan, per-rank busy time and
    finish time per level position under ``costs``."""
    groups = range(plan.num_groups)  # costs depend on the group only
    per_code = np.array([*map(costs.forward_time, groups),
                         *map(costs.backward_time, groups)], dtype=float)
    # slots N, N + 1: what "waits for nothing" / "first op of its rank" read
    finish = np.empty(len(plan.code) + 2)
    finish[-2:] = (-np.inf, 0.0)
    plan.relax(finish, np.where(plan.remote, costs.p2p_time, 0.0),
               per_code[plan.code])

    # per rank: its slice of the rank-major durations, summed in the per-op
    # loop's order by np.add.accumulate (add.reduce would reassociate); the
    # loop's start from 0.0 can only flip a zero's sign, which `0.0 +`
    # restores.  An empty rank's clock reads the 0.0 slot.
    duration = per_code[plan.rank_code]
    starts = plan.starts.tolist()
    busy = [0.0 + float(np.add.accumulate(duration[a:b])[-1]) if b > a
            else 0.0 for a, b in zip(starts, starts[1:])]
    return max(finish[plan.last].tolist()), busy, finish


def simulate(table: ScheduleTable, costs: PipelineCosts) -> SimResult:
    """Run the schedule to completion; raises on deadlock."""
    order, plan = table._levels
    makespan, busy, finish = price(plan, costs)
    is_forward, group = table.forward, table.group  # rank-major
    spans = list(zip(plan.starts[:-1].tolist(), plan.starts[1:].tolist()))

    def peaks() -> List[float]:
        # per rank as `price` sums busy time; `max(0.0, ...)` is its `0.0 +`
        held = np.array(list(map(costs.activation_bytes,
                                 range(table.num_groups))), dtype=float)
        if not costs.deallocate_output_tensor:
            held += costs.output_tensor_bytes
        charge = np.where(is_forward, held[group], -held[group])
        return [max(0.0, float(np.add.accumulate(charge[a:b])[
            is_forward[a:b]].max(initial=-np.inf))) for a, b in spans]

    def issue_order() -> Dict[Tuple[str, int, int], float]:
        at = np.empty(len(order))       # finish times, rank-major
        at[order] = finish[:len(order)]
        return dict(zip((key for _rank, key in table.issued()),
                        at[table.issue_order].tolist()))

    return SimResult(makespan=makespan, busy_time=busy, _peaks=peaks,
                     _issue_order=issue_order)
