"""Event-driven execution of a pipeline schedule.

Each rank executes its op list strictly in order (one compute stream per
GPU); an op additionally waits for its cross-rank dependency:

* ``F(mb, g)`` needs ``F(mb, g-1)`` plus a point-to-point activation send;
* ``B(mb, g)`` needs ``B(mb, g+1)`` (gradient send), or its own
  ``F(mb, G-1)`` on the last group.

The simulator yields the iteration makespan, per-rank busy time / bubble
fraction, and a per-rank activation-memory high-water mark (activations
charged at forward completion, released when the backward completes —
optionally including the Appendix-B output tensors), which cross-checks
the closed-form :mod:`repro.memory_model.pipeline` profile.

It evaluates the schedule's dataflow one wavefront level at a time
(:class:`~repro.pipeline_sim.schedule.ScheduleTable`'s level order): all
ops of a level finish at ``max(previous op on the rank, dependency +
send) + duration`` in one array expression — per op, the same float
operations :func:`~repro.pipeline_sim.schedule.walk_schedule`'s order
would apply, so every value is bitwise the per-op walk's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from ..errors import ScheduleError
from .schedule import Op, ScheduleTable, walk_schedule


@dataclass(frozen=True)
class PipelineCosts:
    """Durations and memory charges driving a schedule simulation.

    ``forward_time`` / ``backward_time`` map a layer-group index to
    seconds (so the embedding-bearing group 0 and head-bearing last group
    can cost more).  ``activation_bytes`` is charged per (microbatch,
    group) from forward completion to backward completion.
    """

    num_groups: int
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
    peak_activation_bytes: List[float]
    _issue_order: Callable[[], Dict[Tuple[str, int, int], float]] = field(
        repr=False, compare=False, default=dict)

    @cached_property
    def op_finish(self) -> Dict[Tuple[str, int, int], float]:
        """Finish time per ``(kind, microbatch, group)``, inserted in
        :func:`~repro.pipeline_sim.schedule.walk_schedule` issue order;
        built on first access."""
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


def simulate(ranks_ops: Union[ScheduleTable, List[List[Op]]],
             costs: PipelineCosts) -> SimResult:
    """Run the schedule to completion; raises on deadlock.

    ``ranks_ops`` is a :class:`ScheduleTable` or per-rank ``Op`` lists
    (converted to a table once, here)."""
    if isinstance(ranks_ops, ScheduleTable):
        table = ranks_ops
        if table.num_groups != costs.num_groups:
            raise ScheduleError(
                f"schedule has {table.num_groups} groups, costs price "
                f"{costs.num_groups}")
    else:
        table = ScheduleTable._of(ranks_ops, costs.num_groups)
    levels = table._levels
    n_ops, p = len(table.group), len(table.starts) - 1
    # costs depend on the group only: one call per group, not one per op
    groups = range(costs.num_groups)
    forward = np.array([costs.forward_time(g) for g in groups], dtype=float)
    backward = np.array([costs.backward_time(g) for g in groups], dtype=float)
    held = [costs.activation_bytes(g) for g in groups]
    if not costs.deallocate_output_tensor:
        held = [nbytes + costs.output_tensor_bytes for nbytes in held]
    held = np.array(held, dtype=float)
    is_forward, group = table.forward, table.group
    duration = np.where(is_forward, forward[group], backward[group])
    charge = np.where(is_forward, held[group], -held[group])

    # finish times by level position; the two slots past the ops are what
    # "waits for nothing" (-inf) and "first op of its rank" (0.0) read
    finish = np.empty(n_ops + 2)
    finish[n_ops:] = (-np.inf, 0.0)
    send = np.where(levels.remote, costs.p2p_time, 0.0)
    took = duration[levels.order]
    prev, dependency = levels.prev, levels.dependency
    for lo, hi in levels.spans:
        np.add(np.maximum(finish[prev[lo:hi]],
                          finish[dependency[lo:hi]] + send[lo:hi]),
               took[lo:hi], out=finish[lo:hi])
    at = np.empty(n_ops)
    at[levels.order] = finish[:n_ops]

    starts = table.starts.tolist()
    clock = [float(at[b - 1]) if b > a else 0.0
             for a, b in zip(starts, starts[1:])]
    lengths = np.diff(table.starts)

    def running(values: np.ndarray) -> np.ndarray:
        # per rank, the sequential sums 0.0 + v0 + v1 + ... the per-op loop
        # formed (accumulate never reassociates, unlike add.reduce)
        grid = np.zeros((p, levels.width))
        grid[levels.rows, levels.cols] = values
        return np.add.accumulate(grid, axis=1)

    busy = running(duration)[np.arange(p), lengths].tolist()
    forward_at = np.zeros((p, levels.width), dtype=bool)
    forward_at[levels.rows, levels.cols] = is_forward
    highest = np.where(forward_at, running(charge), -np.inf).max(
        axis=1, initial=-np.inf)
    peak = [max(0.0, nbytes) for nbytes in highest.tolist()]

    def issue_order() -> Dict[Tuple[str, int, int], float]:
        ops = table.ops() if ranks_ops is table else ranks_ops
        times, nxt, done = at.tolist(), starts[:-1], {}
        for rank, _op, key, _dep in walk_schedule(ops, costs.num_groups, done):
            done[key] = times[nxt[rank]]
            nxt[rank] += 1
        return done

    return SimResult(makespan=max(clock), busy_time=busy,
                     peak_activation_bytes=peak, _issue_order=issue_order)
