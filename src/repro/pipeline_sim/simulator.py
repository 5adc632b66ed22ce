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

It prices the dataflow one wavefront level at a time (the
:class:`~repro.pipeline_sim.schedule.ScheduleTable`'s level order): all
ops of a level finish at ``max(previous op on the rank, dependency +
send) + duration`` in one array expression — per op the float operations
of a per-op loop, so every value is bitwise that loop's.  Only
``SimResult.op_finish`` reads the table's issue order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Tuple

import numpy as np

from .schedule import ScheduleTable


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
    peak_activation_bytes: List[float]
    _issue_order: Callable[[], Dict[Tuple[str, int, int], float]] = field(
        repr=False, compare=False, default=dict)

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


def simulate(table: ScheduleTable, costs: PipelineCosts) -> SimResult:
    """Run the schedule to completion; raises on deadlock."""
    levels = table._levels
    n_ops, p = len(table.group), len(table.starts) - 1
    # costs depend on the group only: one call per group, not one per op
    groups = range(table.num_groups)
    forward = np.array([costs.forward_time(g) for g in groups], dtype=float)
    backward = np.array([costs.backward_time(g) for g in groups], dtype=float)
    held = np.array([costs.activation_bytes(g) for g in groups], dtype=float)
    if not costs.deallocate_output_tensor:
        held += costs.output_tensor_bytes
    is_forward, group = table.forward, table.group
    duration = np.where(is_forward, forward[group], backward[group])
    charge = np.where(is_forward, held[group], -held[group])

    # finish times by level position; the two slots past the ops are what
    # "waits for nothing" (-inf) and "first op of its rank" (0.0) read
    finish = np.empty(n_ops + 2)
    finish[n_ops:] = (-np.inf, 0.0)
    levels.relax(finish, np.where(levels.remote, costs.p2p_time, 0.0),
                 duration[levels.order])
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
        grid[table.rank, levels.cols] = values
        return np.add.accumulate(grid, axis=1)

    busy = running(duration)[np.arange(p), lengths].tolist()
    forward_at = np.zeros((p, levels.width), dtype=bool)
    forward_at[table.rank, levels.cols] = is_forward
    highest = np.where(forward_at, running(charge), -np.inf).max(
        axis=1, initial=-np.inf)
    peak = [max(0.0, nbytes) for nbytes in highest.tolist()]

    def issue_order() -> Dict[Tuple[str, int, int], float]:
        return dict(zip((key for _rank, key in table.issued()),
                        at[table.issue_order].tolist()))

    return SimResult(makespan=max(clock), busy_time=busy,
                     peak_activation_bytes=peak, _issue_order=issue_order)
