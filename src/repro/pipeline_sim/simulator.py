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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .schedule import Op, walk_schedule


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
    op_finish: Dict[Tuple[str, int, int], float] = field(repr=False, default_factory=dict)

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


def simulate(ranks_ops: List[List[Op]], costs: PipelineCosts) -> SimResult:
    """Run the schedule to completion; raises on deadlock."""
    p = len(ranks_ops)
    # costs depend on the group only: one call per group, not one per op
    groups = range(costs.num_groups)
    forward = [costs.forward_time(g) for g in groups]
    backward = [costs.backward_time(g) for g in groups]
    held = [costs.activation_bytes(g) for g in groups]
    if not costs.deallocate_output_tensor:
        held = [nbytes + costs.output_tensor_bytes for nbytes in held]
    p2p = costs.p2p_time
    done: Dict[Tuple[str, int, int], float] = {}
    clock = [0.0] * p
    busy = [0.0] * p
    mem = [0.0] * p
    peak = [0.0] * p
    for i, op, key, dep in walk_schedule(ranks_ops, costs.num_groups, done):
        ready = clock[i]
        group = op.group
        if dep is not None:
            # a dependency on another rank pays the point-to-point send
            arrived = done[dep] + (0.0 if dep[2] % p == i else p2p)
            if arrived > ready:
                ready = arrived
        if key[0] == "F":
            duration = forward[group]
            mem[i] += held[group]
            if mem[i] > peak[i]:
                peak[i] = mem[i]
        else:
            duration = backward[group]
            mem[i] -= held[group]
        done[key] = clock[i] = ready + duration
        busy[i] += duration
    return SimResult(
        makespan=max(clock),
        busy_time=busy,
        peak_activation_bytes=peak,
        op_finish=done,
    )
