"""Pipeline schedules: 1F1B (PipeDream-flush [12]) and Megatron-LM's
interleaved virtual-pipeline schedule [13].

A model of ``L`` layers under ``p``-way pipeline parallelism with ``m``
interleaved stages is cut into ``p*m`` **groups** of ``L/(p*m)`` layers;
group ``g`` lives on rank ``g % p`` as that rank's chunk ``g // p``.
A schedule is, per rank, an ordered sequence of ops — forward or backward
of one microbatch through one group — the order Megatron's scheduler
would issue them in.  :func:`schedule_table` builds it as flat arrays, a
:class:`ScheduleTable`, which is the only form a schedule takes;
:meth:`ScheduleTable.ops` views it as per-rank :class:`Op` lists for
display and tests.

This module is also the single statement of 1F1B **dataflow**: one rule
of what an op waits for (``_waits_for``, per op in :func:`op_dependency`,
per table in its dependency index) and the two orders a table derives
from it once each — the wavefront levels the event simulator prices and
:attr:`ScheduleTable.issue_order`, which the ``PipelinedGPT`` executor,
the Figure 10 timeline and ``SimResult.op_finish`` follow — plus
Appendix C's moving window of fully-stored microbatches
(:class:`StorageWindow`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, ScheduleError

#: ``(kind letter, microbatch, group)`` — how a finished op is recorded
OpKey = Tuple[str, int, int]


class OpKind(str, Enum):
    F = "F"
    B = "B"


@dataclass(frozen=True)
class Op:
    """Forward or backward of ``microbatch`` through layer-group ``group``."""

    kind: OpKind
    microbatch: int
    group: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}{self.microbatch}g{self.group}"


def rank_of_group(group: int, pipeline_parallel: int) -> int:
    return group % pipeline_parallel


@dataclass(frozen=True, eq=False)
class ScheduleTable:
    """A schedule as flat arrays in rank-major order.

    Rank ``r`` issues ops ``starts[r]`` to ``starts[r + 1] - 1`` in
    order; op ``k`` is the forward (``forward[k]``) or backward of
    ``microbatch[k]`` through ``group[k]``, one of ``num_groups`` groups.
    Its level order and issue order are computed on first use and kept.
    """

    forward: np.ndarray
    microbatch: np.ndarray
    group: np.ndarray
    starts: np.ndarray
    num_groups: int

    @staticmethod
    def _of(ranks_ops: List[List[Op]], num_groups: int) -> "ScheduleTable":
        """The table of a schedule given as per-rank ``Op`` lists."""
        flat = [op for ops in ranks_ops for op in ops]
        return ScheduleTable(
            np.array([op.kind is OpKind.F for op in flat], dtype=bool),
            np.array([op.microbatch for op in flat], dtype=np.int64),
            np.array([op.group for op in flat], dtype=np.int64),
            np.cumsum([0] + [len(ops) for ops in ranks_ops]), num_groups)

    def ops(self) -> List[List[Op]]:
        """Per-rank ``Op`` lists; every field is a Python ``int`` or an
        :class:`OpKind`."""
        kinds = (OpKind.B, OpKind.F)
        flat = [Op(kinds[forward], microbatch, group)
                for forward, microbatch, group in zip(
                    self.forward.tolist(), self.microbatch.tolist(),
                    self.group.tolist())]
        starts = self.starts.tolist()
        return [flat[a:b] for a, b in zip(starts, starts[1:])]

    @cached_property
    def rank(self) -> np.ndarray:
        """The rank that issues each op."""
        return np.repeat(np.arange(len(self.starts) - 1), np.diff(self.starts))

    @cached_property
    def _levels(self) -> Tuple[np.ndarray, "LevelPlan"]:
        """Each level position's rank-major op, and the :class:`LevelPlan`."""
        dependency = _dependency_index(self)
        starts, group = self.starts, self.group
        n_ops, p = len(dependency), len(starts) - 1
        level = _wavefront(dependency, starts)
        order = np.argsort(level, kind="stable")
        position = np.empty(n_ops + 2, dtype=np.intp)
        position[order] = np.arange(n_ops)
        position[n_ops:] = (n_ops, n_ops + 1)      # the sentinels stay put
        # the op before op k on its rank is k - 1 (position[-1] is N + 1),
        # except that a rank's first op reads N + 1
        prev = position[order - 1]
        busy = starts[1:] > starts[:-1]
        prev[position[starts[:-1][busy]]] = n_ops + 1
        code = (group + self.num_groups * ~self.forward).astype(
            np.min_scalar_type(2 * self.num_groups))
        return order, LevelPlan(
            np.cumsum(np.bincount(level)).astype(np.int32), prev,
            position[dependency[order]],
            (np.append(group, 0)[dependency] % p != self.rank)[order],
            code[order], code, starts,
            position[starts[1:] * busy - 1],   # an empty rank reads N + 1
            self.num_groups)

    @cached_property
    def issue_order(self) -> np.ndarray:
        """Rank-major op positions in the order the ranks issue them: in
        turns, rank by rank, each running until its next op's dependency
        has not run.  So an op runs in turn ``max(turn of the op before it
        on its rank, turn of its dependency + (dependency's rank > its
        rank))``: the level loop, with no durations and that flag as send."""
        order, plan = self._levels
        # the two sentinel positions (no dependency, first op) are never later
        rank = np.append(self.rank[order], (-1, -1))
        turn = plan.relax(np.zeros(len(rank), dtype=np.int64),
                          rank[plan.dependency] > rank[:-2],
                          np.zeros(len(order), dtype=np.int64))
        return order[np.lexsort((order, turn[:-2]))]

    def issued(self) -> Iterator[Tuple[int, OpKey]]:
        """``(rank, (kind letter, microbatch, group))`` per op in issue
        order, as Python ``str`` / ``int``."""
        order = self.issue_order
        return zip(self.rank[order].tolist(), zip(
            ["BF"[forward] for forward in self.forward[order].tolist()],
            self.microbatch[order].tolist(), self.group[order].tolist()))


def schedule_table(pipeline_parallel: int, num_microbatches: int,
                   interleave_stages: int = 1) -> ScheduleTable:
    """Megatron's 1F1B schedule, interleaved over ``interleave_stages``
    chunks per rank when that is above 1.

    Every rank issues its ``n*m`` forwards in the *virtual order* —
    microbatches in rounds of ``p``, all ``m`` chunks of a round before
    the next (Megatron's ``get_model_chunk_id``): position ``k`` is chunk
    ``(k//p) % m`` of microbatch ``k % p + p * (k // (p*m))`` — and its
    backwards in the same order with the chunks reversed.  Rank ``i``
    warms up with ``w`` forwards, then alternates one forward and one
    backward, then drains the remaining backwards:

    * ``m == 1``: ``w = min(n, p-i-1)``, so rank ``i`` peaks at
      ``min(n, p-i)`` in-flight microbatches;
    * ``m > 1``: ``w = min(nm, 2(p-i-1) + (m-1)p)``; with the one extra
      forward in flight during steady 1F1B the first stage peaks at
      ``pm + p - 1`` chunks — the paper's memory factor
      ``1 + (p-1)/(pm)``.  Requires ``p > 1`` and ``n % p == 0``, as
      Megatron does.
    """
    p, n, m = pipeline_parallel, num_microbatches, interleave_stages
    if p < 1 or n < 1 or m < 1:
        raise ScheduleError("pipeline_parallel, num_microbatches and "
                            "interleave_stages must be >= 1")
    if m > 1 and p == 1:
        raise ScheduleError("an interleaved schedule needs pipeline_parallel > 1")
    if m > 1 and n % p:
        raise ScheduleError(
            f"interleaved schedule needs num_microbatches ({n}) divisible "
            f"by pipeline_parallel ({p})"
        )
    total = n * m
    rank = np.arange(p)[:, None]
    warmup = np.minimum(total, p - rank - 1 if m == 1
                        else 2 * (p - rank - 1) + (m - 1) * p)
    slot = np.arange(2 * total)
    steady = slot - warmup                    # < 0 during warm-up
    drain = slot >= 2 * total - warmup
    forward = (steady < 0) | (~drain & (steady % 2 == 0))
    # position in the virtual order of the op in each slot
    k = np.where(steady < 0, slot,
                 np.where(drain, slot - total,
                          steady // 2 + np.where(forward, warmup, 0)))
    chunk = (k // p) % m
    group = np.where(forward, chunk, m - 1 - chunk) * p + rank
    microbatch = k % p + p * (k // (p * m))
    return ScheduleTable(forward.ravel(), microbatch.ravel(), group.ravel(),
                         np.arange(p + 1) * 2 * total, p * m)


def validate_schedule(table: ScheduleTable, num_microbatches: int) -> None:
    """Check a schedule before it runs: rank ``r`` issues the forward and
    the backward of each ``(microbatch < num_microbatches, group % p == r)``
    exactly once, and the ranks can issue it to the end (a backward ahead
    of its own forward is a deadlock)."""
    n, microbatch, group = num_microbatches, table.microbatch, table.group
    foreign = np.flatnonzero((microbatch >= n)
                             | (group % (len(table.starts) - 1) != table.rank))
    if foreign.size:
        k = foreign[0]
        raise ScheduleError(
            f"op {'BF'[int(table.forward[k])]}{microbatch[k]}g{group[k]} does "
            f"not belong on rank {table.rank[k]} of a {n}-microbatch schedule")
    # raises on an op named twice, a group or microbatch out of range, or
    # a deadlock; past it, the right op count means every op once
    table.issue_order
    if len(group) != 2 * n * table.num_groups:
        raise ScheduleError(
            f"{len(group)} ops, expected a forward and a backward of {n} "
            f"microbatch(es) through {table.num_groups} group(s)")


def _waits_for(forward, group, num_groups):
    """The 1F1B dataflow rule, on ints and int arrays alike: op ``(forward,
    group)`` of a microbatch waits for its op ``(dep_forward, dep_group)`` —
    a forward for the previous group's forward, a backward for the next
    group's backward, the last group's backward for its own forward.
    ``dep_group`` is -1 for the first group's forward: it waits for nothing."""
    last = group == num_groups - 1
    return forward | last, group - forward + (1 - forward) * (1 - last)


def op_dependency(key: OpKey, num_groups: int) -> Optional[OpKey]:
    """The ``(kind, microbatch, group)`` op ``key`` waits for
    (``_waits_for``), or ``None``: the edges the trace analysis'
    cross-rank critical-path extraction walks backward."""
    dep_forward, dep_group = _waits_for(key[0] == "F", key[2], num_groups)
    return ("BF"[dep_forward], key[1], dep_group) if dep_group >= 0 else None


def _dependency_index(table: ScheduleTable) -> np.ndarray:
    """The dependency rule as array indexing: per op (rank-major), the
    position of the op it waits for — ``N`` (the op count) when it waits
    for nothing, ``N + 1`` when the schedule lacks that op, so it can
    never run.  Raises :class:`ScheduleError` on an op outside the
    groups / microbatches a schedule can name, or on two ops with the
    same ``(kind, microbatch, group)``."""
    forward, microbatch, group = table.forward, table.microbatch, table.group
    num_groups, n_ops = table.num_groups, len(group)
    if n_ops and (group.min() < 0 or group.max() >= num_groups
                  or microbatch.min() < 0):
        raise ScheduleError(
            f"schedule ops must name groups in [0, {num_groups}) and "
            f"microbatches >= 0")
    key = microbatch * num_groups + group
    # position[size + key] / position[key]: where the forward / backward
    # of (microbatch, group) is issued, N + 1 where the schedule has none;
    # the last slot, 2 * size, is N: "waits for nothing"
    size = (int(microbatch.max()) + 1) * num_groups if n_ops else 0
    position = np.full(2 * size + 1, n_ops + 1)
    position[-1] = n_ops
    slot = key + size * forward
    ops = np.arange(n_ops)
    position[slot] = ops
    clash = np.flatnonzero(position[slot] != ops)
    if clash.size:
        k = clash[0]
        raise ScheduleError(
            f"duplicate op {'BF'[int(forward[k])]}{microbatch[k]}g{group[k]}")
    dep_forward, dep_group = _waits_for(forward, group, num_groups)
    return position[np.where(dep_group >= 0,
                             key - group + dep_group + size * dep_forward,
                             2 * size)]


def _wavefront(dependency: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The step each op runs at when every step advances each rank whose
    next op's dependency ran at an earlier step (so a step runs at most
    one op per rank).  Raises the deadlock error on a step that runs
    nothing: no op left can ever have its dependency met."""
    n_ops = len(dependency)
    first, ends = starts[:-1], starts[1:]
    # the op after each one on its rank, N after a rank's last; the
    # sentinel N waits for N + 1, which never runs
    after = np.arange(1, n_ops + 1)
    after[ends[ends > first] - 1] = n_ops
    waits_for = np.append(dependency, n_ops + 1)
    ran_at = np.full(n_ops + 2, np.iinfo(np.int64).max)
    ran_at[n_ops] = -1                  # "no dependency" is met from the start
    ptr = np.where(ends > first, first, n_ops)
    step, remaining = 0, n_ops
    while remaining:
        ready = ran_at[waits_for[ptr]] < step
        ran = ptr[ready]
        if not ran.size:
            raise ScheduleError("pipeline schedule deadlocked")
        ran_at[ran] = step
        ptr[ready] = after[ran]
        remaining -= len(ran)
        step += 1
    return ran_at[:n_ops]


class LevelPlan(NamedTuple):
    """What pricing reads of a table, its ops renumbered into wavefront
    order: level ``l`` ends at position ``bounds[l]``; ``prev`` /
    ``dependency`` are the positions of the op before on the rank
    and of the op waited for, or ``N`` (waits for nothing) / ``N + 1``
    (first op of its rank); ``remote``: that op is on another rank.
    ``code`` (by position) and ``rank_code`` (rank-major, split by
    ``starts``) are ``group + num_groups * backward``; ``last[r]``: rank
    ``r``'s last position."""

    bounds: np.ndarray
    prev: np.ndarray
    dependency: np.ndarray
    remote: np.ndarray
    code: np.ndarray
    rank_code: np.ndarray
    starts: np.ndarray
    last: np.ndarray
    num_groups: int

    def relax(self, finish: np.ndarray, send: np.ndarray,
              took: np.ndarray) -> np.ndarray:
        """Fill ``finish`` (by position, sentinel slots preset) level by
        level with ``max(finish[prev], finish[dependency] + send) + took``."""
        # int32 at rest, widened once: they index slower in every level
        prev, dependency = (np.asarray(self.prev, dtype=np.intp),
                            np.asarray(self.dependency, dtype=np.intp))
        bounds = self.bounds.tolist()
        for lo, hi in zip([0] + bounds, bounds):
            np.add(np.maximum(finish[prev[lo:hi]],
                              finish[dependency[lo:hi]] + send[lo:hi]),
                   took[lo:hi], out=finish[lo:hi])
        return finish


#: One analytic pass keeps four plans, 1.42 MB (1T 0.73, 530B 0.65 MB);
#: a table with its level order is 3.4-3.8 MB there, so none is kept.
@lru_cache(maxsize=16)
def level_plan(pipeline_parallel: int, num_microbatches: int,
               interleave_stages: int = 1) -> LevelPlan:
    """The plan of :func:`schedule_table`, int32 and read-only."""
    plan = schedule_table(pipeline_parallel, num_microbatches,
                          interleave_stages)._levels[1]
    plan = plan._replace(prev=plan.prev.astype(np.int32),
                         dependency=plan.dependency.astype(np.int32))
    for array in plan[:-1]:  # one plan serves every caller
        array.flags.writeable = False
    return plan


class StorageWindow:
    """Appendix C's moving window of fully-stored microbatches.

    Rank ``i`` may keep **all** activations of up to ``slots[i]`` of its
    in-flight microbatches.  A microbatch claims a free slot at a forward
    on the rank and gives it back at its last backward there, so the next
    arriving microbatch can take it (Figure 10.b).
    """

    def __init__(self, slots: Sequence[int], table: ScheduleTable):
        p = len(table.starts) - 1
        if len(slots) != p or any(k < 0 for k in slots):
            raise ConfigError(
                f"full_storage_slots needs one count >= 0 per pipeline rank "
                f"({p}), got {list(slots)}")
        self.slots = list(slots)
        #: per rank: microbatches that ran a forward without checkpointing
        self.stored_full = [0] * p
        self._full = [set() for _ in slots]   # microbatches holding a slot
        backward = ~table.forward
        self._backwards_left = Counter(zip(       # per (rank, microbatch)
            table.rank[backward].tolist(), table.microbatch[backward].tolist()))

    def forward(self, rank: int, microbatch: int) -> bool:
        """Whether this forward stores everything (claiming a slot if the
        microbatch holds none and one is free)."""
        full = self._full[rank]
        if microbatch not in full and len(full) < self.slots[rank]:
            self.stored_full[rank] += 1
            full.add(microbatch)
        return microbatch in full

    def backward(self, rank: int, microbatch: int) -> bool:
        """Whether this backward finds everything stored (no recompute
        segment); the microbatch's last backward on the rank frees its
        slot."""
        full = microbatch in self._full[rank]
        self._backwards_left[rank, microbatch] -= 1
        if full and not self._backwards_left[rank, microbatch]:
            self._full[rank].discard(microbatch)
        return full
