"""Pipeline schedules: 1F1B (PipeDream-flush [12]) and Megatron-LM's
interleaved virtual-pipeline schedule [13].

A model of ``L`` layers under ``p``-way pipeline parallelism with ``m``
interleaved stages is cut into ``p*m`` **groups** of ``L/(p*m)`` layers;
group ``g`` lives on rank ``g % p`` as that rank's chunk ``g // p``.
A schedule is, per rank, an ordered sequence of ops — forward or backward
of one microbatch through one group — the order Megatron's scheduler
would issue them in.  :func:`schedule_table` builds it once, as flat
arrays (:class:`ScheduleTable`); :meth:`ScheduleTable.ops` is its view as
per-rank lists of :class:`Op`, which is what ``schedule_1f1b`` /
``schedule_interleaved`` return.

This module is also the single statement of 1F1B **dataflow**: what an op
waits for (:func:`op_dependency`), the order a set of ranks issues a
schedule in (:func:`walk_schedule`) and Appendix C's moving window of
fully-stored microbatches (:class:`StorageWindow`).  The Figure 10
timeline and the real ``PipelinedGPT`` executor consume that one walk;
the event simulator evaluates the same dataflow a wavefront at a time,
from the table's dependency index (the :func:`op_dependency` rule as
array indexing) and its level order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import (Container, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

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
    """A schedule as flat arrays in rank-major issue order.

    Rank ``r`` issues ops ``starts[r]`` to ``starts[r + 1] - 1`` in
    order; op ``k`` is the forward (``forward[k]``) or backward of
    ``microbatch[k]`` through ``group[k]``, one of ``num_groups`` groups.
    :meth:`ops` is the ``List[List[Op]]`` view the executor, the
    timeline and :func:`walk_schedule` consume; the event simulator
    reads the arrays and the wavefront order the table computes once
    (on first use) and keeps.
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
    def _levels(self) -> "_Levels":
        """The wavefront order, computed on first use and kept."""
        return _level_order(self)


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
      ``1 + (p-1)/(pm)``.  Requires ``n % p == 0``, as Megatron does.
    """
    p, n, m = pipeline_parallel, num_microbatches, interleave_stages
    if p < 1 or n < 1 or m < 1:
        raise ScheduleError("pipeline_parallel, num_microbatches and "
                            "interleave_stages must be >= 1")
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


def schedule_1f1b(pipeline_parallel: int, num_microbatches: int) -> List[List[Op]]:
    """Non-interleaved 1F1B: per-rank op lists (see :func:`schedule_table`)."""
    return schedule_table(pipeline_parallel, num_microbatches).ops()


def schedule_interleaved(pipeline_parallel: int, num_microbatches: int,
                         interleave_stages: int) -> List[List[Op]]:
    """Megatron's interleaved 1F1B: per-rank op lists (see
    :func:`schedule_table`)."""
    return schedule_table(pipeline_parallel, num_microbatches,
                          interleave_stages).ops()


def validate_schedule(ranks: List[List[Op]], num_microbatches: int,
                      interleave_stages: int = 1) -> None:
    """Sanity-check a schedule: every (mb, group) appears exactly once per
    kind per owning rank, backwards never precede their forward, and the
    ranks together can issue it to the end (no deadlock)."""
    p = len(ranks)
    for i, ops in enumerate(ranks):
        seen_f = set()
        seen_b = set()
        for op in ops:
            if rank_of_group(op.group, p) != i:
                raise ScheduleError(f"op {op} scheduled on wrong rank {i}")
            key = (op.microbatch, op.group)
            if op.kind == OpKind.F:
                if key in seen_f:
                    raise ScheduleError(f"duplicate forward {op}")
                seen_f.add(key)
            else:
                if key not in seen_f:
                    raise ScheduleError(f"backward before forward: {op}")
                if key in seen_b:
                    raise ScheduleError(f"duplicate backward {op}")
                seen_b.add(key)
        expected = num_microbatches * interleave_stages
        if len(seen_f) != expected or len(seen_b) != expected:
            raise ScheduleError(
                f"rank {i}: {len(seen_f)} forwards / {len(seen_b)} backwards, "
                f"expected {expected}"
            )
    done: set = set()
    for _rank, _op, key, _dep in walk_schedule(
            ranks, p * interleave_stages, done):
        done.add(key)


def op_dependency(op: Op, num_groups: int) -> Optional[OpKey]:
    """The cross-rank completion ``(kind, microbatch, group)`` that must
    finish before ``op`` can start under 1F1B dataflow, or ``None``.

    A forward waits for the previous group's forward of the same
    microbatch; a backward waits for the next group's backward — except
    the last group's backward, which only needs its own forward.  These
    are the edges :func:`walk_schedule` follows and the trace analysis'
    cross-rank critical-path extraction walks backward.
    """
    if op.kind == OpKind.F:
        return None if op.group == 0 else ("F", op.microbatch, op.group - 1)
    if op.group == num_groups - 1:
        return ("F", op.microbatch, op.group)
    return ("B", op.microbatch, op.group + 1)


def walk_schedule(ranks_ops: List[List[Op]], num_groups: int,
                  done: Container[OpKey]
                  ) -> Iterator[Tuple[int, Op, OpKey, Optional[OpKey]]]:
    """Yield every op of a schedule once, in issue order, as
    ``(rank, op, key, dependency)``.

    Each rank issues its list strictly in order; the ranks take turns,
    each running until its next op's dependency is not in ``done``.
    ``done`` is the **consumer's own** completion table (a set, or a
    mapping to finish times): it must hold ``key`` before the next op is
    asked for, which is also what keeps the walk lazy — no second copy
    of the order or of what has run is ever built.  Raises
    :class:`ScheduleError` when a full turn of the ranks issues nothing.
    """
    # The inner loop runs once per op (58 800 for the 530B schedule), so
    # :func:`op_dependency`'s rule is written out in place: the call and
    # the enum's ``.value`` descriptor were over a third of the walk.
    # tests/test_property_pipeline_exec.py holds the two statements equal
    # on generated schedules.
    forward, last = OpKind.F, num_groups - 1
    ptr = [0] * len(ranks_ops)
    remaining = sum(len(ops) for ops in ranks_ops)
    while remaining:
        before = remaining
        for rank, ops in enumerate(ranks_ops):
            i, end = ptr[rank], len(ops)
            while i < end:
                op = ops[i]
                microbatch, group = op.microbatch, op.group
                if op.kind is forward:
                    letter = "F"
                    dep = ("F", microbatch, group - 1) if group else None
                else:
                    letter = "B"
                    dep = (("F", microbatch, group) if group == last
                           else ("B", microbatch, group + 1))
                if dep is not None and dep not in done:
                    break
                yield rank, op, (letter, microbatch, group), dep
                i += 1
            remaining -= i - ptr[rank]
            ptr[rank] = i
        _check_progress(before, remaining)


def _check_progress(before: int, remaining: int) -> None:
    """A turn of the ranks that issued nothing is a deadlock: no op left
    can ever have its dependency met."""
    if remaining == before:
        raise ScheduleError("pipeline schedule deadlocked")


def _dependency_index(table: ScheduleTable) -> np.ndarray:
    """:func:`op_dependency` as array indexing: per op (rank-major), the
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
    kind = forward.astype(np.intp)
    # position[1, key] / position[0, key]: where the forward / backward of
    # (microbatch, group) is issued; N + 1 where the schedule has none
    size = (int(microbatch.max()) + 1) * num_groups if n_ops else 0
    position = np.full((2, size), n_ops + 1)
    ops = np.arange(n_ops)
    position[kind, key] = ops
    clash = np.flatnonzero(position[kind, key] != ops)
    if clash.size:
        k = clash[0]
        raise ScheduleError(
            f"duplicate op {'BF'[kind[k]]}{microbatch[k]}g{group[k]}")
    last = group == num_groups - 1
    waits = ~forward | (group > 0)
    dependency = np.full(n_ops, n_ops)
    dependency[waits] = position[
        (forward | last)[waits].astype(np.intp),
        np.where(forward, key - 1, np.where(last, key, key + 1))[waits]]
    return dependency


def _wavefront(dependency: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The step each op runs at when every step advances each rank whose
    next op's dependency ran at an earlier step (so a step runs at most
    one op per rank).  Raises the deadlock error on a step that runs
    nothing."""
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
        ran_at[ran] = step
        ptr[ready] = after[ran]
        before, remaining = remaining, remaining - len(ran)
        _check_progress(before, remaining)
        step += 1
    return ran_at[:n_ops]


class _Levels(NamedTuple):
    """A table's ops renumbered into wavefront order, so that each step
    (*level*) is one contiguous slice ``spans[l]`` of positions.

    ``order[j]`` is the rank-major op at position ``j``; ``prev[j]`` /
    ``dependency[j]`` the positions of the op before it on its rank and
    of the op it waits for, with two sentinel positions past the ops:
    ``N`` (waits for nothing) and ``N + 1`` (first op of its rank).
    ``remote[j]``: the dependency's group lives on another rank than the
    one issuing ``j`` (``dep_group % p != rank``), so it pays the
    point-to-point send.  ``rows`` / ``cols`` place each rank-major op in
    a ``(p, width)`` grid whose column 0 is a rank's start."""

    order: np.ndarray
    spans: List[Tuple[int, int]]
    prev: np.ndarray
    dependency: np.ndarray
    remote: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    width: int


def _level_order(table: ScheduleTable) -> _Levels:
    dependency = _dependency_index(table)
    starts = table.starts
    n_ops, p = len(dependency), len(starts) - 1
    level = _wavefront(dependency, starts)
    order = np.argsort(level, kind="stable")
    bounds = np.cumsum(np.bincount(level)).tolist()
    position = np.empty(n_ops + 2, dtype=np.int64)
    position[order] = np.arange(n_ops)
    position[n_ops:] = (n_ops, n_ops + 1)      # the sentinels stay put
    lengths = np.diff(starts)
    rows = np.repeat(np.arange(p), lengths)
    cols = np.arange(1, n_ops + 1) - np.repeat(starts[:-1], lengths)
    prev = np.arange(-1, n_ops - 1)
    prev[starts[:-1][lengths > 0]] = n_ops + 1
    dep_group = np.append(table.group, 0)[dependency]
    return _Levels(
        order=order, spans=list(zip([0] + bounds, bounds)),
        prev=position[prev[order]], dependency=position[dependency[order]],
        remote=(dep_group % p != rows)[order],
        rows=rows, cols=cols, width=int(lengths.max(initial=0)) + 1)


class StorageWindow:
    """Appendix C's moving window of fully-stored microbatches.

    Rank ``i`` may keep **all** activations of up to ``slots[i]`` of its
    in-flight microbatches.  A microbatch claims a free slot at a forward
    on the rank and gives it back at its last backward there, so the next
    arriving microbatch can take it (Figure 10.b).
    """

    def __init__(self, slots: Sequence[int], ranks_ops: List[List[Op]]):
        if len(slots) != len(ranks_ops) or any(k < 0 for k in slots):
            raise ConfigError(
                f"full_storage_slots needs one count >= 0 per pipeline rank "
                f"({len(ranks_ops)}), got {list(slots)}")
        self.slots = list(slots)
        #: per rank: microbatches that ran a forward without checkpointing
        self.stored_full = [0] * len(slots)
        self._full = [set() for _ in slots]   # microbatches holding a slot
        self._backwards_left = [
            Counter(op.microbatch for op in ops if op.kind == OpKind.B)
            for ops in ranks_ops]

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
        self._backwards_left[rank][microbatch] -= 1
        if full and not self._backwards_left[rank][microbatch]:
            self._full[rank].discard(microbatch)
        return full
