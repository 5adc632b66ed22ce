"""Pipeline schedules: 1F1B (PipeDream-flush [12]) and Megatron-LM's
interleaved virtual-pipeline schedule [13].

A model of ``L`` layers under ``p``-way pipeline parallelism with ``m``
interleaved stages is cut into ``p*m`` **groups** of ``L/(p*m)`` layers;
group ``g`` lives on rank ``g % p`` as that rank's chunk ``g // p``.
A schedule is, per rank, an ordered list of :class:`Op` — forward or
backward of one microbatch through one group — the order Megatron's
scheduler would issue them in.

This module is also the single statement of 1F1B **dataflow**: what an op
waits for (:func:`op_dependency`), the order a set of ranks issues a
schedule in (:func:`walk_schedule`) and Appendix C's moving window of
fully-stored microbatches (:class:`StorageWindow`).  The event simulator,
the Figure 10 timeline and the real ``PipelinedGPT`` executor are three
consumers of that one walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterator, List, Optional, Sequence, Tuple

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


def schedule_1f1b(pipeline_parallel: int, num_microbatches: int) -> List[List[Op]]:
    """Non-interleaved 1F1B: per-rank op lists.

    Rank ``i`` warms up with ``min(n, p-i-1)`` forwards, then alternates
    one-forward-one-backward, then drains the remaining backwards.  Peak
    in-flight microbatches on rank ``i`` is ``min(n, p-i)``.
    """
    p, n = pipeline_parallel, num_microbatches
    if p < 1 or n < 1:
        raise ScheduleError("pipeline_parallel and num_microbatches must be >= 1")
    ranks: List[List[Op]] = []
    for i in range(p):
        warmup = min(n, p - i - 1)
        ops: List[Op] = [Op(OpKind.F, mb, i) for mb in range(warmup)]
        steady = n - warmup
        for j in range(steady):
            ops.append(Op(OpKind.F, warmup + j, i))
            ops.append(Op(OpKind.B, j, i))
        for j in range(steady, n):
            ops.append(Op(OpKind.B, j, i))
        ranks.append(ops)
    return ranks


def _virtual_order(pipeline_parallel: int, num_microbatches: int,
                   interleave_stages: int) -> List[tuple]:
    """The (microbatch, chunk) sequence of the interleaved schedule.

    Microbatches are processed in rounds of ``p``; within a round all
    ``m`` chunks run before the next round starts (Megatron's
    ``get_model_chunk_id``): position ``k`` maps to chunk ``(k//p) % m``
    and microbatch ``k % p + p * (k // (p*m))``.
    """
    p, n, m = pipeline_parallel, num_microbatches, interleave_stages
    order = []
    for k in range(n * m):
        chunk = (k // p) % m
        mb = k % p + p * (k // (p * m))
        order.append((mb, chunk))
    return order


def schedule_interleaved(pipeline_parallel: int, num_microbatches: int,
                         interleave_stages: int) -> List[List[Op]]:
    """Megatron's interleaved 1F1B.

    Requires ``num_microbatches % pipeline_parallel == 0`` (as Megatron
    does).  Rank ``i`` runs ``min(total, 2(p-i-1) + (m-1)p)`` warmup
    forwards; with the one extra forward in flight during steady 1F1B the
    first stage peaks at ``pm + p - 1`` chunks — the paper's memory factor
    ``1 + (p-1)/(pm)``.
    """
    p, n, m = pipeline_parallel, num_microbatches, interleave_stages
    if m == 1:
        return schedule_1f1b(p, n)
    if n % p != 0:
        raise ScheduleError(
            f"interleaved schedule needs num_microbatches ({n}) divisible "
            f"by pipeline_parallel ({p})"
        )
    fwd_order = _virtual_order(p, n, m)
    # Backward virtual order: same microbatch pattern, chunks reversed.
    bwd_order = [(mb, m - 1 - chunk) for mb, chunk in fwd_order]

    ranks: List[List[Op]] = []
    total = n * m
    for i in range(p):
        warmup = min(total, 2 * (p - i - 1) + (m - 1) * p)
        ops: List[Op] = []
        f_idx = b_idx = 0
        for _ in range(warmup):
            mb, chunk = fwd_order[f_idx]
            ops.append(Op(OpKind.F, mb, chunk * p + i))
            f_idx += 1
        while f_idx < total:
            mb, chunk = fwd_order[f_idx]
            ops.append(Op(OpKind.F, mb, chunk * p + i))
            f_idx += 1
            mb, chunk = bwd_order[b_idx]
            ops.append(Op(OpKind.B, mb, chunk * p + i))
            b_idx += 1
        while b_idx < total:
            mb, chunk = bwd_order[b_idx]
            ops.append(Op(OpKind.B, mb, chunk * p + i))
            b_idx += 1
        ranks.append(ops)
    return ranks


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
        if remaining == before:
            raise ScheduleError("pipeline schedule deadlocked")


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
