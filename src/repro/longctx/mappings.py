"""Context-parallel communication operators (Ulysses + ring attention).

Two redistribution primitives, mirroring :mod:`repro.parallel.mappings`:

* :class:`AllToAll` — the DeepSpeed-Ulysses re-shard: every rank splits
  its shard along one axis and concatenates the received pieces along
  another.  Sequence-sharded ``(s/p, b, h)`` activations become
  head-sharded ``(s, b, h/p)`` and back.  Backward is the all-to-all
  with the axes swapped (the exact inverse).
* :class:`RingGather` — ring attention's K/V assembly: ``p-1`` point-to-
  point hops rotate the sequence shards around the ring until every rank
  holds the full sequence.  Backward rotates the gradient chunks back
  (``p-1`` more hops) and each rank sums the slices addressed to it.

Both log their traffic so the cost model prices it: the all-to-all at
its **per-rank local shard size** (the :mod:`repro.comm.cost_model`
convention for that op), each ring hop as a ``p2p`` record of one shard.

Overlap with recomputation (arXiv 2406.08756: long-context collectives
hidden under checkpoint-segment recompute) is a process-wide switch:
inside :func:`recompute_overlap_scope`, any traffic these operators
issue during a ``Phase.RECOMPUTE`` region is marked ``overlapped=True``,
which the tracer forwards to the analysis buckets
(:mod:`repro.observability.analysis` then attributes that time to
``overlapped_comm`` instead of ``exposed_comm``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

from ..comm import collectives
from ..comm.process_group import ProcessGroup
from ..parallel.mappings import Leg
from ..tensor import backend as bk
from ..tensor.context import ctx
from ..tensor.oplog import Phase
from ..tensor.tensor import FnCtx, Function, ShardList, Tensor, apply, comm

#: Process-wide switch for recompute/communication overlap.
_RECOMPUTE_OVERLAP = False


@contextmanager
def recompute_overlap_scope() -> Iterator[None]:
    """Mark context-parallel traffic issued during recomputation as
    overlapped (the scheduler hides it under the redundant recompute
    FLOPs).  Restores the previous setting on exit."""
    global _RECOMPUTE_OVERLAP
    previous = _RECOMPUTE_OVERLAP
    _RECOMPUTE_OVERLAP = True
    try:
        yield
    finally:
        _RECOMPUTE_OVERLAP = previous


def overlap_active() -> bool:
    """True when the current op's comm should be marked overlapped:
    the scope is enabled *and* we are inside a recompute region."""
    return _RECOMPUTE_OVERLAP and ctx().phase is Phase.RECOMPUTE


#: The re-shard as a sixth leg beside :data:`repro.parallel.mappings.LEGS`;
#: its "axis" is the ``(split_axis, concat_axis)`` pair.
_ALL_TO_ALL = Leg("all_to_all", lambda shards, axes: collectives.all_to_all(shards, *axes))


class AllToAll(Function):
    """Ulysses re-shard: split along one axis, concatenate along another.

    Logged ``nbytes`` is the per-rank local shard size — the cost-model
    convention for ``all_to_all`` (each rank keeps ``1/p`` of its shard
    and exchanges the rest pairwise), and exactly what the tracer's
    data-plane hook sizes the call at.
    """

    name = "a2a"

    def __init__(self, group: ProcessGroup, split_axis: int, concat_axis: int,
                 label: str = "a2a"):
        self.group = group
        self.split_axis = split_axis
        self.concat_axis = concat_axis
        self.label = label

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        return _ALL_TO_ALL(fctx, self.label, x, self.group,
                           (self.split_axis, self.concat_axis), overlap_active())

    def backward(self, fctx: FnCtx, grad: ShardList):
        # The inverse re-shard: swap the split/concat axes.
        return (_ALL_TO_ALL(fctx, f"{self.label}.bwd", grad, self.group,
                            (self.concat_axis, self.split_axis), overlap_active()),)


class RingGather(Function):
    """Assemble the full sequence on every rank via ``p-1`` ring hops.

    Rank ``r`` starts with sequence chunk ``r``; each hop passes the
    chunk in flight to the next rank, so after ``p-1`` hops every rank
    has seen every chunk and holds the concatenation in global rank
    order.  (The simulator materializes the full tensor per rank; a real
    ring attention streams one block at a time and never holds more than
    two chunks — the memory model charges what this implementation
    saves.)

    Backward is the reverse rotation: each rank's incoming gradient
    holds a slice for every chunk, and chunk ``r``'s gradient is the sum
    of all ranks' slices ``r`` — ``p-1`` hops of one chunk each.
    """

    name = "ring_gather"

    def __init__(self, group: ProcessGroup, axis: int = 0,
                 label: str = "ring_gather"):
        self.group = group
        self.axis = axis
        self.label = label

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        return self._hops("hop", math.prod(shapes[0]) * widths[0])

    def backward_cost(self, fctx: FnCtx, shapes, widths):
        return self._hops("bwd_hop", math.prod(shapes[0]) // self.group.size * widths[0])

    def _hops(self, kind: str, nbytes: int):
        """The ``p-1`` ring hops of one shard of ``nbytes``."""
        overlapped = overlap_active()
        return tuple(comm(f"{self.label}.{kind}{hop}", "p2p", nbytes, 2,
                          scope=self.group.scope, overlapped=overlapped)
                     for hop in range(self.group.size - 1))

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        n = self.group.size
        fctx.misc["chunk"] = bk.shape_of(x[0])[self.axis]
        full = bk.concatenate(list(x), self.axis)
        return [full] * n

    def backward(self, fctx: FnCtx, grad: ShardList):
        n = self.group.size
        chunk = fctx.misc["chunk"]
        if bk.is_abstract(grad[0]):
            return ([bk.slice_axis(grad[0], self.axis, 0, chunk)] * n,)
        out = []
        for r in range(n):
            pieces = [bk.slice_axis(g, self.axis, r * chunk, (r + 1) * chunk)
                      for g in grad]
            acc = pieces[0]
            for piece in pieces[1:]:
                acc = acc + piece
            out.append(acc)
        return (out,)


# -- convenience wrappers ----------------------------------------------------

def all_to_all_seq_to_head(x: Tensor, group: ProcessGroup,
                           label: str = "a2a_seq2head") -> Tensor:
    """``(s/p, b, h)`` sequence shards -> ``(s, b, h/p)`` head shards."""
    out = apply(AllToAll(group, split_axis=2, concat_axis=0, label=label), x)
    out.layout = "shard(dim=2)"
    return out


def all_to_all_head_to_seq(x: Tensor, group: ProcessGroup,
                           label: str = "a2a_head2seq") -> Tensor:
    """``(s, b, h/p)`` head shards -> ``(s/p, b, h)`` sequence shards."""
    out = apply(AllToAll(group, split_axis=0, concat_axis=2, label=label), x)
    out.layout = "shard(dim=0)"
    return out


def ring_gather(x: Tensor, group: ProcessGroup, axis: int = 0,
                label: str = "ring_gather") -> Tensor:
    """Full-sequence K/V on every rank via ``p-1`` ring hops."""
    out = apply(RingGather(group, axis, label=label), x)
    out.layout = "replicated"
    return out
