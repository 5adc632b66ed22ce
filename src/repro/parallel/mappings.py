"""The conjugate communication operators of Figures 4-6, as a table.

``f``/``f̄`` and ``g``/``ḡ`` are *conjugate pairs* (Section 4.2.2): an
operator is fully described by which collective runs forward and which
backward.  :data:`LEGS` names the five things a boundary can do to a
shard list, :data:`ROWS` pairs them into the six operators, and one
:class:`Boundary` function runs a row.  The fused all-gather-matmul (the
paper's "we store only the Y_i^s part on the i-th tensor parallel rank
and perform an extra all-gather in the backward pass") runs on the same
legs.  Every collective leg logs a :class:`~repro.tensor.oplog.CommInfo`
so the cost model can price it; ``overlapped=True`` marks collectives the
paper overlaps with compute (the backward weight-gradient GEMM).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from ..comm import collectives
from ..comm.cost_model import logged_nbytes
from ..comm.process_group import ProcessGroup
from ..errors import CommError
from ..tensor import backend as bk
from ..tensor.backend import AbstractArray
from ..tensor.tensor import FnCtx, Function, ShardList, Tensor, apply, map_shards


class Leg(NamedTuple):
    """One direction of a boundary: what it logs and what it does."""

    #: The collective the cost model prices (``None``: local, unlogged);
    #: ``logged_nbytes`` sizes it (an all-gather by its output).
    op: Optional[str]
    run: Callable[[ShardList, int], ShardList]  # (shards, axis) -> shards

    def __call__(self, fctx: FnCtx, name: str, shards: ShardList, group: ProcessGroup,
                 axis: int, overlapped: bool = False) -> ShardList:
        """Log this leg under ``name`` (when it is a collective), then run it."""
        if self.op is not None:
            shard_nbytes = bk.size_of(shards[0]) * fctx.inputs[0].dtype.nbytes
            fctx.log_comm(name, self.op, logged_nbytes(self.op, shard_nbytes, group.size),
                          group.size, scope=group.scope, overlapped=overlapped)
        return self.run(shards, axis)


def _slice(shards: ShardList, axis: int) -> ShardList:
    # Rank i keeps chunk i: no communication, the data is resident everywhere.
    world, s0 = len(shards), shards[0]
    shape = bk.shape_of(s0)
    extent = shape[bk.axis_index(axis, len(shape))]
    if extent % world != 0:
        raise CommError(f"axis {axis} ({extent}) not divisible by world {world}")
    if type(s0) is AbstractArray:
        return [bk.shaped(bk.split_shape(shape, world, axis))] * world
    chunk = extent // world
    return [bk.slice_axis(s, axis, r * chunk, (r + 1) * chunk) for r, s in enumerate(shards)]


LEGS = {
    "identity": Leg(None, lambda shards, axis: list(shards)),
    "slice": Leg(None, _slice),
    "all_reduce": Leg("all_reduce", lambda shards, axis: collectives.all_reduce(shards)),
    "all_gather": Leg("all_gather", collectives.all_gather),
    "reduce_scatter": Leg("reduce_scatter", collectives.reduce_scatter),
}


class Row(NamedTuple):
    """One conjugate operator; the backward record is ``<name>.bwd``."""

    name: str
    forward: Leg
    backward: Leg
    layout: str  # of the output; ``{axis}`` is the operator's axis
    overlap_backward: bool = False

    def __call__(self, x: Tensor, group: ProcessGroup, axis: int = 0) -> Tensor:
        out = apply(Boundary(self, group, axis), x)
        out.layout = self.layout.format(axis=axis)
        return out


# ``f`` (Figure 4).  Its backward all-reduce is marked overlapped: Megatron
# overlaps it with the preceding linear's weight-gradient GEMM, which the
# paper credits for full-recompute overhead being 39% rather than 33%.
F = Row("f", LEGS["identity"], LEGS["all_reduce"], "replicated", overlap_backward=True)
# ``f̄`` (Figure 4): the forward all-reduce sums the partial outputs.
F_BAR = Row("f_bar", LEGS["all_reduce"], LEGS["identity"], "replicated")
# ``g`` / ``ḡ`` (Figure 5), along the sequence dim; ``ḡ`` sums partials.
G = Row("g", LEGS["all_gather"], LEGS["reduce_scatter"], "replicated")
G_BAR = Row("g_bar", LEGS["reduce_scatter"], LEGS["all_gather"], "shard(dim={axis})")
# Enter the sequence-parallel region from replicated data (after the embedding
# lookup, Section 4.3); backward all-gathers the gradient chunks back.
SCATTER_SEQ = Row("scatter_seq", LEGS["slice"], LEGS["all_gather"], "shard(dim={axis})")
# An all-gather whose backward is a local slice: valid only when the
# downstream gradient is *replicated* across the group (the consumer region
# contains ``f``, whose backward all-reduce makes every rank's gradient
# identical), so each rank takes its own chunk instead of reduce-scattering.
# The sharded-checkpoint variant of full recompute uses it: the paper's
# "store a portion of activations in each tensor parallel rank ... requires
# an extra all-gather per layer" (Section 5) is this row's forward, re-run
# during recomputation.
GATHER_SLICE = Row("gather_slice", LEGS["all_gather"], LEGS["slice"], "replicated")

ROWS = (F, F_BAR, G, G_BAR, SCATTER_SEQ, GATHER_SLICE)


class Boundary(Function):
    """Run one :class:`Row`: its forward leg, and its conjugate backward."""

    def __init__(self, row: Row, group: ProcessGroup, axis: int = 0):
        self.name = row.name
        self.row = row
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        return self.row.forward(fctx, self.name, x, self.group, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        return (self.row.backward(fctx, f"{self.name}.bwd", grad, self.group,
                                  self.axis, self.row.overlap_backward),)


class AllGatherMatmul(Function):
    """Fused ``g`` + column-parallel matmul with shard-only saving.

    Forward: all-gather the sequence-sharded input ``[Y_1^s..Y_t^s]`` into
    the full ``Y`` and compute ``Y @ W_i`` per rank.  **Only the local
    shard ``Y_i^s`` is saved** (``2sbh/t`` per rank instead of ``2sbh``),
    implementing the paper's Section 4.2.2 optimization.  Backward
    re-all-gathers ``Y`` (marked ``overlapped`` — the paper hides it under
    the dY GEMM), computes the two gradient GEMMs, and reduce-scatters dY
    back to sequence shards (``g``'s backward).
    """

    name = "ag_matmul"

    def __init__(self, group: ProcessGroup, axis: int = 0, category: str = "sp_linear_input"):
        self.group = group
        self.axis = axis
        self.category = category

    def forward(self, fctx: FnCtx, x: ShardList, w: ShardList) -> ShardList:
        self.group.check_world(len(x))
        w_shape = bk.shape_of(w[0])
        # A mismatch is a ShapeError here, before anything is saved or logged.
        out_shape = bk.matmul_shape(bk.tiled_shape(bk.shape_of(x[0]), len(x), self.axis), w_shape)
        fctx.misc["x_slot"] = fctx.save_input(0, category=self.category)
        fctx.misc["w_slot"] = fctx.save_input(1)
        full = G.forward(fctx, "ag_matmul", x, self.group, self.axis)
        # One 2-D GEMM, not NumPy's loop of small ones over the leading
        # dims (as the serial Matmul): bitwise the same product.  Not so
        # the dgrad ``g @ w.T``, which flattened rounds differently on
        # OpenBLAS and therefore stays 3-D in backward.
        out = map_shards(lambda fi, wi: (fi.reshape(-1, w_shape[0]) @ wi).reshape(out_shape),
                         full, w, shape=bk.matmul_shape)
        flops = fctx.misc["flops"] = 2.0 * bk.size_of(out[0]) * bk.shape_of(full[0])[-1]
        fctx.log_gemm(f"ag_matmul[{self.category}]", flops_per_rank=flops)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        w = fctx.saved(fctx.misc["w_slot"])
        # Extra all-gather of the saved shards (the cost of storing Y_i^s
        # only); overlapped with the dY GEMM per the paper.
        full = G.forward(fctx, "ag_matmul.bwd_regather", x, self.group, self.axis,
                         overlapped=True)
        flops = fctx.misc["flops"]
        fctx.log_gemm(f"ag_matmul[{self.category}].dgrad", flops_per_rank=flops)
        fctx.log_gemm(f"ag_matmul[{self.category}].wgrad", flops_per_rank=flops)
        k, n = bk.shape_of(w[0])
        dw, dfull = map_shards(
            lambda g, fi, wi: (np.reshape(fi, (-1, k)).T @ np.reshape(g, (-1, n)), g @ wi.T),
            grad, full, w, shape=lambda g, full, w: [w, full])
        # Megatron issues this reduce-scatter asynchronously and overlaps
        # it with the weight-gradient GEMM (LinearWithGradAccumulationAnd-
        # AsyncCommunication), so it is marked overlapped.
        dx = G.backward(fctx, "ag_matmul.bwd", dfull, self.group, self.axis,
                        overlapped=True)
        return dx, dw


def copy_to_tensor_parallel_region(x: Tensor, group: ProcessGroup) -> Tensor:
    return F(x, group)


def reduce_from_tensor_parallel_region(x: Tensor, group: ProcessGroup) -> Tensor:
    return F_BAR(x, group)


def gather_from_sequence_parallel_region(x: Tensor, group: ProcessGroup,
                                         axis: int = 0) -> Tensor:
    return G(x, group, axis)


def scatter_to_sequence_parallel_region(x: Tensor, group: ProcessGroup,
                                        axis: int = 0) -> Tensor:
    return G_BAR(x, group, axis)


def scatter_split_sequence(x: Tensor, group: ProcessGroup, axis: int = 0) -> Tensor:
    return SCATTER_SEQ(x, group, axis)


def gather_with_slice_backward(x: Tensor, group: ProcessGroup, axis: int = 0) -> Tensor:
    return GATHER_SLICE(x, group, axis)


def all_gather_matmul(x: Tensor, w: Tensor, group: ProcessGroup, axis: int = 0,
                      category: str = "sp_linear_input") -> Tensor:
    out = apply(AllGatherMatmul(group, axis, category=category), x, w)
    out.layout = "replicated-batch/shard(out)"
    return out
