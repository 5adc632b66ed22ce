"""The boundary table of :mod:`repro.parallel.mappings`.

Two statements about the six rows:

* each row's backward leg is the *adjoint* of its forward leg — what
  "conjugate pair" means, as an inner-product identity;
* each row is, record for record and bit for bit, the hand-written
  ``Function`` class it replaced (kept below, verbatim but for the
  cover ``f``'s backward record names, as the oracle).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import collectives
from repro.comm.process_group import ProcessGroup
from repro.errors import CommError
from repro.parallel import mappings
from repro.parallel.mappings import LEGS, ROWS
from repro.tensor import FP16, FP32, OpLog, Tensor, instrument
from repro.tensor import backend as bk
from repro.tensor.oplog import Phase
from repro.tensor.tensor import FnCtx, Function, ShardList, apply

BY_NAME = {row.name: row for row in ROWS}
WORLDS = (1, 2, 4)
AXES = (0, 1, -1)


def _ints(rng, shape):
    """Small integers as floats: every sum below is exact."""
    return rng.integers(-4, 5, size=shape).astype(np.float64)


def _operand(rng, shape, world, replicated):
    """One array per rank — the same one when the space is replicated."""
    if replicated:
        full = _ints(rng, shape)
        return [full.copy() for _ in range(world)]
    return [_ints(rng, shape) for _ in range(world)]


def _pairing(a, b, replicated):
    """The inner product of two shard lists: summed over the ranks where
    they hold distinct data, counted once where every rank holds the same."""
    if replicated:
        return float(np.sum(a[0] * b[0]))
    return float(sum(np.sum(ai * bi) for ai, bi in zip(a, b)))


def _shape(axis, world, extra):
    """A 3-D shard shape whose ``axis`` any leg can split ``world`` ways."""
    shape = [2, 3, 2]
    shape[axis] = world * extra
    return tuple(shape)


class TestAdjoint:
    @given(row=st.sampled_from(ROWS), world=st.sampled_from(WORLDS),
           axis=st.sampled_from(AXES), extra=st.integers(1, 3),
           data_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_backward_leg_is_the_adjoint_of_the_forward_leg(
            self, row, world, axis, extra, data_seed):
        """``<forward(x), y> == <x, backward(y)>``.

        A local leg (``identity``, ``slice``) reads only its own rank, so
        it is a map of the logical tensor only where that tensor is
        replicated: a row's input space is replicated exactly when its
        forward leg is local, its gradient space exactly when its
        backward leg is (the "valid only under a replicated gradient" of
        ``gather_slice``).  Everywhere else the ranks hold distinct data
        and the pairing sums over them.
        """
        rng = np.random.default_rng(data_seed)
        x_replicated = row.forward.op is None
        y_replicated = row.backward.op is None
        x = Tensor(_operand(rng, _shape(axis, world, extra), world, x_replicated),
                   requires_grad=True)
        out = row(x, ProcessGroup(world), axis)
        y = _operand(rng, out.shape, world, y_replicated)
        out.backward([yi.copy() for yi in y])
        assert (_pairing(out.shards, y, y_replicated)
                == _pairing(x.shards, x.grad, x_replicated))

    def test_the_table_is_five_legs_and_three_conjugate_pairs(self):
        assert sorted(LEGS) == ["all_gather", "all_reduce", "identity",
                                "reduce_scatter", "slice"]
        legs = {id(leg): name for name, leg in LEGS.items()}
        pairs = {(legs[id(row.forward)], legs[id(row.backward)]) for row in ROWS}
        assert pairs == {(b, a) for a, b in pairs} and len(pairs) == 6


# -- the oracle: the six classes the rows replaced, verbatim but for f's cover --

def _full_bytes(shards: ShardList, width: int, multiplier: int = 1) -> int:
    return bk.size_of(shards[0]) * width * multiplier


class CopyToTensorParallelRegion(Function):
    """``f``: identity forward, all-reduce backward (Figure 4).

    The backward all-reduce names its cover, the record before it: the
    weight-gradient GEMM of the linear ``f`` feeds, which Megatron
    overlaps it with and the paper credits for full-recompute overhead
    being 39% rather than 33%.
    """

    name = "f"

    def __init__(self, group: ProcessGroup):
        self.group = group

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        return list(x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("f.bwd", "all_reduce", _full_bytes(grad, width),
                      self.group.size, scope=self.group.scope, cover=-1)
        return (collectives.all_reduce(grad),)


class ReduceFromTensorParallelRegion(Function):
    """``f̄``: all-reduce forward (sums partial outputs), identity backward."""

    name = "f_bar"

    def __init__(self, group: ProcessGroup):
        self.group = group

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("f_bar", "all_reduce", _full_bytes(x, width),
                      self.group.size, scope=self.group.scope)
        return collectives.all_reduce(x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        return (list(grad),)


class GatherFromSequenceParallelRegion(Function):
    """``g``: all-gather along the sequence dim forward, reduce-scatter
    backward (Figure 5)."""

    name = "g"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g", "all_gather",
                      _full_bytes(x, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return collectives.all_gather(x, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g.bwd", "reduce_scatter", bk.size_of(grad[0]) * width,
                      self.group.size, scope=self.group.scope)
        return (collectives.reduce_scatter(grad, self.axis),)


class ScatterToSequenceParallelRegion(Function):
    """``ḡ``: reduce-scatter forward (sums partials and shards the
    sequence dim), all-gather backward (Figure 5)."""

    name = "g_bar"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g_bar", "reduce_scatter", _full_bytes(x, width),
                      self.group.size, scope=self.group.scope)
        return collectives.reduce_scatter(x, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("g_bar.bwd", "all_gather",
                      _full_bytes(grad, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return (collectives.all_gather(grad, self.axis),)


class ScatterSplitSequence(Function):
    """Enter the sequence-parallel region from replicated data.

    Forward is a local slice (rank ``i`` keeps chunk ``i`` of the sequence
    dim — no communication, the data is already resident everywhere);
    backward all-gathers the gradient chunks back to the replicated layout.
    Used after the embedding lookup (Section 4.3).
    """

    name = "scatter_seq"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        world = len(x)
        shape = bk.shape_of(x[0])
        if shape[self.axis] % world != 0:
            raise CommError(
                f"axis {self.axis} ({shape[self.axis]}) not divisible by world {world}"
            )
        chunk = shape[self.axis] // world
        return [
            bk.slice_axis(x[r], self.axis, r * chunk, (r + 1) * chunk)
            for r in range(world)
        ]

    def backward(self, fctx: FnCtx, grad: ShardList):
        width = fctx.inputs[0].dtype.nbytes
        fctx.log_comm("scatter_seq.bwd", "all_gather",
                      _full_bytes(grad, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return (collectives.all_gather(grad, self.axis),)


class GatherWithSliceBackward(Function):
    """All-gather whose backward is a local slice (no communication).

    Appropriate when the downstream gradient is *replicated* across the
    group (the consumer region contains ``f``, whose backward all-reduce
    makes every rank's gradient identical), so each rank can simply take
    its own chunk instead of reduce-scattering.  Used by the sharded-
    checkpoint variant of full recomputation: the paper's "store a portion
    of activations in each tensor parallel rank ... requires an extra
    all-gather per layer" (Section 5) — the all-gather is this operator's
    forward, re-run during recomputation.
    """

    name = "gather_slice"

    def __init__(self, group: ProcessGroup, axis: int = 0):
        self.group = group
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        self.group.check_world(len(x))
        width = fctx.inputs[0].dtype.nbytes
        fctx.misc["chunk"] = bk.shape_of(x[0])[self.axis]
        fctx.log_comm("gather_slice", "all_gather",
                      _full_bytes(x, width, multiplier=self.group.size),
                      self.group.size, scope=self.group.scope)
        return collectives.all_gather(x, self.axis)

    def backward(self, fctx: FnCtx, grad: ShardList):
        chunk = fctx.misc["chunk"]
        return ([
            bk.slice_axis(g, self.axis, r * chunk, (r + 1) * chunk)
            for r, g in enumerate(grad)
        ],)


ORACLES = {
    "f": CopyToTensorParallelRegion,
    "f_bar": ReduceFromTensorParallelRegion,
    "g": GatherFromSequenceParallelRegion,
    "g_bar": ScatterToSequenceParallelRegion,
    "scatter_seq": ScatterSplitSequence,
    "gather_slice": GatherWithSliceBackward,
}
PUBLIC = {
    "f": mappings.copy_to_tensor_parallel_region,
    "f_bar": mappings.reduce_from_tensor_parallel_region,
    "g": mappings.gather_from_sequence_parallel_region,
    "g_bar": mappings.scatter_to_sequence_parallel_region,
    "scatter_seq": mappings.scatter_split_sequence,
    "gather_slice": mappings.gather_with_slice_backward,
}


def _run(build, shards, dtype, grad):
    """Forward + backward under an op log: outputs, input grads, records."""
    log = OpLog()
    x = Tensor([s.copy() for s in shards], dtype=dtype, requires_grad=True)
    with instrument(oplog=log):
        out = build(x)
        out.backward([g.copy() for g in grad(out)])
    return out, x.grad, log.records


class TestRowsAreTheClassesTheyReplaced:
    @pytest.mark.parametrize("dtype, scope", [(FP16, "tp"), (FP32, "cp")],
                             ids=["fp16-tp", "fp32-cp"])
    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("world", WORLDS)
    @pytest.mark.parametrize("name", BY_NAME)
    def test_records_and_values_equal_the_oracle(self, name, world, axis,
                                                 dtype, scope):
        rng = np.random.default_rng(world * 100 + axis % 3)
        group = ProcessGroup(world, scope)
        shards = [rng.normal(size=_shape(axis, world, 2)) for _ in range(world)]
        takes_axis = name not in ("f", "f_bar")

        def grad(out):
            seed = np.random.default_rng(7)
            return [seed.normal(size=out.shape) for _ in range(world)]

        def oracle(x):
            cls = ORACLES[name]
            return apply(cls(group, axis) if takes_axis else cls(group), x)

        def row(x):
            op = PUBLIC[name]
            return op(x, group, axis) if takes_axis else op(x, group)

        want_out, want_grad, want_records = _run(oracle, shards, dtype, grad)
        got_out, got_grad, got_records = _run(row, shards, dtype, grad)
        # OpRecord is a frozen dataclass: name, kind, phase, overlapped,
        # cover and CommInfo(op, nbytes, group_size, scope) all compare.
        assert got_records == want_records
        legs = (BY_NAME[name].forward, BY_NAME[name].backward)
        assert [r.phase for r in got_records] == [
            phase for phase, leg in zip((Phase.FORWARD, Phase.BACKWARD), legs)
            if leg.op is not None]
        for got, want in zip(got_out.shards + got_grad, want_out.shards + want_grad):
            assert np.array_equal(got, want)
        # The layout tag the parent's wrapper put on the output.
        assert got_out.layout == (f"shard(dim={axis})" if name in ("g_bar", "scatter_seq")
                                  else "replicated")
