"""Tape-based reverse-mode autodiff over per-rank shard lists.

A :class:`Tensor` is SPMD-style: it holds one array **per rank** of a
(simulated) process group.  A serial model is simply ``world == 1``.  A
tensor-parallel model holds ``world == t`` shards; whether those shards are
replicas, partitions along some dimension, or partial sums is a property of
the producing layer (annotated in :attr:`Tensor.layout` for debugging and
assertions, as in Megatron-LM where layouts are implicit in the module
logic rather than a sharding algebra).

Autograd functions (:class:`Function`) operate on whole shard *lists* so a
single function application can express a collective (mix data across
ranks) as well as per-rank math, which :func:`map_shards` runs one shard
at a time.  Saved activations are charged to the
:class:`~repro.tensor.memory_tracker.MemoryTracker` per rank and released
when backward consumes them — giving byte-exact, time-resolved activation
memory for any execution order (including recomputation and pipelined
microbatches).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AutogradError, ShapeError
from . import backend as bk
from .backend import AbstractArray, ArrayLike
from .context import ctx
from .dtypes import FP16, FP32, DType
from .memory_tracker import MemoryTracker
from .oplog import CommInfo, OpKind, OpRecord, Phase

ShardList = List[ArrayLike]


def _as_shard_list(data) -> ShardList:
    if isinstance(data, (list, tuple)):
        return list(data)
    return [data]


class Tensor:
    """A (possibly multi-rank) differentiable tensor.

    All shards share one shape.  ``dtype`` is the *accounting* dtype (see
    :mod:`repro.tensor.dtypes`); concrete math always runs in float64.
    """

    __slots__ = ("shards", "dtype", "requires_grad", "is_param", "layout", "name", "grad", "_node", "_out_index")

    def __init__(
        self,
        shards,
        dtype: DType = FP16,
        requires_grad: bool = False,
        is_param: bool = False,
        layout: str = "replicated",
        name: str = "",
    ):
        self.shards: ShardList = _as_shard_list(shards)
        if not self.shards:
            raise ShapeError("Tensor needs at least one shard")
        s0 = self.shards[0]
        shape0 = bk.shape_of(s0)
        for s in self.shards[1:]:
            if s is not s0 and bk.shape_of(s) != shape0:
                raise ShapeError(
                    f"all shards must share a shape; got {shape0} and {bk.shape_of(s)}"
                )
        self.dtype = dtype
        self.requires_grad = requires_grad
        self.is_param = is_param
        self.layout = layout
        self.name = name
        self.grad: Optional[ShardList] = None
        self._node: Optional["Node"] = None
        self._out_index: int = 0

    # -- basic properties ----------------------------------------------------
    @property
    def world(self) -> int:
        return len(self.shards)

    @property
    def shape(self) -> Tuple[int, ...]:
        return bk.shape_of(self.shards[0])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return bk.size_of(self.shards[0])

    @property
    def is_abstract(self) -> bool:
        return bk.is_abstract(self.shards[0])

    @property
    def array(self) -> ArrayLike:
        """The single shard of a world-1 tensor (convenience for serial code)."""
        if self.world != 1:
            raise AutogradError(f"Tensor has {self.world} shards; use .shards")
        return self.shards[0]

    def item(self) -> float:
        """Scalar value (rank 0's shard; collectives keep scalars replicated)."""
        arr = self.shards[0]
        if bk.is_abstract(arr):
            raise AutogradError("cannot take .item() of an abstract tensor")
        return float(np.asarray(arr).reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(
            list(self.shards), dtype=self.dtype, requires_grad=False,
            is_param=self.is_param, layout=self.layout, name=self.name,
        )

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "abstract" if self.is_abstract else "concrete"
        return (
            f"Tensor(shape={self.shape}, world={self.world}, dtype={self.dtype.name}, "
            f"layout={self.layout!r}, {kind}{', param' if self.is_param else ''})"
        )

    # -- operator sugar (implemented in repro.tensor.functions) ---------------
    def __add__(self, other):
        from . import functions as F
        return F.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        from . import functions as F
        return F.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        from . import functions as F
        return F.add(self, F.mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __matmul__(self, other):
        from . import functions as F
        return F.matmul(self, other)

    def reshape(self, *shape):
        from . import functions as F
        return F.reshape(self, *shape)

    def transpose(self, *axes):
        from . import functions as F
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return F.transpose(self, axes)

    def sum(self):
        from . import functions as F
        return F.sum_all(self)

    # -- autograd --------------------------------------------------------------
    def backward(self, grad: Optional[ShardList] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (appropriate for a scalar loss).  Saved
        activations are released (and de-charged from the memory tracker) as
        each node's backward completes.
        """
        if self._node is None:
            if self.requires_grad:
                raise AutogradError("backward() on a leaf tensor does nothing")
            raise AutogradError("tensor does not require grad / has no graph")
        if grad is None:
            s0 = self.shards[0]
            grad = ([bk.shaped(s0.shape)] * self.world if type(s0) is AbstractArray
                    else [np.ones_like(s) for s in self.shards])
        run_backward([(self, grad)])


class FnCtx:
    """Per-application context: saved buffers and their tracker charges.

    A save takes a whole shard list and charges each rank's own buffer, in
    rank order; a list :func:`map_shards` shares across ranks is charged
    once per rank all the same.
    """

    __slots__ = ("inputs", "_saved", "_charges", "misc", "out_dtypes")

    def __init__(self, inputs: Sequence[Optional[Tensor]]):
        self.inputs = tuple(inputs)
        self._saved: List[ShardList] = []
        self._charges: List[Tuple[int, object, DType]] = []  # (rank, buf, dtype)
        self.misc: dict = {}
        self.out_dtypes: Optional[List[DType]] = None

    # -- saving ----------------------------------------------------------------
    def save_input(self, index: int, category: str = "activation") -> int:
        """Save input tensor ``index`` for backward.

        Parameters (``is_param``) are saved for reuse but **not** charged to
        the activation tracker: they live in parameter memory regardless.
        """
        t = self.inputs[index]
        if t is None:
            raise AutogradError(f"input {index} is not a tensor")
        return self._save(t.shards, t.dtype, category, charge=not t.is_param)

    def save_new(self, shards: ShardList, dtype: DType, category: str = "activation") -> int:
        """Save freshly created buffers (always charged)."""
        return self._save(shards, dtype, category, charge=True)

    def _save(self, shards: ShardList, dtype: DType, category: str, charge: bool) -> int:
        if not ctx().grad_enabled:
            # no tape -> nothing retained; still return a slot so callers
            # can write uniform code (the slot holds the caller's live list).
            self._saved.append(shards)
            return len(self._saved) - 1
        self._saved.append(list(shards))
        if charge:
            c = ctx()
            tracker = c.memory
            if tracker is not None:
                for rank, buf in enumerate(shards):
                    tracker.save(rank, buf, dtype, category)
                    self._charges.append((rank, buf, dtype))
            if c.capture is not None:
                c.capture.on_save(self, shards, dtype)
        return len(self._saved) - 1

    def saved(self, slot: int) -> ShardList:
        return self._saved[slot]

    def release(self) -> None:
        """Release all tracker charges (backward consumed the saves)."""
        tracker = ctx().memory
        if tracker is not None:
            for rank, buf, _dtype in self._charges:
                tracker.release(rank, buf)
        self._charges.clear()
        self._saved.clear()

    # -- logging ----------------------------------------------------------------
    def log_gemm(self, name: str, flops_per_rank: float, bytes_moved: float = 0.0) -> None:
        c = ctx()
        if c.oplog is None and c.tracer is None and c.memprof is None:
            return
        record = OpRecord(name=name, kind=OpKind.GEMM, phase=c.phase,
                          flops=flops_per_rank, bytes_moved=bytes_moved)
        if c.oplog is not None:
            c.oplog.add(record)
        if c.tracer is not None:
            c.tracer.on_op(record)
        if c.memprof is not None:
            c.memprof.on_op_record(record)

    def log_elementwise(self, name: str, bytes_moved: float, flops_per_rank: float = 0.0,
                        fused: bool = False) -> None:
        c = ctx()
        if c.oplog is None and c.tracer is None and c.memprof is None:
            return
        record = OpRecord(name=name, kind=OpKind.ELEMENTWISE, phase=c.phase,
                          flops=flops_per_rank, bytes_moved=bytes_moved, fused=fused)
        if c.oplog is not None:
            c.oplog.add(record)
        if c.tracer is not None:
            c.tracer.on_op(record)
        if c.memprof is not None:
            c.memprof.on_op_record(record)

    def log_comm(self, name: str, op: str, nbytes: int, group_size: int,
                 scope: str = "tp", overlapped: bool = False) -> None:
        c = ctx()
        if c.oplog is None and c.tracer is None and c.memprof is None:
            return
        record = OpRecord(
            name=name, kind=OpKind.COLLECTIVE if op != "p2p" else OpKind.P2P,
            phase=c.phase,
            comm=CommInfo(op=op, nbytes=int(nbytes), group_size=group_size, scope=scope),
            overlapped=overlapped,
        )
        if c.oplog is not None:
            c.oplog.add(record)
        if c.tracer is not None:
            # The tracer prices P2P records here; collectives are priced
            # by the data-plane hook in repro.comm.collectives instead.
            c.tracer.on_op(record)
        if c.memprof is not None:
            c.memprof.on_op_record(record)


class Function:
    """Base class for differentiable operations.

    Subclasses hold their non-tensor parameters as attributes (set in
    ``__init__``) and implement:

    * ``forward(fctx, *shard_lists) -> shard_list | tuple[shard_list, ...]``
    * ``backward(fctx, *grad_shard_lists) -> tuple[shard_list | None, ...]``
      returning one gradient (or ``None``) per *tensor* input.

    Both see whole shard lists: they do the per-op bookkeeping (saves,
    ``fctx.log_*``, shapes, mask draws) once, and hand each rank's math
    to :func:`map_shards` as a kernel of one shard per input.
    """

    name = "fn"
    #: Composite functions (e.g. ``Checkpoint``) run other functions
    #: inside their ``forward``/``backward``; the step compiler records
    #: them as one opaque call instead of re-recording their inner ops.
    composite = False

    def forward(self, fctx: FnCtx, *args):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, fctx: FnCtx, *grad_outputs):  # pragma: no cover - abstract
        raise NotImplementedError


def map_shards(kernel, *lists: ShardList, shape=None):
    """``kernel`` applied rank by rank: ``kernel(a[r], b[r], ...)`` for
    each rank ``r`` of the shard lists, as one list (or, when the kernel
    returns a tuple, one list per element).

    ``shape`` declares the abstract result: a rule from the inputs'
    rank-0 shapes (``None`` for a non-array) to the output's shape, or a
    list of them (``None`` for a ``None`` output).  When any input is
    abstract the mapper builds the result from the rule and never enters
    the kernel, which is NumPy only.  A declared result is a fresh
    buffer, so a kernel that may pass an input through (a reshape, an
    unbroadcast grad) declares none and reaches NumPy only through
    ``bk.*`` and array operators.  On abstract lists at world > 1 it runs
    once, on rank 0's shards, and a result that *is* its rank-0 input
    stands for that input's own list, as the tracker's identity dedup
    needs.

    An abstract result is one instance every rank shares, except under a
    memory profiler or a capture, which key buffers by identity alone.
    """
    world = len(lists[0])
    if shape is not None:
        for a in lists:
            if type(a[0]) is AbstractArray:
                return _declared(shape(*[getattr(b[0], "shape", None) for b in lists]), world)
    elif world > 1 and type(lists[0][0]) is AbstractArray and _shareable():
        one = kernel(*[a[0] for a in lists])
        if type(one) is tuple:
            return tuple(_shared(o, lists, world) for o in one)
        return _shared(one, lists, world)
    out = list(map(kernel, *lists))
    if type(out[0]) is tuple:
        return tuple(map(list, zip(*out)))
    return out


def same_shape(shape, *_):
    """The ``shape`` rule of an elementwise kernel: its first input's."""
    return shape


def _shareable() -> bool:
    """Whether ranks may share one abstract result (see map_shards)."""
    c = ctx()
    return c.memprof is None and c.capture is None


def _declared(shapes, world: int):
    """The abstract outputs a ``shape`` rule declares, one list each."""
    if type(shapes) is list:
        return tuple(_declared(s, world) for s in shapes)
    if shapes is None:
        return [None] * world
    if _shareable():
        return [bk.shaped(shapes)] * world
    return [bk.shaped(shapes) for _ in range(world)]


def _shared(one, lists: Sequence[ShardList], world: int) -> ShardList:
    """A projected kernel's one result as every rank's."""
    for a in lists:
        if a[0] is one:
            return list(a)
    return [one] * world


class Node:
    """A recorded function application on the tape."""

    __slots__ = ("fn", "fctx", "inputs", "n_outputs", "out_templates", "spent")

    def __init__(self, fn: Function, fctx: FnCtx, inputs: Sequence[Optional[Tensor]],
                 outputs: Sequence[Tensor]):
        self.fn = fn
        self.fctx = fctx
        self.inputs = tuple(inputs)
        self.n_outputs = len(outputs)
        # Enough metadata to synthesize zero grads for unused outputs.
        self.out_templates = [
            (t.shape, t.world, t.is_abstract) for t in outputs
        ]
        #: ``None`` until backward runs it or :func:`free_graph` drops its
        #: saves; then the name of whichever did.
        self.spent: Optional[str] = None


def apply(fn: Function, *args, **kwargs) -> Union[Tensor, Tuple[Tensor, ...]]:
    """Run ``fn`` on ``args`` (Tensors or plain values), recording a tape node.

    Non-Tensor positional args are passed to ``forward`` verbatim with a
    ``None`` placeholder in the node's input list (no gradient flows).
    ``forward`` sees every tensor argument's whole shard list; the rank
    loop and its abstract projection are :func:`map_shards`'s.
    """
    tensor_inputs: List[Optional[Tensor]] = []
    fwd_args = []
    first = None  # the first tensor input lends the outputs dtype and layout
    requires = False
    for a in args:
        if isinstance(a, Tensor):
            tensor_inputs.append(a)
            fwd_args.append(a.shards)
            requires = requires or a.requires_grad
            if first is None:
                first = a
        else:
            tensor_inputs.append(None)
            fwd_args.append(a)
    c = ctx()
    mp = c.memprof
    cap = c.capture
    fctx = FnCtx(tensor_inputs)
    if cap is not None and fn.composite:
        # Composite ops replay as one opaque call; don't record the inner
        # function applications their forward runs.
        cap.suspend()
    try:
        if mp is None:
            out = fn.forward(fctx, *fwd_args, **kwargs)
        else:
            frame = mp.begin_op(fn.name, tensor_inputs)
            try:
                out = fn.forward(fctx, *fwd_args, **kwargs)
            finally:
                mp.end_op()
    finally:
        if cap is not None and fn.composite:
            cap.resume()

    multi = isinstance(out, tuple)
    out_lists = list(out) if multi else [out]

    requires = requires and c.grad_enabled
    in_dtype, layout = (FP16, "replicated") if first is None else (first.dtype, first.layout)
    dtypes = fctx.out_dtypes or [in_dtype] * len(out_lists)
    outputs = [
        Tensor(shards, dtype=dt, requires_grad=requires, layout=layout)
        for shards, dt in zip(out_lists, dtypes)
    ]
    if mp is not None:
        mp.register_outputs(frame, tensor_inputs, outputs)

    if requires:
        node = Node(fn, fctx, tensor_inputs, outputs)
        for i, t in enumerate(outputs):
            t._node = node
            t._out_index = i
    else:
        # Forward-only: drop any tracker charges immediately.
        fctx.release()

    if cap is not None:
        cap.on_apply(fn, fctx, args, kwargs, outputs, requires, multi)

    return tuple(outputs) if multi else outputs[0]


def _zeros_for(template) -> ShardList:
    shape, world, abstract = template
    if abstract:  # a shape: one array stands for every rank
        return [bk.shaped(shape)] * world
    return [bk.zeros(shape) for _ in range(world)]


def _accumulate(dst: Optional[ShardList], src: ShardList) -> ShardList:
    if dst is None:
        return list(src)
    d0, s0 = dst[0], src[0]
    if (type(s0) is AbstractArray and type(d0) is AbstractArray
            and src.count(s0) == len(src) and dst.count(d0) == len(dst)):
        return [d0 + s0] * len(src)  # both shared across ranks: so is the sum
    return [d + s for d, s in zip(dst, src)]


def run_backward(seeds: Sequence[Tuple[Tensor, ShardList]]) -> None:
    """Reverse-topological traversal from one or more seed tensors.

    ``seeds`` pairs each root tensor with the gradient flowing into it.
    Multiple seeds are needed when a checkpointed region has several
    outputs whose gradients arrive together.
    """
    pending: dict = {}  # id(node) -> List[Optional[ShardList]] per output
    roots: List[Node] = []
    cap = ctx().capture
    for root, grad in seeds:
        if root._node is None:
            raise AutogradError("seed tensor has no producing node")
        if len(grad) != root.world:
            raise AutogradError(f"grad has {len(grad)} shards, tensor has {root.world}")
        slot = pending.setdefault(id(root._node), [None] * root._node.n_outputs)
        slot[root._out_index] = (
            _accumulate(slot[root._out_index], grad)
            if slot[root._out_index] is not None
            else list(grad)
        )
        roots.append(root._node)
    if cap is not None:
        cap.on_backward_begin(seeds)

    # Iterative topological sort over nodes reachable from any seed.
    topo: List[Node] = []
    visited = set()
    stack: List[Tuple[Node, bool]] = [(n, False) for n in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.spent == "free_graph":
            raise AutogradError(
                f"backward through a freed graph: free_graph() released the "
                f"saved activations of {node.fn.name!r}"
            )
        visited.add(id(node))
        stack.append((node, True))
        for t in node.inputs:
            if t is not None and t._node is not None:
                stack.append((t._node, False))

    prev_phase = ctx().phase
    ctx().phase = Phase.BACKWARD
    try:
        for node in reversed(topo):
            if node.spent is not None:
                raise AutogradError(
                    "graph node executed twice (double backward is not supported)"
                )
            node.spent = "backward"
            grads_out = pending.pop(id(node), [None] * node.n_outputs)
            if all(g is None for g in grads_out):
                node.fctx.release()
                if cap is not None:
                    cap.on_node_release(node)
                continue
            sources = cap.on_node_pop(node) if cap is not None else None
            grads_out = [
                g if g is not None else _zeros_for(node.out_templates[i])
                for i, g in enumerate(grads_out)
            ]
            if cap is not None and node.fn.composite:
                # Composite backward (checkpoint recompute) replays as one
                # opaque call; don't record its inner re-execution.
                cap.suspend()
                try:
                    grads_in = node.fn.backward(node.fctx, *grads_out)
                finally:
                    cap.resume()
            else:
                grads_in = node.fn.backward(node.fctx, *grads_out)
            if not isinstance(grads_in, tuple):
                grads_in = (grads_in,)
            n_tensor_inputs = len(node.inputs)
            if len(grads_in) != n_tensor_inputs:
                raise AutogradError(
                    f"{node.fn.name}.backward returned {len(grads_in)} grads "
                    f"for {n_tensor_inputs} inputs"
                )
            if cap is not None:
                cap.on_node_backward(node, sources, grads_in)
            for t, g in zip(node.inputs, grads_in):
                if t is None or g is None:
                    continue
                if not t.requires_grad:
                    continue
                if t._node is None:
                    t.grad = _accumulate(t.grad, g)
                else:
                    slot = pending.setdefault(id(t._node), [None] * t._node.n_outputs)
                    slot[t._out_index] = (
                        _accumulate(slot[t._out_index], g)
                        if slot[t._out_index] is not None
                        else list(g)
                    )
            node.fctx.release()
    finally:
        ctx().phase = prev_phase


def free_graph(*tensors: Tensor) -> None:
    """Release the saved activations of a graph without running backward.

    Used when a forward pass is measured and then discarded (e.g. abstract
    paper-scale runs, or dropping a microbatch in a schedule simulation).
    The nodes are spent: a later backward through them is an
    :class:`AutogradError`, raised before any backward runs.
    """
    stack = [t._node for t in tensors if t._node is not None]
    seen = set()
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        node.fctx.release()
        if node.spent is None:
            node.spent = "free_graph"
        for t in node.inputs:
            if t is not None and t._node is not None:
                stack.append(t._node)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def from_numpy(arr: np.ndarray, dtype: DType = FP16, requires_grad: bool = False,
               layout: str = "single", name: str = "") -> Tensor:
    """Wrap a single NumPy array as a world-1 tensor."""
    return Tensor([np.asarray(arr, dtype=np.float64)], dtype=dtype,
                  requires_grad=requires_grad, layout=layout, name=name)


def parameter(shards, dtype: DType = FP16, layout: str = "replicated", name: str = "") -> Tensor:
    """A trainable parameter: requires grad, excluded from activation memory."""
    return Tensor(shards, dtype=dtype, requires_grad=True, is_param=True,
                  layout=layout, name=name)


def replicate(arr: ArrayLike, world: int, dtype: DType = FP16,
              requires_grad: bool = False, name: str = "") -> Tensor:
    """Replicate one array across ``world`` ranks (shares the buffer)."""
    return Tensor([arr] * world, dtype=dtype, requires_grad=requires_grad,
                  layout="replicated", name=name)


def shard_along(arr: np.ndarray, world: int, axis: int, dtype: DType = FP16,
                requires_grad: bool = False, is_param: bool = False,
                name: str = "") -> Tensor:
    """Split a concrete array into ``world`` equal shards along ``axis``."""
    pieces = bk.split(arr, world, axis)
    return Tensor(pieces, dtype=dtype, requires_grad=requires_grad,
                  is_param=is_param, layout=f"shard(dim={axis})", name=name)


def abstract(shape: Sequence[int], world: int = 1, dtype: DType = FP16,
             requires_grad: bool = False, layout: str = "replicated",
             name: str = "") -> Tensor:
    """A shape-only tensor for paper-scale abstract execution."""
    return Tensor([AbstractArray(shape)] * world, dtype=dtype,
                  requires_grad=requires_grad, layout=layout, name=name)
