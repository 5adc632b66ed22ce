"""Generated oracle for the rank-local projection of ``tensor.apply``.

A ``Function`` declaring ``rank_local`` runs once, on rank 0, when its
inputs are abstract, and every rank gets the one result.  Each case below
applies one rank-local ``Function`` forward and backward at world 2-4 on
abstract inputs, then applies the same instance again with
``fn.rank_local = False`` (the per-rank run), and asserts the two runs
agree on everything the rest of the system can observe: shapes, the op
log, each rank's tracker stream, and which buffers alias which *within*
a rank.  Across ranks the projected run shares every fresh buffer, and a
pass-through output keeps its input's own list.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.longctx.mappings  # noqa: F401  (every Function subclass loaded)
import repro.parallel.embedding  # noqa: F401
import repro.parallel.loss  # noqa: F401
import repro.parallel.mappings  # noqa: F401
import repro.tensor.checkpoint  # noqa: F401
from repro.fusion import ops as FO
from repro.observability.memprof import MemProfiler, memprof_scope
from repro.tensor import (FP16, FP32, AbstractArray, Function, MemoryTracker,
                          OpLog, Tensor, apply, instrument, run_backward)
from repro.tensor import backend as bk
from repro.tensor import functions as F


class _StreamTracker(MemoryTracker):
    """A tracker that keeps its save/release stream, and the buffers each
    rank was charged, in order."""

    def __init__(self, world):
        super().__init__()
        self.stream = []
        self.charged = [[] for _ in range(world)]

    def save(self, rank, buffer, dtype, category="activation"):
        super().save(rank, buffer, dtype, category)
        self.charged[rank].append(buffer)
        self.stream.append(("save", rank, category, self.live_bytes(rank),
                            self.peak_bytes(rank)))

    def release(self, rank, buffer):
        super().release(rank, buffer)
        self.stream.append(("release", rank, self.live_bytes(rank)))


# ---------------------------------------------------------------------------
# input specs: rebuilt fresh for each of the two runs
# ---------------------------------------------------------------------------

def _dims(data, min_dims=1, max_dims=3, label="shape"):
    return data.draw(st.lists(st.integers(1, 4), min_size=min_dims,
                              max_size=max_dims).map(tuple), label=label)


def _tensor(data, shape, grad=None, param=False):
    """A tensor input: ``shape``, distinct shards per rank unless drawn
    shared (a replicated input); ``grad`` None draws ``requires_grad``."""
    if grad is None:
        grad = data.draw(st.booleans(), label="requires_grad")
    shared = data.draw(st.booleans(), label="shared across ranks")
    return ("tensor", tuple(shape), grad, param, shared)


def _broadcastable(data, shape):
    k = data.draw(st.integers(0, len(shape)), label="operand rank")
    return tuple(1 if data.draw(st.booleans(), label="broadcast dim") else d
                 for d in shape[len(shape) - k:])


def _binary(cls):
    def case(data, world):
        shape = _dims(data)
        a = _tensor(data, shape, grad=True)
        kind = data.draw(st.sampled_from(["tensor", "scalar", "same"]), label="b")
        if kind == "tensor":
            b = _tensor(data, _broadcastable(data, shape))
        elif kind == "scalar":
            b = ("value", 0.5)
        else:
            b = ("same", 0)  # the same tensor twice: a shared save / pass-through
        return cls(), [a, b]
    return case


def _unary(make):
    def case(data, world):
        return make(), [_tensor(data, _dims(data), grad=True)]
    return case


def _matmul(data, world):
    category = data.draw(st.sampled_from(["activation", "attn_qk"]), label="category")
    if data.draw(st.booleans(), label="linear"):
        lead, k, n = _dims(data, 1, 2, "lead"), *_dims(data, 2, 2, "k n")
        x, w = lead + (k,), (k, n)
    else:
        b, m, k, n = _dims(data, 4, 4, "b m k n")
        x, w = (b, m, k), (b, k, n)
    param = data.draw(st.booleans(), label="w is a parameter")
    return F.Matmul(category), [_tensor(data, x, grad=True),
                                _tensor(data, w, grad=param or None, param=param)]


def _reshape(data, world):
    shape = _dims(data, 1, 4)
    target = list(data.draw(st.permutations(shape), label="target"))
    if len(target) >= 2 and data.draw(st.booleans(), label="merge"):
        target[:2] = [target[0] * target[1]]
    if data.draw(st.booleans(), label="unknown"):
        target[data.draw(st.integers(0, len(target) - 1))] = -1
    return F.Reshape(target), [_tensor(data, shape, grad=True)]


def _transpose(data, world):
    shape = _dims(data, 1, 4)
    axes = data.draw(st.permutations(range(len(shape))), label="axes")
    return F.Transpose(axes), [_tensor(data, shape, grad=True)]


def _split(data, world):
    shape = list(_dims(data, 1, 3))
    axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
    sections = data.draw(st.integers(1, 3), label="sections")
    shape[axis] *= sections
    return F.Split(sections, axis - len(shape)), [_tensor(data, shape, grad=True)]


def _concat(data, world):
    base = list(_dims(data, 1, 3))
    axis = data.draw(st.integers(0, len(base) - 1), label="axis")
    parts = []
    for i in range(data.draw(st.integers(1, 3), label="parts")):
        shape = list(base)
        shape[axis] = data.draw(st.integers(1, 3), label="part width")
        parts.append(_tensor(data, shape, grad=True if i == 0 else None))
    return F.Concat(axis), parts


def _dropout_args(data, ndim):
    p = data.draw(st.sampled_from([0.0, 0.1]), label="p")  # p=0: identity
    mode = data.draw(st.sampled_from(["replicated", "sharded"]), label="mode")
    return p, mode, data.draw(st.integers(0, ndim - 1), label="shard axis")


def _dropout(data, world):
    shape = _dims(data)
    p, mode, axis = _dropout_args(data, len(shape))
    return F.Dropout(p, mode=mode, shard_axis=axis), [_tensor(data, shape, grad=True)]


def _norm(cls):
    def case(data, world):
        shape = _dims(data)
        h = shape[-1:]
        return cls(1e-5), [_tensor(data, shape, grad=True),
                           _tensor(data, h, grad=True, param=True),
                           _tensor(data, h, grad=True, param=True)]
    return case


def _embedding(data, world):
    v, h = _dims(data, 2, 2, "v h")
    return F.EmbeddingLookup(), [_tensor(data, (v, h), grad=True, param=True),
                                 _tensor(data, _dims(data, 1, 2, "ids"), grad=False)]


def _loss(cls):
    def case(data, world):
        s, b, v = _dims(data, 3, 3, "s b v")
        has_mask = data.draw(st.booleans(), label="loss mask")
        args = [_tensor(data, (s, b, v), grad=True), _tensor(data, (s, b), grad=False)]
        if has_mask:
            args.append(_tensor(data, (s, b), grad=False))
        return cls(has_mask), args
    return case


def _causal_mask(data, world):
    s = data.draw(st.integers(1, 4), label="s")
    return F.CausalMask(), [_tensor(data, _dims(data, 0, 2, "lead") + (s, s), grad=True)]


def _slice_axis(data, world):
    shape = _dims(data)
    axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
    start = data.draw(st.integers(0, shape[axis]), label="start")
    stop = data.draw(st.integers(start, shape[axis]), label="stop")
    return F.SliceAxis(axis, start, stop), [_tensor(data, shape, grad=True)]


def _bias_gelu(data, world):
    shape = _dims(data)
    return FO.BiasGelu(), [_tensor(data, shape, grad=True),
                           _tensor(data, shape[-1:], grad=True, param=True)]


def _scale_mask_softmax_dropout(data, world):
    b, a, s = _dims(data, 3, 3, "b a s")
    ring = data.draw(st.booleans(), label="ring")
    p, mode, _ = _dropout_args(data, 4)
    fn = FO.ScaleMaskSoftmaxDropout(0.125, p, mode=mode, shard_axis=1, ring=ring)
    shape = (b, a, s, s * world if ring else s)  # ring: (s/w, s) score panels
    return fn, [_tensor(data, shape, grad=True)]


def _dropout_add(data, world):
    shape = _dims(data)
    p, mode, axis = _dropout_args(data, len(shape))
    return FO.DropoutAdd(p, mode=mode, shard_axis=axis), [
        _tensor(data, shape, grad=True), _tensor(data, shape)]


#: One strategy per rank-local Function class.
CASES = {
    F.Add: _binary(F.Add),
    F.Mul: _binary(F.Mul),
    F.Matmul: _matmul,
    F.Reshape: _reshape,
    F.Transpose: _transpose,
    F.Split: _split,
    F.Concat: _concat,
    F.Gelu: _unary(F.Gelu),
    F.Softmax: _unary(F.Softmax),
    F.Dropout: _dropout,
    F.LayerNorm: _norm(F.LayerNorm),
    F.EmbeddingLookup: _embedding,
    F.Cast: _unary(lambda: F.Cast(FP32)),
    F.SumAll: _unary(F.SumAll),
    F.CrossEntropy: _loss(F.CrossEntropy),
    F.CausalMask: _causal_mask,
    F.SliceAxis: _slice_axis,
    FO.BiasGelu: _bias_gelu,
    FO.ScaleMaskSoftmaxDropout: _scale_mask_softmax_dropout,
    FO.FusedLayerNorm: _norm(FO.FusedLayerNorm),
    FO.DropoutAdd: _dropout_add,
    FO.SoftmaxCrossEntropy: _loss(FO.SoftmaxCrossEntropy),
}


def _shards(shape, world, shared):
    if shared:
        return [AbstractArray(shape)] * world
    return [AbstractArray(shape) for _ in range(world)]


def _build(specs, world):
    args = []
    for spec in specs:
        if spec[0] == "tensor":
            _, shape, grad, param, shared = spec
            args.append(Tensor(_shards(shape, world, shared), dtype=FP16,
                               requires_grad=grad, is_param=param))
        elif spec[0] == "same":
            args.append(args[spec[1]])
        else:
            args.append(spec[1])
    return args


def _pattern(objs):
    """Entry i -> the first index holding the same object; for a shard
    list, which ranks share which buffer."""
    return tuple(next(j for j, o in enumerate(objs) if o is x) for x in objs)


def _aliasing(lists, charged):
    """Per rank, which of ``lists``' rank-r buffers and of the buffers
    charged to rank r are one object."""
    return [_pattern([lst[r] for lst in lists] + saves)
            for r, saves in enumerate(charged)]


def _run(fn, specs, seed_plan, world):
    args = _build(specs, world)
    tensors = [a for a in args if isinstance(a, Tensor)]
    tracker, log = _StreamTracker(world), OpLog()
    with instrument(memory=tracker, oplog=log):
        out = apply(fn, *args)
        outs = out if isinstance(out, tuple) else (out,)
        node_world = outs[0]._node.world
        seeds = []
        for o, (seeded, shared) in zip(outs, seed_plan):
            if seeded:
                seeds.append((o, _shards(o.shape, world, shared)))
        run_backward(seeds)
    grads = [t.grad for t in tensors if t.grad is not None]
    through = [next((t for t in tensors
                     if all(a is b for a, b in zip(o.shards, t.shards))), None)
               for o in outs]
    return {
        "node_world": node_world,
        "out_shapes": [[bk.shape_of(s) for s in o.shards] for o in outs],
        "out_dtypes": [o.dtype for o in outs],
        "grad_shapes": [None if t.grad is None else [bk.shape_of(g) for g in t.grad]
                        for t in tensors],
        # which ranks share which output buffer, and, for an output that
        # passes an input through, that input's own sharing
        "out_patterns": [_pattern(o.shards) for o in outs],
        "through": [None if t is None else _pattern(t.shards) for t in through],
        "aliasing": _aliasing([t.shards for t in tensors] + [o.shards for o in outs]
                              + [g for _, g in seeds] + grads, tracker.charged),
        "records": list(log.records),
        "stream": tracker.stream,
        "watermarks": tracker.watermark_events(),
        "live_after": [tracker.live_bytes(r) for r in range(world)],
    }


class TestProjectionOracle:
    @pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_projected_run_matches_per_rank_run(self, cls, data):
        world = data.draw(st.integers(2, 4), label="world")
        fn, specs = CASES[cls](data, world)
        assert type(fn) is cls
        n_out = fn.sections if cls is F.Split else 1
        seed_plan = [(i == 0 or data.draw(st.booleans(), label="seed output"),
                      data.draw(st.booleans(), label="seed grad shared"))
                     for i in range(n_out)]
        projected = fn.rank_local
        first = _run(fn, specs, seed_plan, world)
        fn.rank_local = False
        per_rank = _run(fn, specs, seed_plan, world)

        assert first["node_world"] == (world if projected else 1)
        assert per_rank["node_world"] == 1
        for key in ("out_shapes", "out_dtypes", "grad_shapes", "through",
                    "aliasing", "records", "stream", "watermarks", "live_after"):
            assert first[key] == per_rank[key], key
        assert per_rank["live_after"] == [0] * world
        for run, fresh_shared in ((first, projected), (per_rank, False)):
            for pattern, through in zip(run["out_patterns"], run["through"]):
                if through is None:  # fresh: one buffer for all ranks if projected
                    assert pattern == ((0,) * world if fresh_shared
                                       else tuple(range(world)))
                else:  # a pass-through keeps its input's own list
                    assert pattern == through


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestDeclarations:
    def test_every_rank_local_class_has_an_oracle_strategy(self):
        declared = {c for c in _subclasses(Function) if c.__dict__.get("rank_local")}
        assert declared, "no rank-local Function found"
        missing = sorted(c.__qualname__ for c in declared - set(CASES))
        assert not missing, f"rank_local without a strategy in CASES: {missing}"
        assert set(CASES) <= declared

    def test_ring_softmax_stays_per_rank(self):
        assert FO.ScaleMaskSoftmaxDropout(1.0, 0.0).rank_local
        assert not FO.ScaleMaskSoftmaxDropout(1.0, 0.0, ring=True).rank_local


class TestWhenProjected:
    def _gelu(self, shards):
        return F.gelu(Tensor(shards, requires_grad=True))

    def test_memory_profiler_keeps_the_per_rank_path(self):
        # memprof keys producers by id(shard) alone: each rank's output
        # must stay its own object under a profiler.
        with memprof_scope(MemProfiler()):
            y = self._gelu([AbstractArray((2, 3)) for _ in range(4)])
        assert y._node.world == 1
        assert _pattern(y.shards) == (0, 1, 2, 3)

    def test_abstract_inputs_are_projected(self):
        y = self._gelu([AbstractArray((2, 3)) for _ in range(4)])
        assert y._node.world == 4
        assert _pattern(y.shards) == (0, 0, 0, 0)

    def test_concrete_inputs_are_not_projected(self):
        y = self._gelu([np.zeros((2, 3)) for _ in range(2)])
        assert y._node.world == 1
        assert _pattern(y.shards) == (0, 1)

    def test_world_one_is_not_projected(self):
        y = self._gelu([AbstractArray((2, 3))])
        assert y._node.world == 1
