"""The rank loop of a shard-local op: ``tensor.map_shards``.

A per-rank ``Function`` hands one shard's math to ``map_shards``, which
maps it rank by rank on concrete shards and runs it once, sharing the
result, on abstract shards at world > 1 (not under a memory profiler).
What that structure cannot guarantee is checked here: each converted op's
projected run and per-rank run (the same case under a ``MemProfiler``)
agree on shapes, op log, per-rank tracker stream and within-rank
aliasing; a result that *is* its rank-0 input keeps that input's own
list; concrete shards and the profiler path keep one object per rank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import ops as FO
from repro.observability.memprof import MemProfiler, memprof_scope
from repro.tensor import (FP32, AbstractArray, MemoryTracker, OpLog, Tensor, apply,
                          instrument, run_backward)
from repro.tensor import functions as F
from repro.tensor.tensor import map_shards

B = st.booleans()


class _StreamTracker(MemoryTracker):
    """Keeps its save/release stream and each rank's charged buffers."""

    def __init__(self, world):
        super().__init__()
        self.stream, self.charged = [], [[] for _ in range(world)]

    def save(self, rank, buffer, dtype, category="activation"):
        super().save(rank, buffer, dtype, category)
        self.charged[rank].append(buffer)
        self.stream.append(("save", rank, category, self.live_bytes(rank),
                            self.peak_bytes(rank)))

    def release(self, rank, buffer):
        super().release(rank, buffer)
        self.stream.append(("release", rank, self.live_bytes(rank)))


def _dims(d, lo=1, hi=3):
    return d.draw(st.lists(st.integers(1, 4), min_size=lo, max_size=hi).map(tuple))


def _case(cls, d, world):
    """A generated ``(fn, specs)``; a spec is ("t", shape, requires_grad or None
    to draw it, is_param), ("same", input index) or ("v", plain value)."""
    shape = _dims(d)
    x, param = ("t", shape, True, False), ("t", shape[-1:], True, True)
    axis = d.draw(st.integers(0, len(shape) - 1), label="axis")
    if cls in (F.Add, F.Mul):
        k = d.draw(st.integers(0, len(shape)), label="operand rank")
        b = ("t", tuple(1 if d.draw(B) else n for n in shape[len(shape) - k:]), None, False)
        kind = d.draw(st.sampled_from(["tensor", "scalar", "same"]), label="b")
        return cls(), [x, {"tensor": b, "scalar": ("v", 0.5), "same": ("same", 0)}[kind]]
    if cls is F.Matmul:
        (k, n), p = _dims(d, 2, 2), d.draw(B)
        xs, ws = (shape + (k,), (k, n)) if d.draw(B) else (shape[:1] + (n, k), shape[:1] + (k, n))
        fn = F.Matmul(d.draw(st.sampled_from(["activation", "attn_qk"]), label="category"))
        return fn, [("t", xs, True, False), ("t", ws, p or None, p)]
    if cls in (F.Reshape, F.Transpose):
        perm = d.draw(st.permutations(range(len(shape))), label="perm")
        target = [shape[a] for a in perm]
        if len(target) >= 2 and d.draw(B):
            target[:2] = [target[0] * target[1]]
        return (F.Reshape(target) if cls is F.Reshape else F.Transpose(perm)), [x]
    if cls is F.SliceAxis:
        start = d.draw(st.integers(0, shape[axis]), label="start")
        return F.SliceAxis(axis, start, d.draw(st.integers(start, shape[axis]))), [x]
    if cls in (F.Split, F.Concat):
        n = d.draw(st.integers(1, 3), label="sections / parts")
        wide = shape[:axis] + (shape[axis] * n,) + shape[axis + 1:]
        if cls is F.Split:
            return F.Split(n, axis - len(shape)), [("t", wide, True, False)]
        return F.Concat(axis), [x] + [("t", shape, None, False)] * (n - 1)
    if cls in (F.Dropout, FO.DropoutAdd, FO.ScaleMaskSoftmaxDropout):
        p = d.draw(st.sampled_from([0.0, 0.1]), label="p")  # p=0: identity
        mode = d.draw(st.sampled_from(["replicated", "sharded"]), label="mode")
        if cls is not FO.ScaleMaskSoftmaxDropout:  # DropoutAdd has a residual
            return cls(p, mode, axis), [x] + [("t", shape, None, False)] * (cls is FO.DropoutAdd)
        ring = d.draw(B)  # scores (..., s, s), or (..., s/w, s) panels
        fn = cls(0.125, p, mode=mode, shard_axis=axis, ring=ring)
        return fn, [("t", shape + (shape[-1] * (world if ring else 1),), True, False)]
    if cls in (F.CrossEntropy, FO.SoftmaxCrossEntropy):
        has_mask, ids = d.draw(B), x[:2] + (False, False)
        return cls(has_mask), [("t", shape + (d.draw(st.integers(1, 4)),), True, False)] + [
            ids] * (1 + has_mask)
    if cls is F.CausalMask:
        return cls(), [("t", shape[:-1] + shape[-1:] * 2, True, False)]
    if cls is F.EmbeddingLookup:
        return cls(), [("t", _dims(d, 2, 2), True, True), ("t", shape, False, False)]
    n_params = {F.LayerNorm: 2, FO.FusedLayerNorm: 2, FO.BiasGelu: 1}.get(cls, 0)
    return (F.Cast(FP32) if cls is F.Cast else cls()), [x] + [param] * n_params


CASES = [F.Add, F.Mul, F.Matmul, F.Reshape, F.Transpose, F.Split, F.Concat, F.Gelu,
         F.Softmax, F.Dropout, F.LayerNorm, F.EmbeddingLookup, F.Cast, F.SumAll,
         F.CrossEntropy, F.CausalMask, F.SliceAxis, FO.BiasGelu, FO.ScaleMaskSoftmaxDropout,
         FO.FusedLayerNorm, FO.DropoutAdd, FO.SoftmaxCrossEntropy]


def _shards(shape, world, shared):
    fresh = [AbstractArray(shape) for _ in range(world)]
    return fresh[:1] * world if shared else fresh


def _pattern(objs):
    """Entry i -> the first index holding the same object."""
    return tuple(next(j for j, o in enumerate(objs) if o is x) for x in objs)


def _run(fn, specs, flags, world):
    """Apply ``fn`` forward and backward, taking each drawn flag from ``flags``."""
    flags, args = iter(flags), []
    for spec in specs:
        if spec[0] == "t":
            grad = next(flags) if spec[2] is None else spec[2]
            args.append(Tensor(_shards(spec[1], world, next(flags)),
                               requires_grad=grad, is_param=spec[3]))
        else:
            args.append(args[spec[1]] if spec[0] == "same" else spec[1])
    tensors = [a for a in args if isinstance(a, Tensor)]
    tracker, log = _StreamTracker(world), OpLog()
    with instrument(memory=tracker, oplog=log):
        out = apply(fn, *args)
        outs = out if isinstance(out, tuple) else (out,)
        seeds = [(o, _shards(o.shape, world, next(flags)))
                 for i, o in enumerate(outs) if next(flags) or i == 0]
        run_backward(seeds)
    lists = ([t.shards for t in tensors] + [o.shards for o in outs] + [g for _, g in seeds]
             + [t.grad for t in tensors if t.grad is not None])
    return {
        "shapes": [(o.shape, o.dtype) for o in outs] + [t.grad and list(map(np.shape, t.grad))
                                                         for t in tensors],
        "through": [next((_pattern(t.shards) for t in tensors  # a pass-through's input
                          if all(a is b for a, b in zip(o.shards, t.shards))), None) for o in outs],
        "aliasing": [_pattern([a[r] for a in lists] + saves)
                     for r, saves in enumerate(tracker.charged)],
        "records": list(log.records), "stream": tracker.stream,
        "live_after": [tracker.live_bytes(r) for r in range(world)],
        "out_patterns": [_pattern(o.shards) for o in outs],
    }


class TestProjectionOracle:
    @pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_projected_run_matches_per_rank_run(self, cls, data):
        world = data.draw(st.integers(2, 4), label="world")
        fn, specs = _case(cls, data, world)
        assert type(fn) is cls
        flags = data.draw(st.lists(st.booleans(), min_size=16, max_size=16), label="flags")
        projected = _run(fn, specs, flags, world)
        with memprof_scope(MemProfiler()):
            per_rank = _run(fn, specs, flags, world)
        for key in ("shapes", "through", "aliasing", "records", "stream", "live_after"):
            assert projected[key] == per_rank[key], key
        assert per_rank["live_after"] == [0] * world
        for pattern, through in zip(projected["out_patterns"], projected["through"]):
            assert pattern == ((0,) * world if through is None else through)


class TestWhenProjected:
    def _map(self, shards):
        calls = []
        return map_shards(lambda x: calls.append(x) or x * 2.0, shards), calls

    def test_memory_profiler_keeps_the_per_rank_path(self):
        # memprof keys producers by id(shard) alone: each rank keeps its own output
        with memprof_scope(MemProfiler()):
            out, calls = self._map([AbstractArray((2, 3)) for _ in range(4)])
        assert (len(calls), _pattern(out)) == (4, (0, 1, 2, 3))

    def test_abstract_inputs_are_projected(self):
        shards = [AbstractArray((2, 3)) for _ in range(4)]
        out, calls = self._map(shards)
        assert calls[0] is shards[0] and (len(calls), _pattern(out)) == (1, (0, 0, 0, 0))

    def test_concrete_inputs_are_not_projected(self):
        out, calls = self._map([np.zeros((2, 3)) for _ in range(2)])
        assert (len(calls), _pattern(out)) == (2, (0, 1))

    def test_world_one_is_not_projected(self):
        assert [len(r) for r in self._map([AbstractArray((2, 3))])] == [1, 1]

    def test_a_pass_through_keeps_each_rank_buffer(self):
        for shards in ([AbstractArray((2,)) for _ in range(3)], [np.zeros(2) for _ in range(3)]):
            same, fresh = map_shards(lambda x, y: (x, y * 2.0), shards, [AbstractArray((2,))] * 3)
            assert all(a is b for a, b in zip(same, shards)) and len(fresh) == 3
