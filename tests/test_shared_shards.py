"""The shared-list rule: an abstract tensor's shards are one instance.

Every door builds ``[AbstractArray(shape)] * world`` and every collective
leg over abstract shards computes its result shape once and shares it
across ranks (``tensor/backend.py``).  Three checks:

* each collective leg's abstract arm against its concrete arm on
  generated ``(shape, axis, world)``: one shared output instance, the
  concrete result's shape, and the same error type on invalid input;
* every ``Tensor`` an abstract paper-scale trace at world > 1 creates
  holds a single shard instance;
* the op logs and tracker peaks of those traces are the values pinned
  literally below, taken from the per-rank construction the rule
  replaced.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import all_gather, all_reduce, all_to_all, collectives, reduce_scatter
from repro.comm.process_group import ProcessGroup
from repro.config import PAPER_CONFIGS
from repro.errors import CommError, ShapeError
from repro.layers.transformer import Recompute, abstract_layer
from repro.longctx.layout import Ring, Ulysses
from repro.parallel.layout import TensorParallel
from repro.parallel.mappings import LEGS
from repro.perf_model.iteration import embedding_oplog, head_oplog
from repro.perf_model.layer_timing import TABLE4_EXPERIMENTS, layer_oplog
from repro.tensor import AbstractArray, MemoryTracker, OpLog, Tensor, instrument
from repro.tensor import backend as bk

CFG22 = PAPER_CONFIGS["22B"]
M22 = CFG22.model


# ---------------------------------------------------------------------------
# Collective legs: abstract arm against concrete arm
# ---------------------------------------------------------------------------

LEG_CALLS = {
    "all_reduce": lambda shards, axes: all_reduce(shards),
    "all_gather": lambda shards, axes: all_gather(shards, axes[0]),
    "reduce_scatter": lambda shards, axes: reduce_scatter(shards, axes[0]),
    "all_to_all": lambda shards, axes: all_to_all(shards, *axes),
    "slice": lambda shards, axes: LEGS["slice"].run(shards, axes[0]),
}


def _outcome(leg, shards, axes):
    """``(result, None)`` or ``(None, error type)``, plus the collectives
    the trace hook saw."""
    seen = []
    collectives.install_trace_hook(lambda op, s: seen.append((op, len(s))))
    try:
        return LEG_CALLS[leg](shards, axes), None, seen
    except Exception as exc:  # the type is what both arms must agree on
        return None, type(exc), seen
    finally:
        collectives.install_trace_hook(None)


class TestCollectiveLegs:
    @pytest.mark.parametrize("leg", sorted(LEG_CALLS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_abstract_arm_matches_concrete_arm(self, leg, data):
        world = data.draw(st.integers(1, 4), label="world")
        shape = list(data.draw(st.lists(st.integers(1, 3), max_size=3), label="dims"))
        if shape and data.draw(st.booleans(), label="divisible dim"):
            shape[data.draw(st.integers(0, len(shape) - 1))] *= world
        shape = tuple(shape)
        axes = tuple(data.draw(st.integers(-len(shape) - 1, len(shape)), label="axis")
                     for _ in range(2))
        per_rank = data.draw(st.booleans(), label="one abstract array per rank")
        abstract = ([AbstractArray(shape) for _ in range(world)] if per_rank
                    else [AbstractArray(shape)] * world)
        concrete = [np.zeros(shape) for _ in range(world)]

        got, got_error, got_calls = _outcome(leg, abstract, axes)
        want, want_error, want_calls = _outcome(leg, concrete, axes)
        assert got_error is want_error
        assert got_calls == want_calls
        if want_error is not None:
            return
        assert len(got) == world
        assert all(o is got[0] for o in got)
        assert type(got[0]) is AbstractArray
        assert [bk.shape_of(o) for o in got] == [bk.shape_of(o) for o in want]

    @pytest.mark.parametrize("op", [
        lambda: all_gather([np.ones((3, 2))] * 2, 5),
        lambda: all_to_all([np.ones((4, 2))] * 2, 0, 5),
        lambda: all_to_all([np.ones((4, 2))] * 2, 5, 0),
        lambda: collectives.gather_concat([np.ones((3, 2))] * 2, -3),
        lambda: LEGS["slice"].run([np.ones((4, 2))] * 2, 2),
        lambda: LEGS["slice"].run([AbstractArray((4, 2))] * 2, -3),
        lambda: bk.concatenate([], 0),
    ], ids=["all_gather", "a2a-concat", "a2a-split", "gather_concat",
            "slice", "slice-abstract", "concat-empty"])
    def test_bad_axis_is_a_shape_error(self, op):
        with pytest.raises(ShapeError):
            op()

    def test_slice_keeps_the_comm_error_for_an_indivisible_extent(self):
        for shards in ([np.ones((3, 2))] * 2, [AbstractArray((3, 2))] * 2):
            with pytest.raises(CommError):
                LEGS["slice"].run(shards, 0)


# ---------------------------------------------------------------------------
# The invariant over real traces, and the numbers it must not move
# ---------------------------------------------------------------------------

@pytest.fixture
def created(monkeypatch):
    """The shard lists of every Tensor constructed while the test runs."""
    seen = []
    init = Tensor.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self.shards)

    monkeypatch.setattr(Tensor, "__init__", spy)
    return seen


def _cp_layer(cls, fused):
    layer, x = abstract_layer(cls(ProcessGroup(4, scope="cp")), M22, 1,
                              recompute=Recompute.SELECTIVE, tag="cp", fused=fused)
    tracker, log = MemoryTracker(), OpLog()
    with instrument(memory=tracker, oplog=log):
        layer(x).backward()
    return log, tracker


TRACES = (
    [(f"table4[{label}] fused={fused}",
      lambda sp=sp, rc=rc, fused=fused: layer_oplog(
          M22, 4, 8, sequence_parallel=sp, recompute=rc, fused=fused))
     for label, sp, rc in TABLE4_EXPERIMENTS for fused in (False, True)]
    + [(f"{name} sp={sp}", lambda fn=fn, sp=sp: fn(
          M22, CFG22.training.micro_batch_size, CFG22.parallel.tensor_parallel, sp))
       for name, fn in (("embedding_times", embedding_oplog), ("head_times", head_oplog))
       for sp in (False, True)]
    + [(f"{cls.__name__} fused={fused}", lambda cls=cls, fused=fused: _cp_layer(cls, fused))
       for cls in (Ulysses, Ring) for fused in (False, True)]
)


@pytest.mark.parametrize("trace", [run for _, run in TRACES], ids=[n for n, _ in TRACES])
def test_every_tensor_of_an_abstract_trace_has_one_shard_instance(created, trace):
    trace()
    wide = [shards for shards in created if len(shards) > 1]
    assert wide, "the trace built no multi-rank tensor"
    assert all(s is shards[0] for shards in wide for s in shards)


def _digest(records):
    """A SHA-256 prefix over every field of every record, floats exactly."""
    rows = [(r.name, r.kind.value, r.phase.value, float(r.flops).hex(),
             float(r.bytes_moved).hex(),
             None if r.comm is None else (r.comm.op, r.comm.nbytes,
                                          r.comm.group_size, r.comm.scope),
             r.overlapped, r.fused) for r in records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: ``layer_oplog(22B, b=4, t=8)`` per Table 4 row: (records, digest) unfused
#: and fused, as the per-rank construction logged them.
TABLE4_OPLOGS = {
    "Baseline no recompute": [(49, "e65f75ebbbc9318b"), (40, "792a5a5b8d1d0dac")],
    "Sequence Parallelism": [(55, "7525d8253e8e9f8e"), (46, "67b65645da73d0ae")],
    "Baseline with recompute": [(71, "a345cd6b12b61380"), (57, "9064f6e59e8eb2b4")],
    "Selective Recompute": [(54, "0691a4dd1bd92ffb"), (43, "290c49bbc00cc59a")],
    "Selective + Sequence": [(60, "8797659201005b53"), (49, "a46a42952c167b67")],
}

#: Every rank's tracker peak (bytes) of one abstract 22B layer at t=8.
TABLE4_PEAKS = {
    "Baseline no recompute": 1325400064,
    "Sequence Parallelism": 884998144,
    "Baseline with recompute": 1325400064,
    "Selective Recompute": 947912704,
    "Selective + Sequence": 771751936,
}

#: One selective-recompute 22B layer at cp=4: (records, digest, peak) per
#: (layout, fused).
CP_LAYERS = {
    (Ulysses, False): (72, "ef7be07a6a4ac214", 385875968),
    (Ulysses, True): (61, "fe1a5f6bb7b10ec6", 385875968),
    (Ring, False): (78, "53778eff7b64bac7", 423624704),
    (Ring, True): (67, "71fbac0137f5b565", 423624704),
}


class TestPinnedNumbers:
    @pytest.mark.parametrize("label,sp,rc", TABLE4_EXPERIMENTS,
                             ids=[e[0] for e in TABLE4_EXPERIMENTS])
    def test_table4_oplogs(self, label, sp, rc):
        got = []
        for fused in (False, True):
            log = layer_oplog(M22, 4, 8, sequence_parallel=sp, recompute=rc, fused=fused)
            got.append((len(log.records), _digest(log.records)))
        assert got == TABLE4_OPLOGS[label]

    @pytest.mark.parametrize("label,sp,rc", TABLE4_EXPERIMENTS,
                             ids=[e[0] for e in TABLE4_EXPERIMENTS])
    def test_table4_tracker_peaks(self, label, sp, rc):
        layer, x = abstract_layer(TensorParallel(ProcessGroup(8), sp), M22, 4,
                                  recompute=rc, tag="timed_layer")
        tracker = MemoryTracker()
        with instrument(memory=tracker):
            layer(x).backward()
        assert [tracker.peak_bytes(r) for r in range(8)] == [TABLE4_PEAKS[label]] * 8
        assert [tracker.live_bytes(r) for r in range(8)] == [0] * 8

    @pytest.mark.parametrize("key", list(CP_LAYERS),
                             ids=[f"{c.__name__}-fused={f}" for c, f in CP_LAYERS])
    def test_context_parallel_layers(self, key):
        records, digest, peak = CP_LAYERS[key]
        log, tracker = _cp_layer(*key)
        assert (len(log.records), _digest(log.records)) == (records, digest)
        assert [tracker.peak_bytes(r) for r in range(4)] == [peak] * 4
