"""Property-based checks on the real pipelined executor: for random
(p, m, n_mb) partitions of a tiny model, 1F1B/interleaved execution equals
plain gradient accumulation exactly.  Also the one 1F1B walker under it:
its order properties, and that the executor, the event simulator and the
Figure 10 timeline issue one and the same sequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.errors import ScheduleError
from repro.layers import GPTModel, Recompute, token_tensor
from repro.observability import Tracer, trace_scope
from repro.parallel import ParallelGPTModel
from repro.pipeline_sim import (
    PipelineCosts, TimelineCosts, chrome_trace_events, op_dependency,
    rank_of_group, schedule_interleaved, schedule_table, simulate,
    walk_schedule,
)
from repro.pipeline_sim.schedule import _dependency_index
from repro.training import PipelinedGPT, split_microbatches

CFG = ModelConfig(num_layers=4, hidden_size=16, num_heads=2,
                  seq_length=8, vocab_size=16)

# One shared reference: serial weights + the accumulated-gradient answer
# for a fixed batch, computed once.
_SERIAL = GPTModel(CFG, seed=3, attention_dropout=0.0, hidden_dropout=0.0)
_RNG = np.random.default_rng(77)
_IDS = _RNG.integers(0, CFG.vocab_size, size=(CFG.seq_length, 4))
_TGT = _RNG.integers(0, CFG.vocab_size, size=(CFG.seq_length, 4))


def _reference_grads(n_mb: int):
    model = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                             attention_dropout=0.0, hidden_dropout=0.0,
                             serial=_SERIAL)
    for mb_ids, mb_tgt in split_microbatches(_IDS, _TGT, n_mb):
        loss = model(token_tensor(mb_ids, world=2), token_tensor(mb_tgt, world=2))
        loss.backward([np.asarray(1.0 / n_mb)] * 2)
    model.finish_grad_sync()
    return {name: [np.asarray(g).copy() for g in p.grad]
            for name, p in model.named_parameters()}


_REF_GRADS = {n_mb: _reference_grads(n_mb) for n_mb in (2, 4)}


@given(
    p=st.sampled_from([1, 2, 4]),
    m=st.sampled_from([1, 2]),
    n_mb=st.sampled_from([2, 4]),
    recompute=st.sampled_from([Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL]),
    slots=st.integers(0, 2),
)
@settings(max_examples=12, deadline=None)
def test_executor_matches_accumulation(p, m, n_mb, recompute, slots):
    if CFG.num_layers % (p * m) != 0 or n_mb % p != 0:
        return  # invalid partition for this draw
    model = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                             attention_dropout=0.0, hidden_dropout=0.0,
                             recompute=recompute, serial=_SERIAL)
    pipe = PipelinedGPT(model, pipeline_parallel=p, interleave_stages=m)
    pipe.train_step(_IDS, _TGT, num_microbatches=n_mb,
                    full_storage_slots=[slots] * p)
    reference = _REF_GRADS[n_mb]
    for name, param in model.named_parameters():
        for r in range(param.world):
            np.testing.assert_allclose(
                np.asarray(param.grad[r]), reference[name][r],
                atol=1e-9, err_msg=f"{name} (p={p}, m={m}, rc={recompute})")


def _drain(schedule, num_groups):
    """Walk a schedule to the end, recording completions as a consumer must."""
    done = set()
    for _rank, _op, key, _dep in walk_schedule(schedule, num_groups, done):
        done.add(key)


@given(p=st.integers(1, 5), rounds=st.integers(1, 3), m=st.integers(1, 3),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_walker_issues_each_op_once_in_dataflow_order(p, rounds, m, data):
    n, num_groups = p * rounds, p * m
    schedule = schedule_interleaved(p, n, m)
    done = set()
    issued = [[] for _ in range(p)]
    for rank, op, key, dep in walk_schedule(schedule, num_groups, done):
        assert key == (op.kind.value, op.microbatch, op.group)
        assert key not in done
        assert dep == op_dependency(op, num_groups)
        assert dep is None or dep in done      # never before its dependency
        issued[rank].append(op)
        done.add(key)
    assert issued == schedule   # every op once, each rank's order preserved

    # A backward moved ahead of its own forward on a rank can never run:
    # its dependency chain leads back to that forward.
    rank = data.draw(st.integers(0, p - 1))
    ops = list(schedule[rank])
    i = data.draw(st.sampled_from(
        [i for i, op in enumerate(ops) if op.kind.value == "F"]))
    j = next(j for j, op in enumerate(ops)
             if (op.kind.value, op.microbatch, op.group)
             == ("B", ops[i].microbatch, ops[i].group))
    ops[i], ops[j] = ops[j], ops[i]
    with pytest.raises(ScheduleError):
        _drain(schedule[:rank] + [ops] + schedule[rank + 1:], num_groups)


@given(p=st.integers(1, 5), rounds=st.integers(1, 3), m=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dependency_index_and_level_order(p, rounds, m):
    """The simulator's statement of the dataflow: the vectorised
    dependency index is `op_dependency` for every op, and the level
    order is topological — each level runs at most one op per rank, after
    the op before it on its rank and after its dependency."""
    table = schedule_table(p, p * rounds, m)
    flat = [op for ops in table.ops() for op in ops]
    n_ops, num_groups = len(flat), p * m
    keys = [(op.kind.value, op.microbatch, op.group) for op in flat]
    dependency = _dependency_index(table).tolist()
    assert [None if d == n_ops else keys[d] for d in dependency] == [
        op_dependency(op, num_groups) for op in flat]

    levels = table._levels
    order = levels.order.tolist()
    assert sorted(order) == list(range(n_ops))
    rank = [rank for rank, ops in enumerate(table.ops()) for _ in ops]
    first = set(table.starts[:-1].tolist())
    for lo, hi in levels.spans:
        assert len({rank[k] for k in order[lo:hi]}) == hi - lo <= p
        for j in range(lo, hi):
            k, prev, dep = order[j], levels.prev[j], levels.dependency[j]
            if k in first:
                assert prev == n_ops + 1
            else:
                assert prev < lo and order[prev] == k - 1
            if dependency[k] == n_ops:
                assert dep == n_ops
            else:
                assert dep < lo and order[dep] == dependency[k]
                assert levels.remote[j] == (keys[dependency[k]][2] % p
                                            != rank[k])


def test_executor_simulator_and_timeline_issue_the_same_sequence():
    """The trace hashes are byte-stable because the executor's span order
    is the walker's order; the two analytic consumers must see it too."""
    p, m, n = 2, 2, 4
    schedule = schedule_interleaved(p, n, m)
    model = GPTModel(CFG, seed=3)
    tracer = Tracer()
    with trace_scope(tracer):
        PipelinedGPT(model, p, interleave_stages=m).train_step(
            _IDS, _TGT, num_microbatches=n)
    executed = [(s.name.split()[0][0].upper(), s.args["microbatch"],
                 s.args["group"])
                for s in tracer.spans
                if s.name.startswith(("forward mb", "backward mb"))]

    simulated = list(simulate(schedule, PipelineCosts(
        num_groups=p * m, forward_time=lambda g: 1.0,
        backward_time=lambda g: 2.0)).op_finish)
    assert executed == simulated

    timeline = [(e["name"][0].upper(), e["tid"])
                for e in chrome_trace_events(
                    schedule, TimelineCosts(num_groups=p * m, recompute=0))
                if e["ph"] == "X"]
    assert timeline == [(kind, rank_of_group(group, p))
                        for kind, _mb, group in executed]


def test_deadlocking_schedule_leaves_gradients_untouched(monkeypatch):
    """The executor proves the schedule can finish before it runs any op,
    so a bad one cannot leave half an iteration's gradients behind."""
    from repro.training import trainer

    def deadlocks_late(p, n, m):
        schedule = schedule_interleaved(p, n, m)
        last = schedule[-1]
        last[-1], last[-2] = last[-2], last[-1]   # B of mb n-1 before its F
        return schedule

    monkeypatch.setattr(trainer, "schedule_interleaved", deadlocks_late)
    model = GPTModel(CFG, seed=3)
    with pytest.raises(ScheduleError):
        PipelinedGPT(model, 2).train_step(_IDS, _TGT, num_microbatches=2)
    assert all(p.grad is None for p in model.parameters())
