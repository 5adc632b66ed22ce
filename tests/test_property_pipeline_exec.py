"""Property-based checks on the real pipelined executor: for random
(p, m, n_mb) partitions of a tiny model, 1F1B/interleaved execution equals
plain gradient accumulation exactly.  Also the one issue order under it:
the table's `issue_order` against the per-op walk it replaced, on valid
and mutated schedules, and that the executor, the table and the Figure 10
timeline issue one and the same sequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_walk
from repro.config import ModelConfig
from repro.errors import ConfigError, ScheduleError
from repro.layers import GPTModel, Recompute, token_tensor
from repro.observability import Tracer, schedule_events, trace_scope
from repro.parallel import ParallelGPTModel
from repro.pipeline_sim import (
    ScheduleTable, TimelineCosts, op_dependency, rank_of_group,
    schedule_table,
)
from repro.pipeline_sim.schedule import _dependency_index
from repro.training import PipelinedGPT, split_microbatches

CFG = ModelConfig(num_layers=4, hidden_size=16, num_heads=2,
                  seq_length=8, vocab_size=16)
V = CFG.vocab_size  # token ids lie in [0, V)

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
        loss = model(token_tensor(mb_ids, V, world=2), token_tensor(mb_tgt, V, world=2))
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
    if p == 1 and m > 1:  # Megatron-LM rejects interleaving one stage
        with pytest.raises(ConfigError, match="needs pipeline_parallel > 1"):
            PipelinedGPT(model, pipeline_parallel=p, interleave_stages=m)
        return
    pipe = PipelinedGPT(model, pipeline_parallel=p, interleave_stages=m)
    pipe.train_step(_IDS, _TGT, num_microbatches=n_mb,
                    full_storage_slots=[slots] * p)
    reference = _REF_GRADS[n_mb]
    for name, param in model.named_parameters():
        for r in range(param.world):
            np.testing.assert_allclose(
                np.asarray(param.grad[r]), reference[name][r],
                atol=1e-9, err_msg=f"{name} (p={p}, m={m}, rc={recompute})")


def _reference_order(table):
    """`(rank, key)` per op in the verbatim walk's order.  A key issued
    twice is a `ScheduleError` here too: the walk cannot see duplicates,
    the table refuses them."""
    done, order = set(), []
    for rank, _op, key, _dep in reference_walk(table.ops(), table.num_groups,
                                               done):
        if key in done:
            raise ScheduleError(f"duplicate op {key}")
        done.add(key)
        order.append((rank, key))
    return order


def _mutate(ranks_ops, mutation, data):
    """One of the ways a hand-written schedule goes wrong, in place."""
    ranks = [r for r, ops in enumerate(ranks_ops) if len(ops) > 1]
    ops = ranks_ops[data.draw(st.sampled_from(ranks))]
    if mutation == "swap":
        i, j = data.draw(st.lists(st.integers(0, len(ops) - 1), min_size=2,
                                  max_size=2, unique=True))
        ops[i], ops[j] = ops[j], ops[i]
    elif mutation == "backward-before-forward":
        i = data.draw(st.sampled_from(
            [i for i, op in enumerate(ops) if op.kind.value == "F"]))
        j = next(j for j, op in enumerate(ops) if op.kind.value == "B"
                 and (op.microbatch, op.group)
                 == (ops[i].microbatch, ops[i].group))
        ops[i], ops[j] = ops[j], ops[i]
    elif mutation == "drop":
        del ops[data.draw(st.integers(0, len(ops) - 1))]
    elif mutation == "duplicate":
        op = data.draw(st.sampled_from(ops))
        ops.insert(data.draw(st.integers(0, len(ops))), op)
    elif mutation == "group-off-its-rank" and len(ranks_ops) > 1:
        group = data.draw(st.sampled_from(sorted({op.group for op in ops})))
        target = data.draw(st.sampled_from(
            [r for r in range(len(ranks_ops)) if ranks_ops[r] is not ops]))
        moved = [op for op in ops if op.group == group]
        ops[:] = [op for op in ops if op.group != group]
        at = data.draw(st.integers(0, len(ranks_ops[target])))
        ranks_ops[target][at:at] = moved


@given(p=st.integers(1, 6), rounds=st.integers(1, 3), m=st.integers(1, 3),
       mutation=st.sampled_from([None, "swap", "backward-before-forward",
                                 "drop", "duplicate", "group-off-its-rank"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_issue_order_equals_the_reference_walk(p, rounds, m, mutation, data):
    """`issue_order` is the order the per-op walk issued, op for op, on
    valid schedules (including 1F1B with fewer microbatches than ranks)
    and on mutated ones; where the walk deadlocks, the table raises."""
    if p == 1 and m > 1:  # Megatron-LM rejects interleaving one stage
        with pytest.raises(ScheduleError, match="needs pipeline_parallel > 1"):
            schedule_table(p, p * rounds, m)
        return
    n = p * rounds - (data.draw(st.integers(0, p - 1)) if m == 1 else 0)
    ranks_ops = schedule_table(p, n, m).ops()
    if mutation is not None:
        _mutate(ranks_ops, mutation, data)
    table = ScheduleTable._of(ranks_ops, p * m)
    try:
        expected = _reference_order(table)
    except ScheduleError:
        with pytest.raises(ScheduleError):
            table.issue_order
        return
    assert list(table.issued()) == expected
    assert sorted(table.issue_order.tolist()) == list(range(len(expected)))


@given(p=st.integers(1, 5), rounds=st.integers(1, 3), m=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dependency_index_and_level_order(p, rounds, m):
    """The simulator's statement of the dataflow: the vectorised
    dependency index is `op_dependency` for every op, and the level
    order is topological — each level runs at most one op per rank, after
    the op before it on its rank and after its dependency."""
    if p == 1 and m > 1:  # Megatron-LM rejects interleaving one stage
        with pytest.raises(ScheduleError, match="needs pipeline_parallel > 1"):
            schedule_table(p, p * rounds, m)
        return
    table = schedule_table(p, p * rounds, m)
    flat = [op for ops in table.ops() for op in ops]
    n_ops, num_groups = len(flat), p * m
    keys = [(op.kind.value, op.microbatch, op.group) for op in flat]
    dependency = _dependency_index(table).tolist()
    assert [None if d == n_ops else keys[d] for d in dependency] == [
        op_dependency(key, num_groups) for key in keys]

    order, levels = table._levels
    order = order.tolist()
    assert sorted(order) == list(range(n_ops))
    rank = table.rank.tolist()
    first = set(table.starts[:-1].tolist())
    bounds = levels.bounds.tolist()
    assert bounds[-1] == n_ops
    for lo, hi in zip([0] + bounds, bounds):
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
    is the table's issue order; the Figure 10 timeline must see it too."""
    p, m, n = 2, 2, 4
    schedule = schedule_table(p, n, m)
    model = GPTModel(CFG, seed=3)
    tracer = Tracer()
    with trace_scope(tracer):
        PipelinedGPT(model, p, interleave_stages=m).train_step(
            _IDS, _TGT, num_microbatches=n)
    executed = [(s.name.split()[0][0].upper(), s.args["microbatch"],
                 s.args["group"])
                for s in tracer.spans
                if s.name.startswith(("forward mb", "backward mb"))]

    assert executed == [key for _rank, key in schedule.issued()]

    timeline = [(e["name"][0].upper(), e["tid"])
                for e in schedule_events(
                    schedule, TimelineCosts(recompute=0))
                if e["ph"] == "X"]
    assert timeline == [(kind, rank_of_group(group, p))
                        for kind, _mb, group in executed]


def test_deadlocking_schedule_leaves_gradients_untouched(monkeypatch):
    """The executor proves the schedule can finish before it runs any op,
    so a bad one cannot leave half an iteration's gradients behind."""
    from repro.training import trainer

    def deadlocks_late(p, n, m):
        schedule = schedule_table(p, n, m).ops()
        last = schedule[-1]
        last[-1], last[-2] = last[-2], last[-1]   # B of mb n-1 before its F
        return ScheduleTable._of(schedule, p * m)

    monkeypatch.setattr(trainer, "schedule_table", deadlocks_late)
    model = GPTModel(CFG, seed=3)
    with pytest.raises(ScheduleError):
        PipelinedGPT(model, 2).train_step(_IDS, _TGT, num_microbatches=2)
    assert all(p.grad is None for p in model.parameters())
