"""The process-wide memos of the analytic path.

`layer_times` and `end_times` (embedding and head) price traces kept in
one records memo: a hit prices bit for bit what a fresh trace prices,
one analytic pass traces each distinct layer / end once, and an
installed observer still sees a real trace.  `_iterations` prices the
kept `level_plan` of each schedule: bit for bit what simulating a freshly
built table gives, each schedule built once per process, in under 2 MB
of narrow arrays."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_calls
from repro import experiments
from repro.config import PAPER_CONFIGS
from repro.layers.transformer import Recompute
from repro.observability import Tracer, trace_scope
from repro.perf_model import KernelCostModel, iteration, layer_timing
from repro.perf_model.calibrate import calibrate
from repro.pipeline_sim import PipelineCosts, schedule_table, simulate
from repro.pipeline_sim import schedule
from repro.pipeline_sim.simulator import price
from repro.planner import plan
from repro.tensor import MemoryTracker, instrument
from repro.tensor.oplog import OpKind, OpRecord
from test_pipeline_simulator import _reference_simulate

M22 = PAPER_CONFIGS["22B"].model
KEY = (M22, 4, 8, True, Recompute.SELECTIVE)


def _analytic_pass():
    experiments.table4_data()
    experiments.figure8_data()
    experiments.table5_data()
    experiments.appendix_c_data()
    plan(PAPER_CONFIGS["22B"])


def _cold_pass(monkeypatch) -> list:
    """The layer keys one pass traces from an empty memo, in order."""
    layer_timing._records.cache_clear()
    traced = count_calls(monkeypatch, layer_timing, "layer_oplog")
    _analytic_pass()
    return list(traced)


def test_one_pass_traces_each_distinct_layer_once(monkeypatch):
    traced = _cold_pass(monkeypatch)
    assert len(traced) == len(set(traced)) == 18
    traced.clear()
    _analytic_pass()
    assert traced == []


def test_calibrate_traces_each_target_once(monkeypatch):
    layer_timing._records.cache_clear()
    traced = count_calls(monkeypatch, layer_timing, "layer_oplog")
    calibrate()
    assert len(traced) == 4


def _bits(value):
    """Each number's type and exact float (an empty phase sums to int 0),
    through tuples and a ``PhaseTimes``'s three phases."""
    if hasattr(value, "recompute"):
        value = (value.forward, value.backward, value.recompute)
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return type(value), float(value).hex()
    return value


@pytest.mark.parametrize("calibrated", [False, True],
                         ids=["default", "calibrated"])
def test_a_hit_prices_bit_for_bit_a_fresh_trace(monkeypatch, calibrated):
    cost = calibrate().cost_model if calibrated else KernelCostModel()
    keys = _cold_pass(monkeypatch)
    misses = layer_timing._records.cache_info().misses
    for key in keys:
        warm = layer_timing.layer_times(*key, cost=cost)
        fresh = cost.price(layer_timing.layer_oplog(*key))
        assert _bits(warm) == _bits(fresh), key[1:]
        stored = layer_timing._records(layer_timing.layer_oplog, *key)
        assert type(stored) is tuple
        assert all(type(r) is OpRecord for r in stored)
    assert layer_timing._records.cache_info().misses == misses
    assert OpRecord.__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        stored[0].flops = 0.0


def _observed_call(monkeypatch, scope):
    """A warm key priced inside ``scope``: traced afresh, memo untouched."""
    warm = layer_timing.layer_times(*KEY)
    info = layer_timing._records.cache_info()
    traced = count_calls(monkeypatch, layer_timing, "layer_oplog")
    with scope:
        seen = layer_timing.layer_times(*KEY)
    assert len(traced) == 1
    assert layer_timing._records.cache_info() == info
    assert seen == warm


def test_a_memory_tracker_sees_a_real_trace(monkeypatch):
    tracker = MemoryTracker()
    _observed_call(monkeypatch, instrument(memory=tracker))
    assert tracker.peak_bytes() > 0


def test_a_tracer_sees_the_layers_records(monkeypatch):
    tracer = Tracer()
    _observed_call(monkeypatch, trace_scope(tracer))
    gemms = [r.name for r in layer_timing._records(layer_timing.layer_oplog, *KEY)
             if r.kind == OpKind.GEMM]
    assert gemms
    assert [s.name for s in tracer.spans if s.subsystem == "compute"] == gemms


# ---------------------------------------------------------------------------
# The embedding and head traces share the records memo.

CFG22 = PAPER_CONFIGS["22B"]
END_KEY = (M22, 4, 8, True)
#: per end: its tracer and its index in `end_times`
ENDS = {"embedding": (iteration.embedding_oplog, 0),
        "head": (iteration.head_oplog, 1)}


def _cold_end_pass(monkeypatch) -> dict:
    """The ``(model, b, t, sequence_parallel)`` keys one pass traces per
    end from an empty memo, in order (live: later traces append)."""
    layer_timing._records.cache_clear()
    traced = {end: count_calls(monkeypatch, iteration, f"{end}_oplog")
              for end in ENDS}
    _analytic_pass()
    return traced


def test_one_pass_traces_each_distinct_end_once(monkeypatch):
    traced = _cold_end_pass(monkeypatch)
    for keys in traced.values():  # four models, with and without SP
        assert len(keys) == len(set(keys)) == 8
    _analytic_pass()
    assert [len(keys) for keys in traced.values()] == [8, 8]


@pytest.mark.parametrize("calibrated", [False, True],
                         ids=["default", "calibrated"])
def test_an_end_hit_prices_bit_for_bit_a_fresh_trace(monkeypatch, calibrated):
    cost = calibrate().cost_model if calibrated else KernelCostModel()
    traced = _cold_end_pass(monkeypatch)
    misses = layer_timing._records.cache_info().misses
    configs = {cfg.model: cfg for cfg in PAPER_CONFIGS.values()}
    for end, (oplog, index) in ENDS.items():
        for model, b, t, sp in traced[end]:
            cfg = configs[model]
            assert (cfg.training.micro_batch_size, cfg.parallel.tensor_parallel) == (b, t)
            warm = iteration.end_times(cfg, sp, cost)[index]
            fresh = cost.price(oplog(model, b, t, sp))
            assert _bits(warm) == _bits(fresh), (end, model.name, sp)
    assert layer_timing._records.cache_info().misses == misses


@pytest.mark.parametrize("observer", ["memory", "tracer"])
def test_an_observer_sees_real_end_traces(monkeypatch, observer):
    """Warm end keys priced under a tracker or tracer are traced afresh,
    and the memo neither serves nor stores them."""
    warm = iteration.end_times(CFG22, True, KernelCostModel())
    info = layer_timing._records.cache_info()
    traced = [count_calls(monkeypatch, iteration, f"{end}_oplog")
              for end in ENDS]
    tracker, tracer = MemoryTracker(), Tracer()
    scope = (instrument(memory=tracker) if observer == "memory"
             else trace_scope(tracer))
    with scope:
        seen = iteration.end_times(CFG22, True, KernelCostModel())
    assert traced == [[END_KEY], [END_KEY]]
    assert layer_timing._records.cache_info() == info
    assert seen == warm
    if observer == "memory":
        assert tracker.peak_bytes() > 0
    else:  # the embedding's spans are its two collectives
        gemms = [r.name for trace, _ in ENDS.values()
                 for r in layer_timing._records(trace, *END_KEY)
                 if r.kind == OpKind.GEMM]
        assert gemms and len(tracer.spans) > len(gemms)
        assert [s.name for s in tracer.spans
                if s.subsystem == "compute"] == gemms


# ---------------------------------------------------------------------------
# The level plans `_iterations` prices.

#: the ``(p, n, m)`` of each paper configuration's schedule
PLAN_KEYS = {"22B": (1, 1, 1), "175B": (8, 64, 3), "530B": (35, 280, 3),
             "1T": (64, 512, 1)}


def test_one_pass_builds_each_schedule_once(monkeypatch):
    schedule.level_plan.cache_clear()
    built = count_calls(monkeypatch, schedule, "schedule_table")
    _analytic_pass()
    assert sorted(built) == sorted(PLAN_KEYS.values())
    built.clear()
    _analytic_pass()
    assert built == []


def test_kept_plans_are_small_and_narrow():
    """One pass keeps four plans in under 2 MB (a table with its level
    order is 3.4-3.8 MB at 530B / 1T), no per-op array is int64, and no
    caller can write into a plan the next one prices."""
    schedule.level_plan.cache_clear()
    _analytic_pass()
    assert schedule.level_plan.cache_info().currsize == len(PLAN_KEYS)
    total = 0
    for key in PLAN_KEYS.values():
        kept = schedule.level_plan(*key)
        arrays = [a for a in kept if isinstance(a, np.ndarray)]
        total += sum(a.nbytes for a in arrays)
        assert not any(a.flags.writeable for a in arrays)
        p, n, m = key
        per_op = (kept.prev, kept.dependency, kept.remote, kept.code,
                  kept.rank_code)
        assert all(len(a) == 2 * n * m * p and a.dtype.itemsize <= 4
                   for a in per_op), key
        # only the per-rank arrays (p + 1 and p entries) may be int64
        assert {name for name, a in zip(kept._fields, kept)
                if isinstance(a, np.ndarray) and a.dtype.itemsize > 4
                } <= {"starts", "last"}
    assert total <= 2.0e6


def _simulated(table, costs):
    """`_iterations`' pricing as it was: simulate a freshly built table."""
    result = simulate(table, costs)
    return result.makespan, result.busy_time, None


def _results(name):
    cfg = PAPER_CONFIGS[name]
    p = cfg.parallel.pipeline_parallel
    return iteration._iterations(cfg, [
        (False, Recompute.FULL, [0.0] * p),
        (True, Recompute.SELECTIVE, [0.0] * p),
        (True, Recompute.SELECTIVE, [0.5] * p)], None)


@pytest.mark.parametrize("name", sorted(PLAN_KEYS))
def test_a_kept_plan_prices_bit_for_bit_a_fresh_table(monkeypatch, name):
    kept = [_bits(dataclasses.astuple(r)) for r in _results(name)]
    _results(name)  # warm: the plan is served from the memo
    warm = [_bits(dataclasses.astuple(r)) for r in _results(name)]
    monkeypatch.setattr(iteration, "level_plan", schedule_table)
    monkeypatch.setattr(iteration, "price", _simulated)
    fresh = [_bits(dataclasses.astuple(r)) for r in _results(name)]
    assert kept == warm == fresh


_seconds = st.floats(0.001, 10.0, allow_nan=False)


@given(p=st.integers(2, 5), rounds=st.integers(1, 3), m=st.integers(1, 3),
       p2p=st.one_of(st.just(0.0), _seconds), data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_kept_plan_prices_as_the_per_op_loop(p, rounds, m, p2p, data):
    """Plan-priced makespan and busy times, through the memo (so a memo
    that confused two keys would price the wrong schedule), against the
    verbatim per-op loop on a fresh table."""
    groups = p * m
    per_group = st.lists(_seconds, min_size=groups, max_size=groups)
    fwd, bwd = data.draw(per_group), data.draw(per_group)
    costs = PipelineCosts(forward_time=fwd.__getitem__,
                          backward_time=bwd.__getitem__, p2p_time=p2p)
    n = p * rounds
    makespan, busy, _ = price(schedule.level_plan(p, n, m), costs)
    want_makespan, want_busy, _, _ = _reference_simulate(
        schedule_table(p, n, m), costs)
    assert _bits((makespan, *busy)) == _bits((want_makespan, *want_busy))
