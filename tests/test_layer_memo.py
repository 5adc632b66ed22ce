"""The process-wide layer-trace memo behind `layer_times`: a hit prices
bit for bit what a fresh trace prices, one analytic pass traces each
distinct layer once, and an installed observer still sees a real trace."""

import dataclasses

import pytest

from helpers import count_calls
from repro import experiments
from repro.config import PAPER_CONFIGS
from repro.layers.transformer import Recompute
from repro.observability import Tracer, trace_scope
from repro.perf_model import KernelCostModel, layer_timing
from repro.perf_model.calibrate import calibrate
from repro.planner import plan
from repro.tensor import MemoryTracker, instrument
from repro.tensor.oplog import OpKind, OpRecord

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
    layer_timing._layer_records.cache_clear()
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
    layer_timing._layer_records.cache_clear()
    traced = count_calls(monkeypatch, layer_timing, "layer_oplog")
    calibrate()
    assert len(traced) == 4


def _bits(times):
    """Each phase's type and exact float (an empty phase sums to int 0)."""
    return [(type(v), float(v).hex())
            for v in (times.forward, times.backward, times.recompute)]


@pytest.mark.parametrize("calibrated", [False, True],
                         ids=["default", "calibrated"])
def test_a_hit_prices_bit_for_bit_a_fresh_trace(monkeypatch, calibrated):
    cost = calibrate().cost_model if calibrated else KernelCostModel()
    keys = _cold_pass(monkeypatch)
    misses = layer_timing._layer_records.cache_info().misses
    for key in keys:
        warm = layer_timing.layer_times(*key, cost=cost)
        fresh = cost.price(layer_timing.layer_oplog(*key))
        assert _bits(warm) == _bits(fresh), key[1:]
        stored = layer_timing._layer_records(*key)
        assert type(stored) is tuple
        assert all(type(r) is OpRecord for r in stored)
    assert layer_timing._layer_records.cache_info().misses == misses
    assert OpRecord.__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        stored[0].flops = 0.0


def _observed_call(monkeypatch, scope):
    """A warm key priced inside ``scope``: traced afresh, memo untouched."""
    warm = layer_timing.layer_times(*KEY)
    info = layer_timing._layer_records.cache_info()
    traced = count_calls(monkeypatch, layer_timing, "layer_oplog")
    with scope:
        seen = layer_timing.layer_times(*KEY)
    assert len(traced) == 1
    assert layer_timing._layer_records.cache_info() == info
    assert seen == warm


def test_a_memory_tracker_sees_a_real_trace(monkeypatch):
    tracker = MemoryTracker()
    _observed_call(monkeypatch, instrument(memory=tracker))
    assert tracker.peak_bytes() > 0


def test_a_tracer_sees_the_layers_records(monkeypatch):
    tracer = Tracer()
    _observed_call(monkeypatch, trace_scope(tracer))
    gemms = [r.name for r in layer_timing._layer_records(*KEY)
             if r.kind == OpKind.GEMM]
    assert gemms
    assert [s.name for s in tracer.spans if s.subsystem == "compute"] == gemms
