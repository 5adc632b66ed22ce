"""Goodput under faults: what the resilience layer costs and saves.

Sweeps the fault rate and the checkpoint interval on a tiny executable
cluster and reports goodput (useful FLOPs / total FLOPs), retries,
rollbacks and simulated detection/recovery time, emitting the series as
JSON for downstream plotting.  The qualitative shapes to expect:
goodput falls as the fault rate rises, and at a fixed fault rate a
larger checkpoint interval wastes more replayed work per rollback.
"""

import json
import os
import tempfile

from repro.config import ModelConfig
from repro.parallel.transformer import ParallelGPTModel
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilientTrainer,
    make_step_batches,
)
from repro.training import DataParallelTrainer

CFG = ModelConfig(num_layers=2, hidden_size=16, num_heads=2,
                  seq_length=16, vocab_size=32, name="bench-tiny")
STEPS = 8
DP = 2


def _factory():
    return ParallelGPTModel(CFG, tensor_parallel=1,
                            attention_dropout=0.0, hidden_dropout=0.0)


def _run(plan, checkpoint_interval=2):
    trainer = DataParallelTrainer(_factory, data_parallel=DP, lr=1e-2)
    batch_fn = make_step_batches(CFG.vocab_size, CFG.seq_length,
                                 batch_size=2 * DP, seed=0)
    fd, path = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    try:
        result = ResilientTrainer(
            trainer, batch_fn, path, plan=plan,
            checkpoint_interval=checkpoint_interval).run(STEPS)
    finally:
        os.remove(path)
    return result.report


def bench_goodput_vs_fault_rate(benchmark):
    """Goodput degrades monotonically-ish as the per-step fault
    probability rises; every injected fault is detected at every rate."""
    rates = (0.0, 0.25, 0.5, 0.75, 1.0)

    def sweep():
        series = []
        for rate in rates:
            plan = FaultPlan.random(seed=11, num_steps=STEPS, fault_rate=rate,
                                    world_size=DP)
            report = _run(plan)
            series.append({
                "fault_rate": rate,
                "faults": len(report.faults),
                "goodput": report.goodput(),
                "retries": report.retries,
                "rollbacks": report.rollbacks,
                "simulated_seconds": report.simulated_seconds,
                "all_detected": report.all_faults_detected,
            })
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(json.dumps({"sweep": "goodput_vs_fault_rate", "series": series},
                     indent=2))
    assert series[0]["goodput"] == 1.0          # clean path: zero overhead
    assert all(row["all_detected"] for row in series)
    assert series[-1]["goodput"] < series[0]["goodput"]


def bench_goodput_vs_checkpoint_interval(benchmark):
    """At a fixed crash schedule, sparser checkpoints replay more wasted
    steps per rollback, so goodput falls as the interval grows."""
    intervals = (1, 2, 4, 8)
    crashes = FaultPlan([
        FaultSpec(step=3, kind=FaultKind.RANK_CRASH, rank=0),
        FaultSpec(step=6, kind=FaultKind.RANK_CRASH, rank=1),
    ])

    def sweep():
        series = []
        for interval in intervals:
            report = _run(crashes, checkpoint_interval=interval)
            series.append({
                "checkpoint_interval": interval,
                "goodput": report.goodput(),
                "steps_replayed": report.steps_replayed,
                "checkpoints_saved": report.checkpoints_saved,
                "wasted_flops": report.wasted_flops,
            })
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(json.dumps({"sweep": "goodput_vs_checkpoint_interval",
                      "series": series}, indent=2))
    replayed = [row["steps_replayed"] for row in series]
    assert replayed == sorted(replayed)          # sparser ckpts replay more
    goodputs = [row["goodput"] for row in series]
    assert goodputs == sorted(goodputs, reverse=True)
