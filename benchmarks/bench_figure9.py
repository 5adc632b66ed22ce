"""Figure 9 (Appendix B): activation memory per pipeline rank for the
530B model, with and without output-tensor deallocation — from the
closed-form profile AND re-measured by the event-driven schedule
simulator."""

import pytest

from repro import experiments
from repro.config import PAPER_CONFIGS
from repro.layers.transformer import Recompute
from repro.memory_model import (
    per_layer_activation_bytes, pipeline_memory_profile,
)
from repro.pipeline_sim import PipelineCosts, schedule_table, simulate
from repro.units import GIB

CFG = PAPER_CONFIGS["530B"]


def bench_report(benchmark):
    print("\n" + benchmark(experiments.figure9_report))


def bench_profile_shape(benchmark):
    prof = benchmark(pipeline_memory_profile, CFG, sequence_parallel=True)
    # Linear decrease along ranks; 2.73 GB saving at rank 0.
    opt = prof.optimized_bytes
    assert all(a >= b for a, b in zip(opt, opt[1:]))
    assert prof.savings(0) / GIB == pytest.approx(2.73, abs=0.01)
    # Rank 0 spike: drop 0->1 exceeds the steady slope.
    assert (opt[0] - opt[1]) > (opt[1] - opt[2])


def bench_simulator_cross_check(benchmark):
    """The event-driven simulation of the real interleaved schedule lands
    on the same per-rank peaks as the closed-form profile (activations
    only, no rank-0 extras)."""
    par, train, model = CFG.parallel, CFG.training, CFG.model
    per_layer = per_layer_activation_bytes(
        model, train.micro_batch_size, par.tensor_parallel,
        True, Recompute.SELECTIVE)
    layers_per_group = model.num_layers // (par.pipeline_parallel * par.interleave_stages)
    n_mb = CFG.num_microbatches

    def run():
        sched = schedule_table(par.pipeline_parallel, n_mb,
                               par.interleave_stages)
        return simulate(sched, PipelineCosts(
            forward_time=lambda g: 1.0, backward_time=lambda g: 2.0,
            activation_bytes=lambda g: layers_per_group * per_layer,
        ))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.memory_model import in_flight_microbatches
    for stage in (0, 1, 17, 34):
        expected = (in_flight_microbatches(stage, par.pipeline_parallel, n_mb,
                                           par.interleave_stages)
                    * (model.num_layers // par.pipeline_parallel) * per_layer)
        assert result.peak_activation_bytes[stage] == pytest.approx(expected)
    print(f"\nsimulated rank-0 peak: "
          f"{result.peak_activation_bytes[0]/GIB:.2f} GiB; "
          f"rank-34 peak: {result.peak_activation_bytes[34]/GIB:.2f} GiB")
