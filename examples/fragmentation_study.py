"""Future-work study: memory fragmentation under recomputation.

The paper's conclusion names "memory fragmentation for large microbatches"
as future work.  This example replays the *actual* allocation/free trace
of a 22B layer stack (collected from the autograd tape) through two
allocator models and shows where fragmentation comes from — and exports a
Chrome trace of the 175B interleaved schedule for visual inspection.

Run:  python examples/fragmentation_study.py
"""

import os
import tempfile

from repro.allocator import layer_trace, measure_fragmentation, replay, FirstFitAllocator
from repro.config import PAPER_CONFIGS
from repro.layers import Recompute
from repro.units import fmt_bytes


def fragmentation_table() -> None:
    model = PAPER_CONFIGS["22B"].model
    print("22B layer stack (4 layers, fwd+bwd), rank-0 trace replayed through "
          "two allocator models:\n")
    print(f"{'strategy':16s} {'allocator':10s} {'live peak':>11s} "
          f"{'reserved':>11s} {'frag':>7s} {'allocs':>7s}")
    for label, sp, rc in [("baseline", False, Recompute.NONE),
                          ("sp+selective", True, Recompute.SELECTIVE),
                          ("full recompute", False, Recompute.FULL)]:
        for caching in (False, True):
            stats = measure_fragmentation(model, 4, 8, sp, rc,
                                          num_layers=4, caching=caching)
            name = "caching" if caching else "first-fit"
            print(f"{label:16s} {name:10s} {fmt_bytes(stats.peak_live_bytes):>11s} "
                  f"{fmt_bytes(stats.peak_reserved_bytes):>11s} "
                  f"{stats.fragmentation:6.1%} {stats.allocations:7d}")
    print(
        "\nReading the table: a coalescing first-fit allocator (the"
        "\ncompactable ideal) never strands memory on these traces, but the"
        "\nCUDA-style size-binned caching model does under SP+selective —"
        "\nthe recompute transients have different sizes than the buffers"
        "\nwhose bins they could have reused.  This is the phenomenon the"
        "\npaper's future-work paragraph targets."
    )


def trace_shape() -> None:
    model = PAPER_CONFIGS["22B"].model
    trace = layer_trace(model, 4, 8, True, Recompute.SELECTIVE, num_layers=2)
    sizes = sorted({event.nbytes for event in trace})
    print(f"\nTrace shape (2 layers, sp+selective): {len(trace)} events, "
          f"{len(sizes)} distinct buffer sizes "
          f"({fmt_bytes(sizes[0])} .. {fmt_bytes(sizes[-1])})")


def chrome_trace_export() -> None:
    from repro.observability import Tracer, export_trace, schedule_events
    from repro.pipeline_sim import TimelineCosts, schedule_table
    cfg = PAPER_CONFIGS["175B"]
    sched = schedule_table(cfg.parallel.pipeline_parallel,
                           cfg.num_microbatches,
                           cfg.parallel.interleave_stages)
    path = os.path.join(tempfile.gettempdir(), "repro_175b_schedule.json")
    n = export_trace(Tracer(), path, extra_events=schedule_events(
        sched, TimelineCosts(forward=1.0, recompute=0.2, backward=2.0)))
    print(f"\nChrome trace of the 175B interleaved schedule written to "
          f"{path} ({n} events) — open chrome://tracing or ui.perfetto.dev")


if __name__ == "__main__":
    fragmentation_table()
    trace_shape()
    chrome_trace_export()
