"""One benchmark repetition in a fresh process.

``run.py`` starts this file once per repetition.  It builds one workload
from the seed, warms it up, then alternates one unit of work with a few
runs of the reference kernel until the time budget (or the fixed unit
count) is used, and prints one JSON line.  Modes:

* ``timed``    — the end-to-end measurement, nothing else in the process;
* ``baseline`` — the same, followed by the passes that need an
  *untraced* process: the exact Python call count of one unit
  (``cProfile``) and the instrumentation on/off twins;
* ``traced``   — boundary spans installed before the workload is built
  (see ``layers.py``); reports self time per layer and phase.

Measurement conditions are fixed here, not knobs: BLAS/OpenMP pinned to
one thread and ``PYTHONHASHSEED=0`` (set by ``run.py`` in the child's
environment, before NumPy loads), GC left on because users pay it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Interleaved on/off pairs for the instrumentation-overhead twins.
TWIN_PAIRS = 10


def _median_ratio(pairs) -> float:
    on = statistics.median(p[0] for p in pairs)
    off = statistics.median(p[1] for p in pairs)
    return on / off - 1.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _overhead_twins(workload) -> dict:
    """Instrumentation cost on ``train_parallel_selective``: the same
    unit with and without a ``MemoryTracker`` / a ``Tracer``, interleaved
    so drift hits both sides alike."""
    from repro.observability.tracer import Tracer, trace_scope
    from repro.tensor import MemoryTracker, instrument
    from repro.training import Trainer
    from workloads import MICROBATCHES

    # PipelinedGPT always runs under per-stage trackers, so the tracker
    # twin is the same model under plain gradient accumulation.
    trainer = Trainer(workload.model, workload.optimizer)

    def step():
        trainer.train_step(workload.ids, workload.targets, MICROBATCHES)

    def tracked():
        with instrument(memory=MemoryTracker()):
            step()

    def traced():
        with trace_scope(Tracer()):
            workload.unit()

    step()
    tracker_pairs = [(_timed(tracked), _timed(step))
                     for _ in range(TWIN_PAIRS)]
    tracer_pairs = [(_timed(traced), _timed(workload.unit))
                    for _ in range(TWIN_PAIRS)]
    return {"memory_tracker_overhead_share": _median_ratio(tracker_pairs),
            "tracer_overhead_share": _median_ratio(tracer_pairs)}


def _environment(ref_checksum: float) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONHASHSEED")},
        "nproc": os.cpu_count(),
        "ref_checksum": ref_checksum,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=0,
                        help="fixed unit count (overrides --seconds)")
    parser.add_argument("--mode", choices=("timed", "baseline", "traced"),
                        default="timed")
    parser.add_argument("--spawned", type=float, default=None,
                        help="time.time() when run.py started this process")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--skip-expected", action="store_true",
                        help="check invariants only (expected.json is being "
                             "rewritten)")
    args = parser.parse_args()
    spawned = args.spawned if args.spawned is not None else time.time()

    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    sys.path.insert(0, HERE)
    import refkernel
    ref_checksum = refkernel.self_test()
    import workloads

    traced = args.mode == "traced"
    if traced:
        import layers
        layers.install()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    unit = workload.unit
    if traced:
        unit = layers.LAYERS.wrap(unit, "unit", "harness.other")
    warmup_s = [_timed(unit) for _ in range(workload.warmup_units)]
    for _ in range(3):
        refkernel.ref()
    if traced:
        layers.LAYERS.reset()
        layers.PHASES.reset()
    setup_s = time.time() - spawned

    unit_s, ref_s = [], []
    work = 0
    unit_failures, check_failures = [], []
    began = time.perf_counter()
    while True:
        done = len(unit_s)
        if args.units:
            if done >= args.units:
                break
        elif done >= 2 and time.perf_counter() - began >= args.seconds:
            break
        if traced:
            layers.LAYERS.begin_unit(done)
            layers.PHASES.begin_unit(done)
        start = time.perf_counter()
        try:
            work += unit()
        except Exception as error:  # a failed unit is a counted failure
            unit_failures.append(
                f"unit {done}: {type(error).__name__}: {error}")
        unit_s.append(time.perf_counter() - start)
        for _ in range(workload.ref_runs):
            start = time.perf_counter()
            refkernel.ref()
            ref_s.append(time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "setup_s": setup_s, "warmup_s": warmup_s, "unit_s": unit_s,
        "ref_s": ref_s, "work": work, "peak_rss_mb": peak_rss_mb,
        "env": _environment(ref_checksum),
    }
    if traced:
        out["layer_self_s"] = dict(layers.LAYERS.self_s)
        out["layer_calls"] = dict(layers.LAYERS.calls)
        out["phase_self_s"] = dict(layers.PHASES.self_s)
        if args.trace_out:
            from spans import write_trace
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            out["trace_events"] = write_trace(
                args.trace_out, [layers.LAYERS, layers.PHASES],
                args.workload, layers.TRACK_NAMES)
    try:  # everything after the timed section is the end-of-run check
        if args.mode == "baseline":
            profile = cProfile.Profile()
            profile.runcall(workload.unit)
            out["py_calls_per_unit"] = pstats.Stats(profile).total_calls
            if args.workload == "train_parallel_selective":
                out.update(_overhead_twins(workload))
        out["stats"] = workload.stats()
        expected = {} if args.skip_expected else workloads.load_expected()
        check_failures += workloads.check_stats(workload, out["stats"],
                                                expected)
    except Exception as error:
        out.setdefault("stats", None)
        check_failures.append(f"{type(error).__name__}: {error}")
    out["unit_failures"] = unit_failures
    out["check_failures"] = check_failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
