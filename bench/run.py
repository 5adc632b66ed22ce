"""Wall-clock benchmark of the ``repro`` simulator: one command.

    python3 bench/run.py                      all five workloads, R=3 fresh
                                              processes each in round-robin
                                              order, then the traced pass;
                                              prints every metric, writes
                                              bench/out/results.json
    python3 bench/run.py --smoke              R=1, 3 units each, no traced
                                              pass (~20 s; for CI)
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run of one workload; the
                                              last line is its JSON result

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` (one directory up), the single place they are
declared.  This process only starts workers (``worker.py``), waits for
them and does arithmetic: it never imports NumPy or ``repro``, so the
measured processes are the only ones that do work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 1234
REPETITIONS = 3
SMOKE_UNITS = 3
#: Share of a traced run's time budget given to the untraced baseline
#: repetition that tracing overhead is measured against.
BASELINE_SHARE = 1 / 3
WORKER_TIMEOUT_S = 170


class WorkerFailed(Exception):
    """A worker process exited without a result (e.g. ``src/repro`` is
    missing, or the worker crashed)."""


def load_benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- workers -------------------------------------------------------------------

def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
               units: int = 0, skip_expected: bool = False) -> dict:
    """Run one repetition in a fresh process and return its JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--seconds", repr(seconds), "--units", str(units),
               "--spawned", repr(time.time())]
    if mode == "traced":
        command += ["--trace-out",
                    os.path.join(OUT_DIR, f"trace_{workload}.json")]
    if skip_expected:
        command.append("--skip-expected")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise WorkerFailed(f"worker for {workload} exited with code "
                           f"{done.returncode} and no result")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


# -- arithmetic ----------------------------------------------------------------

def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _spread(values: List[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def end_to_end(reps: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics of one workload from its repetitions.

    Unit times are calibrated per repetition (``unit wall / median ref
    wall`` of the same process) and then pooled; each value carries the
    ``(max - min) / median`` spread of the per-repetition values."""
    unit_refs, per_rep_p50, per_rep_rate = [], [], []
    for rep in reps:
        ref = statistics.median(rep["ref_s"])
        refs = [u / ref for u in rep["unit_s"]]
        unit_refs += refs
        per_rep_p50.append(statistics.median(refs))
        per_rep_rate.append(rep["work"] / sum(refs) * 1000.0)
    units = [u for rep in reps for u in rep["unit_s"]]
    setups = [rep["setup_s"] for rep in reps]
    rss = [rep["peak_rss_mb"] for rep in reps]

    def metric(value, per_rep):
        return {"value": value, "spread": _spread(per_rep)}

    return {
        "setup_s": metric(statistics.median(setups), setups),
        "unit_ref_p50": metric(statistics.median(unit_refs), per_rep_p50),
        "work_per_kref": metric(
            sum(rep["work"] for rep in reps) / sum(unit_refs) * 1000.0,
            per_rep_rate),
        "peak_rss_mb": metric(statistics.median(rss), rss),
        "harness.unit_ms_p50": {"value": statistics.median(units) * 1e3},
        "harness.unit_ms_p90": {"value": _percentile(units, 0.9) * 1e3},
        "harness.unit_ref_p90": {"value": _percentile(unit_refs, 0.9)},
        "harness.ref_ms_p50": {"value": statistics.median(
            r for rep in reps for r in rep["ref_s"]) * 1e3},
        "harness.units": {"value": len(units)},
    }


def tally(reps: List[dict]) -> Dict[str, object]:
    """``attempted`` / ``failed`` over repetitions: every unit plus one
    end-of-run check per repetition; a failed end-of-run check fails the
    whole run (fail share 1.0)."""
    attempted = sum(len(rep["unit_s"]) + 1 for rep in reps)
    failed = sum(len(rep["unit_failures"]) for rep in reps)
    if any(rep["check_failures"] for rep in reps):
        failed = attempted
    messages = [m for rep in reps
                for m in rep["unit_failures"] + rep["check_failures"]]
    return {"attempted": attempted, "failed": failed, "messages": messages}


#: per-layer metric -> bucket prefix of ``layers.py`` whose self time it sums
_SELF_TIME = {
    "tensor.kernels.self_ms": "tensor.kernels.",
    "tensor.kernels.matmul_fwd_ms": "tensor.kernels.matmul_fwd",
    "tensor.kernels.matmul_bwd_ms": "tensor.kernels.matmul_bwd",
    "tensor.kernels.gelu_fwd_ms": "tensor.kernels.gelu_fwd",
    "tensor.kernels.gelu_bwd_ms": "tensor.kernels.gelu_bwd",
    "tensor.kernels.softmax_ms": "tensor.kernels.softmax",
    "tensor.kernels.dropout_ms": "tensor.kernels.dropout",
    "tensor.kernels.layernorm_ms": "tensor.kernels.layernorm",
    "tensor.kernels.cross_entropy_ms": "tensor.kernels.cross_entropy",
    "tensor.kernels.other_ms": "tensor.kernels.other",
    "tensor.tape.self_ms": "tensor.tape",
    "tensor.backend.self_ms": "tensor.backend",
    "tensor.checkpoint.self_ms": "tensor.checkpoint",
    "tensor.memory_tracker.self_ms": "tensor.memory_tracker",
    "fusion.ops.self_ms": "fusion.ops.",
    "fusion.ops.bias_gelu_ms": "fusion.ops.bias_gelu",
    "fusion.ops.softmax_dropout_ms": "fusion.ops.softmax_dropout",
    "fusion.ops.layernorm_ms": "fusion.ops.layernorm",
    "fusion.ops.dropout_add_ms": "fusion.ops.dropout_add",
    "fusion.ops.softmax_xent_ms": "fusion.ops.softmax_xent",
    "fusion.arena.self_ms": "fusion.arena",
    "parallel.self_ms": "parallel",
    "comm.collectives.self_ms": "comm.collectives",
    "layers.self_ms": "layers",
    "training.trainer.self_ms": "training.trainer",
    "training.optimizer.step_ms": "training.optimizer",
    "training.pipeline.self_ms": "training.pipeline",
    "compiler.replay.self_ms": "compiler.replay",
    "serving.engine.prefill_ms": "serving.engine.prefill",
    "serving.engine.decode_ms": "serving.engine.decode",
    "serving.kv_cache.self_ms": "serving.kv_cache",
    "serving.scheduler.self_ms": "serving.scheduler",
    "allocator.self_ms": "allocator",
    "pipeline_sim.self_ms": "pipeline_sim",
    "perf_model.self_ms": "perf_model",
    "memory_model.self_ms": "memory_model",
    "flops_model.self_ms": "flops_model",
    "planner.self_ms": "planner",
    "reporting.self_ms": "reporting",
    "harness.other_ms": "harness.other",
}

#: per-layer metric -> key of the workload's end-of-run ``stats()``
#: (simulated statistics; 0 where the workload does not have the layer)
_FROM_STATS = {
    "tensor.checkpoint.recomputed_ops_per_unit": "oplog_recompute_records",
    "tensor.memory_tracker.peak_bytes": "tracker_peak_bytes",
    "memory_model.drift_bytes": "memory_model_drift_bytes",
    "fusion.records_fused": "oplog_fused_records",
    "fusion.kernels_eliminated": "kernels_eliminated",
    "comm.collectives.calls_per_unit": "collective_calls",
    "comm.collectives.bytes_per_unit": "collective_bytes",
    "compiler.plan_ops": "plan_ops",
    "serving.decode_steps_per_unit": "decode_steps",
    "serving.preemptions_per_unit": "preemptions",
    "serving.tokens_per_unit": "tokens_generated",
    "serving.kv_cache.peak_occupancy": "peak_kv_occupancy",
    "serving.sim_tokens_per_s": "sim_tokens_per_s",
    "planner.options_per_unit": "planner_options",
}


def per_layer(baseline: dict, traced: dict) -> Dict[str, dict]:
    """Per-layer metrics of one workload from its untraced baseline
    repetition and its traced repetition (both in the same run)."""
    units = len(traced["unit_s"])
    traced_wall = sum(traced["unit_s"])
    self_s = traced["layer_self_s"]
    calls = traced["layer_calls"]
    stats = baseline["stats"] or {}
    values: Dict[str, float] = {}
    for name, prefix in _SELF_TIME.items():
        match = (lambda b: b.startswith(prefix)) if prefix.endswith(".") \
            else (lambda b: b == prefix)
        values[name] = sum(
            v for b, v in self_s.items() if match(b)) / units * 1e3
    for phase in ("forward", "backward", "recompute", "optimizer"):
        values[f"phase.{phase}_ms"] = (
            traced["phase_self_s"].get(phase, 0.0) / units * 1e3)
    for name, key in _FROM_STATS.items():
        values[name] = float(stats.get(key, 0))
    values["tensor.tape.ops_per_unit"] = (
        calls.get("apply", 0) + calls.get("run_backward", 0)) / units
    for name, cache in (("fusion.arena.hit_share", "arena"),
                        ("compiler.cache.hit_share", "plan_cache")):
        lookups = stats.get(f"{cache}_hits_per_unit", 0) + stats.get(
            f"{cache}_misses_per_unit", 0)
        values[name] = (stats[f"{cache}_hits_per_unit"] / lookups
                        if lookups else 0.0)
    values["compiler.capture_s"] = (
        baseline["warmup_s"][0] if "plan_ops" in stats else 0.0)
    values["tensor.memory_tracker.overhead_share"] = baseline.get(
        "memory_tracker_overhead_share", 0.0)
    values["observability.tracer.overhead_share"] = baseline.get(
        "tracer_overhead_share", 0.0)

    plain, spans = end_to_end([baseline]), end_to_end([traced])
    values["harness.coverage_error"] = (
        abs(sum(self_s.values()) - traced_wall) / traced_wall)
    values["harness.trace_overhead_share"] = (
        spans["unit_ref_p50"]["value"] / plain["unit_ref_p50"]["value"] - 1.0)
    values["harness.py_calls_per_unit"] = float(baseline["py_calls_per_unit"])
    for name in ("harness.unit_ms_p50", "harness.unit_ms_p90",
                 "harness.unit_ref_p90", "harness.ref_ms_p50"):
        values[name] = plain[name]["value"]
    return {name: {"value": value} for name, value in values.items()}


def declared(metrics: Dict[str, dict], declarations: List[dict]) -> Dict[str, dict]:
    """The declared subset of ``metrics``, each with its declared unit."""
    return {decl["name"]: dict(metrics[decl["name"]], unit=decl["unit"])
            for decl in declarations}


# -- modes ---------------------------------------------------------------------

def traced_pair(workload: str, seed: int, seconds: float,
                skip_expected: bool = False) -> List[dict]:
    """The two repetitions of a traced run: untraced baseline, then traced."""
    return [run_worker(workload, seed, "baseline",
                       seconds=seconds * BASELINE_SHARE,
                       skip_expected=skip_expected),
            run_worker(workload, seed, "traced",
                       seconds=seconds * (1 - BASELINE_SHARE),
                       skip_expected=skip_expected)]


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            benchmark: dict) -> dict:
    """One run of one workload, as the driver asks for it."""
    if trace:
        reps = traced_pair(workload, seed, seconds)
        metrics = declared(per_layer(*reps), benchmark["per_layer"])
    else:
        reps = [run_worker(workload, seed, "timed",
                           seconds=seconds / REPETITIONS)
                for _ in range(REPETITIONS)]
        metrics = declared(end_to_end(reps), benchmark["end_to_end"])
    result = tally(reps)
    for message in result.pop("messages"):
        print(f"FAILED {workload}: {message}", file=sys.stderr)
    result["correct"] = result["failed"] == 0
    result["metrics"] = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in metrics.items()}
    return result


def run_suite(seed: int, smoke: bool, skip_expected: bool,
              benchmark: dict) -> dict:
    """All workloads: R timed repetitions each in round-robin order (so
    slow drift of the box lands on every workload alike), then one traced
    pass per workload."""
    names = [w["name"] for w in benchmark["workloads"]]
    repetitions = 1 if smoke else REPETITIONS
    seconds = benchmark["run_seconds"]
    reps: Dict[str, List[dict]] = {name: [] for name in names}
    for round_index in range(repetitions):
        for name in names:
            print(f"round {round_index + 1}/{repetitions}: {name}",
                  file=sys.stderr)
            reps[name].append(run_worker(
                name, seed, "timed", seconds=seconds / REPETITIONS,
                units=SMOKE_UNITS if smoke else 0,
                skip_expected=skip_expected))
    results = {"seed": seed, "env": reps[names[0]][0]["env"], "workloads": {}}
    for name in names:
        entry = tally(reps[name])
        measured = end_to_end(reps[name])
        entry["end_to_end"] = declared(measured, benchmark["end_to_end"])
        entry["harness"] = {k: v["value"] for k, v in measured.items()
                            if k.startswith("harness.")}
        entry["stats"] = reps[name][0]["stats"]
        if not smoke:
            print(f"traced pass: {name}", file=sys.stderr)
            pair = traced_pair(name, seed, seconds, skip_expected)
            entry["per_layer"] = declared(per_layer(*pair),
                                          benchmark["per_layer"])
            traced_tally = tally(pair)
            entry["messages"] += traced_tally["messages"]
            entry["failed"] += traced_tally["failed"]
            entry["attempted"] += traced_tally["attempted"]
        results["workloads"][name] = entry
    results["claim"] = None
    return results


#: Layer shares written down in the issue before measuring: (workload,
#: layers summed, "min" or "max", share of the traced unit).  A miss is
#: printed as a miss, not tuned away.
_PREDICTED_SHARES = (
    ("train_serial_eager", ("tensor.kernels.self_ms",), "min", 0.75),
    ("train_compiled_replay",
     ("compiler.replay.self_ms", "tensor.tape.self_ms"), "max", 0.05),
    ("train_parallel_selective",
     ("parallel.self_ms", "fusion.ops.self_ms", "fusion.arena.self_ms",
      "tensor.tape.self_ms"), "min", 0.40),
    ("analytic_report",
     ("tensor.kernels.matmul_fwd_ms", "tensor.kernels.matmul_bwd_ms",
      "tensor.kernels.gelu_fwd_ms", "tensor.kernels.gelu_bwd_ms"), "max", 0.0),
)
_HARNESS_LIMITS = (("harness.coverage_error", 0.02),
                   ("harness.trace_overhead_share", 0.15))


def print_predictions(name: str, layer: Dict[str, dict]) -> None:
    """Measured layer shares next to the predictions, and the traced
    pass's own acceptance limits."""
    splits = ("tensor.kernels.", "fusion.ops.")
    total = sum(layer[m]["value"] for m in _SELF_TIME
                if m.endswith("self_ms") or not m.startswith(splits))
    for workload, metrics, kind, share in _PREDICTED_SHARES:
        if workload != name:
            continue
        measured = sum(layer[m]["value"] for m in metrics) / total
        met = measured >= share if kind == "min" else measured <= share
        print(f"   share {' + '.join(m[:-len('_ms')] for m in metrics)}: "
              f"{measured:.3f}, predicted {kind} {share:g}: "
              f"{'met' if met else 'MISSED'}")
    for metric, limit in _HARNESS_LIMITS:
        value = layer[metric]["value"]
        print(f"   {metric} {value:.4f}, limit {limit:g}: "
              f"{'met' if value <= limit else 'MISSED'}")


def print_results(results: dict) -> None:
    for name, entry in results["workloads"].items():
        share = entry["failed"] / entry["attempted"]
        print(f"\n== {name}  (fail_share {share:g} = {entry['failed']}"
              f"/{entry['attempted']})")
        for message in entry["messages"]:
            print(f"   FAILED: {message}")
        for metric, value in entry["end_to_end"].items():
            print(f"   {metric:<44}{value['value']:>14.4f} {value['unit']:<6}"
                  f" spread {value['spread']:.3f}")
        for metric, value in entry["harness"].items():
            print(f"   {metric:<44}{value:>14.4f}")
        for metric, value in entry.get("per_layer", {}).items():
            print(f"   {metric:<44}{value['value']:>14.4f} {value['unit']}")
        if "per_layer" in entry:
            print_predictions(name, entry["per_layer"])


def compare(path_a: str, path_b: str, benchmark: dict) -> int:
    """A (base) against B, one row per workload x end-to-end metric."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    verdicts = set()
    print(f"{'workload':<26}{'metric':<15}{'A':>12}{'+-':>7}{'B':>12}{'+-':>7}"
          f"{'B/A':>8}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        for decl in benchmark["end_to_end"]:
            va = entry_a["end_to_end"][decl["name"]]
            vb = entry_b["end_to_end"][decl["name"]]
            ratio = vb["value"] / va["value"]
            worse_by = ratio - 1.0 if decl["better"] == "lower" else 1.0 - ratio
            # setup_s is half a second of imports: its three samples
            # range widely, and it is judged on medians alone.
            if (decl["name"] != "setup_s"
                    and max(va["spread"], vb["spread"]) > decl["bound"]):
                verdict = "unresolved"
            elif worse_by > decl["bound"]:
                verdict = "worse"
            elif worse_by < -decl["bound"]:
                verdict = "better"
            else:
                verdict = "within-bound"
            verdicts.add(verdict)
            print(f"{name:<26}{decl['name']:<15}{va['value']:>12.4f}"
                  f"{va['spread']:>7.3f}{vb['value']:>12.4f}"
                  f"{vb['spread']:>7.3f}{ratio:>8.3f}  {verdict} "
                  f"(bound {decl['bound']:g}, base A)")
        if entry_a["failed"] != entry_b["failed"]:
            print(f"{name}: failed {entry_a['failed']} -> {entry_b['failed']}")
            verdicts.add("worse")
        exact = [d["name"] for d in benchmark["per_layer"]
                 if d["unit"] in ("count", "bytes")]
        for metric in exact:
            ca = entry_a.get("per_layer", {}).get(metric, {}).get("value")
            cb = entry_b.get("per_layer", {}).get(metric, {}).get("value")
            if ca != cb:
                print(f"{name}: exact count {metric} differs: {ca} -> {cb}")
    return 1 if verdicts & {"worse", "unresolved"} else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite expected.json from a smoke run at "
                             "--seed (a deliberate refresh, reviewed as such)")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()

    if args.compare:
        return compare(*args.compare, benchmark)
    if args.workload:
        seconds = args.seconds if args.seconds else benchmark["run_seconds"]
        result = run_one(args.workload, args.seed, seconds, bool(args.trace),
                         benchmark)
        print(json.dumps(result))
        return 0
    results = run_suite(args.seed, args.smoke or args.write_expected,
                        args.write_expected, benchmark)
    print_results(results)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_expected:
        expected = {"seed": args.seed, "stats": {
            name: entry["stats"]
            for name, entry in results["workloads"].items()}}
        with open(os.path.join(HERE, "expected.json"), "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
    else:
        name = "smoke.json" if args.smoke else "results.json"
        with open(os.path.join(OUT_DIR, name), "w") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
    failed = sum(e["failed"] for e in results["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerFailed as error:
        sys.exit(f"bench/run.py: {error}")
