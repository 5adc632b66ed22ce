"""Benchmark regression gate over the traced presets.

``repro bench`` runs the nine deterministic presets in :data:`PRESETS`
— ``tiny`` and ``small`` (pipelined traced training), ``chaos`` (a
fault-injected data-parallel segment), ``substrate`` (the
fused-operator engine and the step compiler), ``serve`` (the
continuous-batching scheduler), ``chaos_serve`` (the fault-injected
serving fleet), ``fleet_obs`` (the same fleet with the full request
telemetry stack attached), ``memprof`` (the activation ledger) and
``longctx`` (the context-parallel layouts) — and writes one canonical
``BENCH_<preset>.json`` per preset: the attribution breakdown, MFU/HFU
with their model deltas, peak memory, per-term memory drift, goodput
and a SHA-256 hash of the merged trace.  Because the simulated clock is
deterministic, the documents are byte-identical across runs at the same
seed.

The runs themselves are defined once, in :mod:`repro.scenarios`, and
shared with the ``repro <command>`` CLI; a preset here is only the
*reduction* of a finished run to the gated document — the keys it
spells out are the spec — plus its tolerance rows in
:data:`TOLERANCES`.

``repro bench --check`` re-runs the presets and diffs the fresh
documents against the committed baselines under
``benchmarks/baselines/`` with per-metric tolerances (exact for hashes
and byte counts, relative for times and utilization), exiting non-zero
and naming every out-of-tolerance metric.  This is the CI gate: a PR
that silently regresses goodput, shifts the attribution mix, or breaks
trace determinism fails the build.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .. import scenarios
from ..layers.transformer import Recompute
from .analysis import (
    attribute,
    from_tracer,
    longctx_memory_term_drift,
    memory_drift_report,
    schedule_critical_path,
    utilization_crosscheck,
)
from .memprof import (
    check_peak_attribution,
    counter_events,
    frontier,
    frontier_by_category,
    paged_kv_fragmentation,
    profile_layer,
    selective_recompute_dominates,
)
from .perfetto import merged_trace, validate_trace_events
from .serialize import dumps_json, to_jsonable
from .tracer import Tracer, trace_scope

#: Bump when the BENCH document layout changes incompatibly; --check
#: refuses to compare documents with mismatched schema versions.
SCHEMA_VERSION = 1

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

#: Per-metric tolerances for --check, matched by longest dotted-key
#: prefix (first hit wins).  ``("exact", 0)`` fails on any difference;
#: ``("abs", x)`` on |delta| > x; ``("rel", x)`` on relative change > x;
#: ``("floor", x)`` fails when the *current* value drops below x (used
#: for speedup ratios, where the baseline value is machine-specific).
TOLERANCES: Tuple[Tuple[str, Tuple[str, float]], ...] = (
    ("schema_version", ("exact", 0)),
    ("preset", ("exact", 0)),
    ("seed", ("exact", 0)),
    ("steps", ("exact", 0)),
    ("config.", ("exact", 0)),
    ("trace_hash", ("exact", 0)),
    ("counts.", ("exact", 0)),
    ("fusion.", ("exact", 0)),
    ("arena.", ("exact", 0)),
    # The step compiler's captured plan is a static artifact: op counts,
    # collective schedule length, planned arena bytes, cache accounting
    # and the replay-vs-eager loss drift (always exactly 0.0) may not
    # move without an intentional change.
    ("compiler.", ("exact", 0)),
    ("memory.fused_drift", ("exact", 0)),
    ("memory.peak_bytes", ("exact", 0)),
    ("memory.drift", ("abs", 1.0)),
    ("utilization.mfu_delta", ("abs", 1e-3)),
    ("utilization.hfu_delta", ("abs", 1e-3)),
    ("utilization.", ("rel", 0.02)),
    ("attribution.coverage_error", ("abs", 1e-6)),
    ("attribution.", ("rel", 0.05)),
    ("per_rank.", ("rel", 0.05)),
    ("critical_path.", ("rel", 0.05)),
    ("resilience.goodput", ("abs", 0.05)),
    ("resilience.", ("exact", 0)),
    # Continuous batching must beat static batching by 1.5x at the same
    # KV budget; every other serving metric rides the simulated clock and
    # is exactly reproducible at equal seeds.
    ("serving.continuous_vs_static_speedup", ("floor", 1.5)),
    ("serving.", ("exact", 0)),
    # The chaos-serving gate: the default fault plan (one permanent
    # replica crash mid-decode, one straggler, one dropped dispatch) must
    # keep goodput at or above 0.85; everything else — token identity
    # with the fault-free run, zero KV drift, recovery tallies, the
    # fleet trace hash — rides the simulated clock and is exact.
    ("fleet.goodput", ("floor", 0.85)),
    ("fleet.", ("exact", 0)),
    # The activation-ledger gate: peak attribution must stay *bitwise*
    # exact on every (config, layout, recompute, fused) cell, the priced
    # frontier must keep ranking the attention softmax/dropout tensors
    # as the paper's best save-vs-recompute candidates, and the
    # fragmentation/counter accounting rides the deterministic allocator
    # and sequence clock.  Wall clock (the <5% disabled-overhead bound,
    # the enabled-profiler cost) is ``benchmarks/bench_memprof.py``'s.
    ("exactness.", ("exact", 0)),
    ("frontier.", ("exact", 0)),
    ("fragmentation.", ("exact", 0)),
    ("ledger.", ("exact", 0)),
    # The fleet-telemetry gate: detection precision/recall against the
    # injected plan, the request-span partition invariant, TTFT/TPOT
    # reconciliation and the postmortem/request-trace fingerprints all
    # ride the simulated clock and must be exactly reproducible —
    # precision/recall at literally 1.0, gap/overlap at literally 0.0.
    ("telemetry.", ("exact", 0)),
    # The long-context gate: interleaving checkpoint-segment recompute
    # with in-flight collectives must keep the analytic exposed-comm
    # reduction at or above 1.2x on both layouts; everything else —
    # serial-loss and overlap-loss drift (literally 0.0), traced comm
    # bytes against the closed-form volumes, per-term memory drift,
    # attribution buckets and the trace fingerprints — rides the
    # simulated clock and deterministic mask streams and is exact.
    ("longctx.overlap_reduction", ("floor", 1.2)),
    ("longctx.", ("exact", 0)),
    ("wall_time_s", ("rel", 0.05)),
    ("iteration_time_s", ("rel", 0.05)),
    ("", ("rel", 0.02)),  # default
)


@dataclass(frozen=True)
class Regression:
    """One out-of-tolerance metric found by :func:`compare`."""

    key: str
    baseline: object
    current: object
    tolerance: Tuple[str, float]

    def __str__(self) -> str:
        kind, bound = self.tolerance
        if isinstance(self.baseline, (int, float)) and \
                isinstance(self.current, (int, float)):
            delta = self.current - self.baseline
            return (f"{self.key}: {self.baseline!r} -> {self.current!r} "
                    f"(delta {delta:+.6g}, tolerance {kind} {bound:g})")
        return (f"{self.key}: {self.baseline!r} -> {self.current!r} "
                f"(tolerance {kind} {bound:g})")


def trace_hash(tracer, extra_events: Optional[List[dict]] = None) -> str:
    """SHA-256 of the canonical merged Chrome trace — the determinism
    fingerprint: any change to event content, order or timing shows."""
    doc = merged_trace(tracer, extra_events=extra_events)
    payload = json.dumps(to_jsonable(doc), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _counts(tracer, **extra: int) -> dict:
    return {"spans": len(tracer.spans), "instants": len(tracer.instants),
            **extra}


def _collectives(tracer) -> int:
    return sum(1 for s in tracer.spans if s.subsystem == "comm")


def _named_spans(tracer, name: str) -> int:
    return sum(1 for s in tracer.spans if s.name == name)


def _traced_training_blocks(doc: dict, tracer):
    """The blocks every traced training document carries: wall time,
    the attribution breakdown (total and per rank), event counts and the
    trace hash.  Returns the normalized trace for further analysis."""
    data = from_tracer(tracer)
    att = attribute(data)
    doc["wall_time_s"] = data.wall
    doc["attribution"] = {"totals": att.totals,
                          "coverage_error": att.coverage_error}
    doc["per_rank"] = {str(r.rank): r.buckets for r in att.ranks}
    doc["counts"] = _counts(tracer, collectives=_collectives(tracer))
    doc["trace_hash"] = trace_hash(tracer)
    return data


def _run_pipelined_preset(preset: str, seed_value: int, steps: int) -> dict:
    """Trace a pipelined preset run and reduce it to a BENCH document."""
    tracer = Tracer()
    with trace_scope(tracer):
        run = scenarios.pipelined_training(preset, steps, seed_value,
                                           tracer=tracer)
    config, trackers = run.experiment, run.trackers
    tp = config.parallel.tensor_parallel
    pp = config.parallel.pipeline_parallel

    doc = _base_doc(preset, seed_value, steps, config.model, tp, pp)
    data = _traced_training_blocks(doc, tracer)
    xc = utilization_crosscheck(data, config, num_iterations=steps,
                                recompute=run.model.recompute)
    cp = schedule_critical_path(data, num_groups=pp)
    drifts = memory_drift_report(config.model,
                                 config.training.micro_batch_size, tp)
    doc["iteration_time_s"] = xc.iteration_time
    doc["utilization"] = {
        "mfu": xc.mfu,
        "hfu": xc.hfu,
        "model_mfu": xc.model_mfu,
        "model_hfu": xc.model_hfu,
        "mfu_delta": xc.mfu_delta,
        "hfu_delta": xc.hfu_delta,
        "traced_model_flops": xc.traced_model_flops,
        "traced_hardware_flops": xc.traced_hardware_flops,
    }
    doc["memory"] = {
        "peak_bytes": {f"stage{i}": trackers[i].peak_bytes()
                       for i in range(pp)},
        "drift": {
            _drift_key(d): d.drift for d in drifts
        },
        "drift_total_bytes": sum(d.total_drift for d in drifts),
    }
    doc["critical_path"] = {
        "nodes": len(cp.nodes),
        "span_s": cp.span,
        "busy_s": cp.busy,
        "time_by_kind": cp.time_by_kind,
    } if cp is not None else {}
    return doc


def _run_chaos_preset(seed_value: int, steps: int) -> dict:
    """Trace a fault-injected data-parallel segment (the resilience
    path): recovery stalls must land in the attribution and goodput in
    the document, so a PR degrading recovery fails the gate."""

    tracer = Tracer()
    with trace_scope(tracer):
        trainer, result, _ = scenarios.dp_chaos_segment(steps, seed_value)
    report = result.report

    doc = _base_doc("chaos", seed_value, steps, trainer.model.config,
                    trainer.model.group.size, 1)
    doc["config"]["data_parallel"] = trainer.dp
    _traced_training_blocks(doc, tracer)
    doc["resilience"] = {
        "goodput": report.goodput(),
        "faults": len(report.faults),
        "recoveries": len(report.recoveries),
        "steps_completed": report.steps_completed,
    }
    return doc


def _run_substrate_preset(seed_value: int, steps: int) -> dict:
    """Gate the fused-operator engine (:mod:`repro.fusion`) against the
    unfused tape on real train steps.

    Gated quantities ride the simulated clock and exact counters: the
    tape shrinkage and eliminated-kernel counts, the buffer-arena
    recycling stats, equal saved-activation peaks fused vs unfused, zero
    per-term Eq. 1-4 drift with fusion on, and the fused run's trace
    hash (byte-identical determinism at equal seeds, fused spans
    included).  Wall-clock fused-vs-unfused step time is measured by
    ``bench/`` (workload ``train_parallel_selective``), not here.

    The preset also gates the static-graph step compiler
    (:mod:`repro.compiler`): the captured train plan's op schedule /
    collective count / planned arena bytes are exact, and the
    compiled-vs-eager loss drift on the real model is an exact 0.0.
    Replay wall clock is ``bench/``'s (workload ``train_compiled_replay``).
    """
    from ..fusion import fusion_report, reset_arena
    from ..layers import GPTModel
    from ..parallel.transformer import ParallelGPTModel
    from ..tensor import MemoryTracker, OpLog, instrument, seed
    from ..training import Trainer, UniformTokens

    model_cfg = scenarios.COMPILE_MODEL
    tp = 4
    batch = 4

    def _data():
        return UniformTokens(model_cfg.vocab_size, model_cfg.seq_length,
                             seed=seed_value + 1).batch(batch)

    # Tape shrinkage + accounting parity on one instrumented serial step.
    def _instrumented(fused: bool):
        seed(seed_value)
        trainer = Trainer(GPTModel(model_cfg, seed=0, fused=fused), lr=1e-3)
        ids, targets = _data()
        log, tracker = OpLog(), MemoryTracker()
        with instrument(memory=tracker, oplog=log):
            trainer.train_step(ids, targets)
        return log, tracker

    log_unfused, mem_unfused = _instrumented(False)
    log_fused, mem_fused = _instrumented(True)
    report = fusion_report(log_unfused.records)

    # Arena recycling over the same fused step (scratch only, deterministic).
    arena = reset_arena()
    _instrumented(True)
    arena_stats = arena.stats()
    reset_arena()

    # Zero Eq. 1-4 per-term drift with fusion on (abstract, paper accounting).
    drifts = memory_drift_report(model_cfg, batch, tp, fused=True)

    # Determinism fingerprint of a fused traced run (fused spans included).
    tracer = Tracer()
    seed(seed_value)
    trainer = Trainer(ParallelGPTModel(
        model_cfg, tensor_parallel=tp, sequence_parallel=True,
        recompute=Recompute.SELECTIVE, seed=0, fused=True), lr=1e-3)
    ids, targets = _data()
    with trace_scope(tracer):
        for _ in range(steps):
            trainer.train_step(ids, targets)

    # -- static-graph step compiler (repro.compiler) ---------------------
    # Bitwise replay parity on the real model, dropout on: compiled and
    # eager twins see identical per-step RNG, so the max |loss delta| is
    # an exact 0.0 — any drift means the capture diverged from the tape.
    twins = scenarios.compiled_eager_twins(
        batch=batch, steps=3, seed_value=seed_value, dropout=0.1)
    train_plan = twins.compiled.plans.plans()[0]
    cache_stats = dict(twins.compiled.plans.stats())

    doc = _base_doc("substrate", seed_value, steps, model_cfg, tp, 1)
    doc["compiler"] = {
        "train_plan_ops": train_plan.num_ops,
        "train_plan_op_counts": train_plan.op_counts(),
        "train_plan_collectives": len(train_plan.collective_schedule()),
        "train_plan_arena_bytes": train_plan.memory.arena_bytes,
        "train_plan_buffers": train_plan.memory.num_buffers,
        "cache": cache_stats,
        "replay_loss_drift": twins.drift,
    }
    doc["fusion"] = {
        "records_unfused": len(log_unfused.records),
        "records_fused": len(log_fused.records),
        "kernels_eliminated": report["kernels_eliminated"],
        "fused_kernels": report["fused_kernels"],
    }
    doc["arena"] = arena_stats
    doc["memory"] = {
        "peak_bytes": {"unfused": mem_unfused.peak_bytes(0),
                       "fused": mem_fused.peak_bytes(0)},
        "fused_drift": {_drift_key(d): d.drift for d in drifts},
        "fused_drift_total_bytes": sum(d.total_drift for d in drifts),
    }
    doc["counts"] = _counts(
        tracer,
        fused_spans=sum(1 for s in tracer.spans if s.args.get("fused")))
    doc["trace_hash"] = trace_hash(tracer)
    return doc


def _run_serve_preset(seed_value: int, steps: int) -> dict:
    """Serve a seeded open-loop workload through the continuous-batching
    scheduler (real TP=2 engine on the paged KV cache) and gate it
    against the static-batching baseline at the same KV budget.

    Gated quantities: the continuous-vs-static tokens/s ratio (floor
    1.5x — throughput lives on the analytic simulated clock, so it is
    reproducible, but the floor states the paper-style claim directly),
    swap/recompute token agreement (exact — preemption must never change
    a request's output), zero KV accounting drift (exact), the
    preemption/resume counts and peak KV occupancy (exact), and the
    serving trace hash (exact — byte-identical timelines at equal
    seeds).
    """
    from ..serving import simulate_static_batching

    def _serve(policy: str, tracer=None):
        scheduler, specs, perf = scenarios.serving_scheduler(
            seed_value=seed_value, policy=policy, tracer=tracer)
        return scheduler.run(specs), specs, perf

    tracer = Tracer()
    report, specs, perf = _serve("swap", tracer=tracer)
    recompute_report, _, _ = _serve("recompute")
    policies_agree = (
        report.completed == recompute_report.completed and
        all(a["generated_tokens"] == b["generated_tokens"]
            for a, b in zip(report.per_request,
                            recompute_report.per_request)))
    shape = scenarios.defaults(scenarios.serving_scheduler)
    pool = {key: shape[key]
            for key in ("block_size", "num_blocks", "max_batch")}
    static = simulate_static_batching(specs, perf, **pool)

    doc = _base_doc("serve", seed_value, steps, scenarios.SERVE_MODEL,
                    shape["tp"], 1)
    doc["config"].update(pool)
    doc["serving"] = {
        "tokens_per_s": report.tokens_per_s,
        "static_tokens_per_s": static["tokens_per_s"],
        "continuous_vs_static_speedup":
            report.tokens_per_s / static["tokens_per_s"],
        "p50_token_latency_s": report.p50_token_latency_s,
        "p95_token_latency_s": report.p95_token_latency_s,
        "tokens_generated": report.tokens_generated,
        "completed": report.completed,
        "preemptions": report.preemptions,
        "resumes": report.resumes,
        "kv_drift_bytes": report.kv_drift_bytes,
        "peak_kv_occupancy": report.peak_kv_occupancy,
        "policies_agree": policies_agree,
    }
    doc["counts"] = _counts(
        tracer, decode_steps=_named_spans(tracer, "serve.decode"))
    doc["trace_hash"] = trace_hash(tracer)
    return doc


def _run_chaos_serve_preset(seed_value: int, steps: int) -> dict:
    """Serve a seeded open-loop workload through a three-replica fleet
    under the default chaos plan — one *permanent* replica crash
    mid-decode, one straggler, one dropped dispatch — and gate the
    fault-tolerance claims directly.

    Gated quantities: fleet goodput under the plan (floor 0.85 — the
    waste ledger is on the simulated clock, so the floor states the
    robustness claim, not a machine-speed fact), per-request token
    streams identical to the fault-free run at the same seed (exact —
    the headline guarantee), zero KV accounting drift across crash /
    migrate / recompute traffic (exact), the migration-vs-recompute
    recovery mix and fault/recovery ledger counts (exact), and the
    fleet trace hash (exact — byte-identical timelines at equal seeds,
    dispatch/migrate/recover spans included).
    """
    tracer = Tracer()
    fleet, report = scenarios.chaos_fleet(seed_value=seed_value,
                                          tracer=tracer)
    clean_fleet, clean_report = scenarios.chaos_fleet(seed_value=seed_value,
                                                      fault_rate=0.0)
    tokens_identical = (fleet.tokens_by_request()
                        == clean_fleet.tokens_by_request())

    doc = _fleet_doc("chaos_serve", seed_value, steps)
    doc["fleet"] = {
        "goodput": report.goodput(),
        "clean_goodput": clean_report.goodput(),
        "tokens_identical_to_clean": tokens_identical,
        "requests": report.requests,
        "completed": report.completed,
        "shed": report.shed,
        "rounds": report.rounds,
        "final_replicas": report.final_replicas,
        "faults": len(report.faults),
        "recoveries": len(report.recoveries),
        "dispatches": report.dispatches,
        "redispatches": report.redispatches,
        "migrations": report.migrations,
        "recomputes": report.recomputes,
        "tokens_generated": report.tokens_generated,
        "useful_s": report.useful_s,
        "wasted_s": report.wasted_s,
        "kv_drift_bytes": report.kv_drift_bytes,
        "ttft_p50_s": report.ttft_p50_s,
        "ttft_p95_s": report.ttft_p95_s,
        "ttft_p99_s": report.ttft_p99_s,
        "tpot_p50_s": report.tpot_p50_s,
        "tpot_p95_s": report.tpot_p95_s,
        "tpot_p99_s": report.tpot_p99_s,
    }
    doc["counts"] = _counts(
        tracer,
        dispatches=_named_spans(tracer, "fleet.dispatch"),
        migrations=_named_spans(tracer, "fleet.migrate"),
        recomputes=_named_spans(tracer, "fleet.recover"))
    doc["trace_hash"] = trace_hash(tracer)
    return doc


def _run_fleet_obs_preset(seed_value: int, steps: int) -> dict:
    """The ``chaos_serve`` fleet with the full request-telemetry stack
    attached: distributed request tracing, the flight recorder and the
    SLO burn-rate monitor.

    Gated quantities (all exact — every one is a pure function of the
    seed and the plan): monitor detection precision *and* recall
    against the injected fault plan at literally 1.0; the request-span
    partition invariant at literally 0.0 gap / 0.0 overlap with zero
    open requests; TTFT/TPOT quantiles recomputed from the span graphs
    alone matching the :class:`~repro.fleet.FleetReport` ledger bit for
    bit; SHA-256 fingerprints of the postmortem dump and the request
    trace export (byte-identity at equal seeds); and the merged trace
    hash with the request/monitor view tracks and cross-process flow
    events included.  Wall-clock telemetry cost (and its <5%
    disabled-overhead bound) is measured by
    ``benchmarks/bench_fleet_telemetry.py``, not here.
    """
    # Same fleet and fault plan as ``chaos_serve`` so the two documents
    # describe the same physics, with and without telemetry.
    (report, tracer, monitor, recorder, tracker, score, partition,
     reconciled) = scenarios.monitored_fleet(seed_value=seed_value)
    postmortem_sha = hashlib.sha256(recorder.dumps().encode()).hexdigest()
    request_trace_sha = hashlib.sha256(
        tracker.to_json().encode()).hexdigest()

    doc = _fleet_doc("fleet_obs", seed_value, steps)
    doc["fleet"] = {
        "goodput": report.goodput(),
        "completed": report.completed,
        "shed": report.shed,
        "rounds": report.rounds,
        "faults": len(report.faults),
    }
    doc["telemetry"] = {
        "detection_precision": score["precision"],
        "detection_recall": score["recall"],
        "injected_faults": score["injected"],
        "detections": score["detections"],
        "missed": score["missed"],
        "spurious": score["spurious"],
        "partition_max_gap_s": partition["max_gap_s"],
        "partition_max_overlap_s": partition["max_overlap_s"],
        "partition_open_requests": partition["open_requests"],
        "partition_exact": partition["exact"],
        "ttft_reconciled": reconciled["ttft_match"],
        "tpot_reconciled": reconciled["tpot_match"],
        "reconciled_requests": reconciled["completed"],
        "flight_events_recorded": recorder.recorded,
        "postmortems": len(recorder.postmortems),
        "postmortem_sha256": postmortem_sha,
        "request_trace_sha256": request_trace_sha,
        "ttft_burn_long": monitor.ttft_burn(),
        "tpot_burn_long": monitor.tpot_burn(),
        "health_scores": monitor.snapshot()["health_scores"],
    }
    doc["counts"] = _counts(
        tracer,
        request_spans=sum(1 for s in tracer.spans
                          if s.subsystem == "request"),
        monitor_instants=sum(1 for i in tracer.instants
                             if i.subsystem == "monitor"),
        flow_links=sum(1 for s in tracer.spans if "flow_out" in s.args))
    doc["trace_hash"] = trace_hash(tracer)
    return doc


def _run_memprof_preset(seed_value: int, steps: int) -> dict:
    """The activation-ledger gate (``repro memprofile`` machinery).

    Gated quantities, all exact: the peak-attribution exactness matrix
    — every (shape, tensor-parallel/sequence-parallel layout, recompute,
    fused) cell must decompose the tracker's per-rank peak *bitwise* by
    module path and category and reconcile term-by-term with the
    Section 4 closed forms at literally zero drift; the 22B frontier
    must keep pricing the attention softmax/dropout tensors as the
    paper's best bytes-per-recompute-second candidates (with their
    per-category byte totals pinned exactly); the ledger-vs-tracker
    live-bytes identity; the paged-KV fragmentation timeline (seeded
    first-fit churn is deterministic); and the validated counter-track
    event count.  Profiler wall cost (enabled, and the <5% *disabled*
    overhead bound) is measured by ``benchmarks/bench_memprof.py``.
    """

    shapes = {name: scenarios.memprof_model(name)
              for name in ("tiny", "small")}
    layouts = ((1, False), (2, False), (2, True))

    exactness: Dict[str, dict] = {}
    all_exact = True
    for name, shape in shapes.items():
        for t, sp in layouts:
            for recompute in (Recompute.NONE, Recompute.SELECTIVE):
                for fused in (False, True):
                    checks = check_peak_attribution(
                        shape, 1, t, sp, recompute, fused)
                    cell_exact = all(c.exact for c in checks)
                    all_exact = all_exact and cell_exact
                    key = (f"{name}.t{t}{'sp' if sp else ''}."
                           f"{recompute.value}.{'fused' if fused else 'unfused'}")
                    exactness[key] = {
                        "exact": cell_exact,
                        "ranks": len(checks),
                        "peak_bytes": [c.peak_bytes for c in checks],
                        "term_drift_total": max(
                            c.term_drift_total for c in checks),
                    }
    exactness["all_exact"] = all_exact

    # Frontier pricing on the paper's 22B column (Section 5's argument):
    # softmax/dropout must dominate on bytes-per-recompute-second.
    model22 = scenarios.memprof_model("22B")
    frontier_doc: Dict[str, dict] = {}
    for t, sp in ((1, False), (2, True)):
        prof, ledger = profile_layer(model22, 1, t, sp, Recompute.NONE)
        by_cat = frontier_by_category(frontier(prof, ledger, 0))
        frontier_doc[f"t{t}{'sp' if sp else ''}"] = {
            "selective_recompute_dominates":
                selective_recompute_dominates(by_cat),
            "category_bytes": {c: agg["nbytes"]
                               for c, agg in by_cat.items()},
            "must_keep_bytes": {c: agg["must_keep_nbytes"]
                                for c, agg in by_cat.items()
                                if agg["must_keep_nbytes"]},
        }

    # Ledger-vs-tracker identity + counter-track schema on one traced
    # profile; the merged trace + counter tracks are the determinism
    # fingerprint.
    tracer = Tracer()
    prof, ledger = profile_layer(shapes["small"], 1, 2, True,
                                 Recompute.NONE, tracer=tracer)
    events = counter_events(ledger)
    validate_trace_events(events)
    ledger_doc = {
        "entries": len(ledger.entries),
        "timeline_events": len(ledger.timeline),
        "counter_events": len(events),
        "live_identity": all(
            ledger.live_entry_bytes(r) == ledger.live_bytes(r)
            for r in ledger.ranks()),
    }

    frag = paged_kv_fragmentation(seed=seed_value)
    fragmentation = {k: v for k, v in frag.items() if k != "samples"}

    doc = _base_doc("memprof", seed_value, steps, shapes["small"], 2, 1)
    doc["trace_hash"] = trace_hash(tracer, extra_events=events)
    doc["exactness"] = exactness
    doc["frontier"] = frontier_doc
    doc["ledger"] = ledger_doc
    doc["fragmentation"] = fragmentation
    return doc


def _run_longctx_preset(seed_value: int, steps: int) -> dict:
    """Trace the context-parallel layouts (Ulysses and ring, p=2, full
    recompute) twice each — recompute/comm overlap off and on — and
    reduce both to one gated document: serial-loss drift and
    overlap-loss drift must be literally 0.0, the traced collective
    bytes must equal the closed-form per-layout volumes exactly, the
    per-term memory reconciliation must be drift-free, and the analytic
    exposed-comm reduction must clear the 1.2x floor."""
    from ..pipeline_sim import longctx_overlap_report
    from ..planner import choose_context_layout

    recompute = Recompute.FULL

    layouts_doc: Dict[str, dict] = {}
    reductions: Dict[str, float] = {}
    hashes: List[str] = []
    wall = 0.0
    counts: Dict[str, dict] = {}
    for layout in ("ulysses", "ring"):
        off, on = (scenarios.context_parallel_step(
            layout=layout, recompute=recompute, seed_value=seed_value,
            overlap=overlap) for overlap in (False, True))
        model_cfg, b, p = on.model_cfg, on.batch, on.context_parallel
        data_on = from_tracer(on.tracer)
        att_off = attribute(from_tracer(off.tracer))
        att_on = attribute(data_on)
        expected = int(on.expected_bytes)

        drift = longctx_memory_term_drift(model_cfg, b, p, layout, recompute)
        overlap_report = longctx_overlap_report(model_cfg, b, p, layout,
                                                recompute)
        reductions[layout] = overlap_report.exposed_reduction
        hashes.append(trace_hash(off.tracer))
        hashes.append(trace_hash(on.tracer))
        wall += data_on.wall
        counts[layout] = _counts(on.tracer,
                                 collectives=_collectives(on.tracer))
        layouts_doc[layout] = {
            "loss": on.loss,
            "serial_loss_drift": abs(off.loss - off.serial_loss),
            "overlap_loss_drift": abs(on.loss - off.loss),
            "traced_comm_bytes": on.traced_bytes,
            "expected_comm_bytes": expected,
            "volume_exact": on.traced_bytes == expected,
            "memory_drift_bytes": drift.total_drift,
            "attribution": {
                "serial_exposed_s": att_off.totals["exposed_comm"],
                "exposed_s": att_on.totals["exposed_comm"],
                "overlapped_s": att_on.totals["overlapped_comm"],
                "conservation_error": abs(
                    att_on.totals["exposed_comm"]
                    + att_on.totals["overlapped_comm"]
                    - att_off.totals["exposed_comm"]
                    - att_off.totals["overlapped_comm"]),
                "coverage_error": att_on.coverage_error,
            },
            "analytic_speedup": overlap_report.speedup,
        }

    doc = _base_doc("longctx", seed_value, steps, model_cfg, 1, 1)
    doc["config"]["context_parallel"] = p
    doc["wall_time_s"] = wall
    doc["longctx"] = dict(layouts_doc)
    doc["longctx"]["overlap_reduction"] = reductions
    doc["longctx"]["chooser_pick"] = choose_context_layout(
        model_cfg, b, p).layout
    doc["counts"] = counts
    doc["trace_hash"] = hashlib.sha256("".join(hashes).encode()).hexdigest()
    return doc


def _base_doc(preset: str, seed_value: int, steps: int, model_cfg,
              tp: int, pp: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "preset": preset,
        "seed": seed_value,
        "steps": steps,
        "config": {
            "num_layers": model_cfg.num_layers,
            "hidden_size": model_cfg.hidden_size,
            "num_heads": model_cfg.num_heads,
            "seq_length": model_cfg.seq_length,
            "vocab_size": model_cfg.vocab_size,
            "tensor_parallel": tp,
            "pipeline_parallel": pp,
        },
    }


def _fleet_doc(preset: str, seed_value: int, steps: int) -> dict:
    shape = scenarios.defaults(scenarios.chaos_fleet)
    doc = _base_doc(preset, seed_value, steps, scenarios.FLEET_MODEL,
                    shape["tp"], 1)
    doc["config"]["num_replicas"] = shape["replicas"]
    for key in ("block_size", "num_blocks", "max_batch"):
        doc["config"][key] = shape[key]
    return doc


def _drift_key(d) -> str:
    sp = "sp" if d.sequence_parallel else "nosp"
    return f"{sp}+{d.recompute.value}"


def _utilization_summary(doc: dict) -> str:
    return f"mfu {doc['utilization']['mfu']:.3e}"


def _fleet_summary(doc: dict) -> str:
    return f"fleet goodput {doc['fleet']['goodput']:.1%} under chaos"


def _fleet_obs_summary(doc: dict) -> str:
    telemetry = doc["telemetry"]
    return (f"{_fleet_summary(doc)}, detection P/R "
            f"{telemetry['detection_precision']:.2f}/"
            f"{telemetry['detection_recall']:.2f}, "
            f"partition exact={telemetry['partition_exact']}")


def _memprof_summary(doc: dict) -> str:
    dominates = all(f["selective_recompute_dominates"]
                    for f in doc["frontier"].values())
    return (f"attribution exact={doc['exactness']['all_exact']}, "
            f"frontier dominates={dominates}")


#: The registry: preset name -> (runner, summary).  ``runner(seed_value,
#: steps)`` returns the canonical document; ``summary(doc)`` is the
#: headline ``repro bench`` prints next to the trace hash ("" for none).
#: Adding a preset is one entry here, its reduction function above, and
#: its rows in :data:`TOLERANCES` (docs/extending.md).
PRESETS: Dict[str, Tuple[Callable[[int, int], dict],
                         Callable[[dict], str]]] = {
    "tiny": (functools.partial(_run_pipelined_preset, "tiny"),
             _utilization_summary),
    "small": (functools.partial(_run_pipelined_preset, "small"),
              _utilization_summary),
    "chaos": (_run_chaos_preset, lambda doc:
              f"goodput {doc['resilience']['goodput']:.1%}"),
    "substrate": (_run_substrate_preset, lambda doc:
                  f"replay drift {doc['compiler']['replay_loss_drift']:g}"),
    "serve": (_run_serve_preset, lambda doc:
              f"serve x{doc['serving']['continuous_vs_static_speedup']:.2f}"
              f" vs static"),
    "chaos_serve": (_run_chaos_serve_preset, _fleet_summary),
    "fleet_obs": (_run_fleet_obs_preset, _fleet_obs_summary),
    "memprof": (_run_memprof_preset, _memprof_summary),
    "longctx": (_run_longctx_preset, lambda doc: ""),
}

PRESET_NAMES = tuple(PRESETS)


def run_preset(preset: str, seed_value: int = 1234, steps: int = 2) -> dict:
    """Run one preset and return its canonical BENCH document."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"expected one of {PRESET_NAMES}")
    runner, _ = PRESETS[preset]
    return runner(seed_value, steps)


def bench_filename(preset: str) -> str:
    return f"BENCH_{preset}.json"


def write_bench(doc: dict, directory: str) -> str:
    """Write one canonical BENCH document; byte-identical per (preset,
    seed) because every input is on the simulated clock."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(doc["preset"]))
    with open(path, "w") as fh:
        fh.write(dumps_json(doc, indent=1))
        fh.write("\n")
    return path


def load_bench(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def flatten(doc: dict, prefix: str = "") -> Dict[str, object]:
    """Flatten a BENCH document to dotted scalar keys for comparison."""
    out: Dict[str, object] = {}
    for key, value in doc.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, prefix=f"{dotted}."))
        else:
            out[dotted] = value
    return out


def tolerance_for(key: str) -> Tuple[str, float]:
    # The closing "" row matches every key.
    return next(tol for prefix, tol in TOLERANCES if key.startswith(prefix))


def _within(baseline, current, tol: Tuple[str, float]) -> bool:
    kind, bound = tol
    if kind == "floor":
        return isinstance(current, (int, float)) and current >= bound
    if kind == "exact":
        return baseline == current
    if not isinstance(baseline, (int, float)) or \
            not isinstance(current, (int, float)) or \
            isinstance(baseline, bool) or isinstance(current, bool):
        return baseline == current
    delta = abs(current - baseline)
    if kind == "abs":
        return delta <= bound
    # relative, with an absolute floor so exact-zero baselines (e.g. an
    # attribution bucket the preset never exercises) tolerate float dust
    return delta <= max(abs(baseline) * bound, 1e-12)


def compare(baseline: dict, current: dict) -> List[Regression]:
    """Diff two BENCH documents; returns every out-of-tolerance metric.

    Keys missing from either side are regressions too — a disappeared
    metric is as suspicious as a drifted one.
    """
    flat_base = flatten(baseline)
    flat_cur = flatten(current)
    regressions: List[Regression] = []
    for key in sorted(set(flat_base) | set(flat_cur)):
        tol = tolerance_for(key)
        if key not in flat_base:
            regressions.append(Regression(key, None, flat_cur[key], tol))
        elif key not in flat_cur:
            regressions.append(Regression(key, flat_base[key], None, tol))
        elif not _within(flat_base[key], flat_cur[key], tol):
            regressions.append(Regression(key, flat_base[key],
                                          flat_cur[key], tol))
    return regressions


def check_against_baselines(docs: Dict[str, dict],
                            baseline_dir: str) -> Dict[str, List[Regression]]:
    """Compare fresh documents against committed baselines, per preset.

    A missing baseline file is reported as a single synthetic regression
    so a new preset cannot silently skip the gate.
    """
    failures: Dict[str, List[Regression]] = {}
    for preset, doc in docs.items():
        path = os.path.join(baseline_dir, bench_filename(preset))
        if not os.path.exists(path):
            failures[preset] = [Regression(
                "baseline", path, None, ("exact", 0))]
            continue
        regressions = compare(load_bench(path), doc)
        if regressions:
            failures[preset] = regressions
    return failures
