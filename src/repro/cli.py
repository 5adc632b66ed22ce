"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures, report memory/FLOPs
for a configuration, run the recomputation planner, or simulate a
pipeline schedule.  Run ``python -m repro --help`` for the full list.
"""

from __future__ import annotations

import argparse
import os
import sys
from types import MappingProxyType
from typing import Callable, List, Mapping, NamedTuple, Optional

from . import experiments, scenarios
from .config import PAPER_CONFIG_NAMES, PAPER_CONFIGS
from .errors import ConfigError, ReproError
from .flops_model import (
    hardware_flops_per_iteration,
    hardware_to_model_ratio,
    model_flops_per_iteration,
)
from .layers.transformer import Recompute
from .memory_model import (
    per_layer_activation_bytes,
    total_activation_bytes,
    weight_and_optimizer_bytes,
)
from .observability import (
    FlightRecorder,
    MetricsRegistry,
    RequestTracker,
    Tracer,
    arena_recycling_report,
    attribute,
    check_against_baselines,
    check_peak_attribution,
    counter_events,
    dump_json,
    dumps_json,
    export_trace,
    flamegraph,
    from_tracer,
    frontier_by_category,
    ledger_document,
    load_trace,
    paged_kv_fragmentation,
    profile_layer,
    rehome_events,
    run_preset,
    selective_recompute_dominates,
    trace_scope,
    validate_trace_file,
    verify_partition,
    write_bench,
)
from .observability.regress import DEFAULT_BASELINE_DIR, PRESET_NAMES, PRESETS
from .perf_model import iteration_time
from .pipeline_sim import figure10
from .planner import choose_context_layout, plan
from .serving import POLICIES
from .reporting import format_table, pct
from .units import GIB, fmt_bytes, fmt_count, fmt_flops


def _config(name: str):
    if name not in PAPER_CONFIGS:
        raise ConfigError(f"unknown model {name!r}; choose from {', '.join(PAPER_CONFIG_NAMES)}")
    return PAPER_CONFIGS[name]


def emit_json(payload) -> str:
    """Canonical ``--json`` output: every subcommand funnels through the
    shared serializer (sorted keys, fixed separators) so machine-readable
    output is deterministic and uniform across commands."""
    return dumps_json(payload).rstrip("\n")


class _PaperItem(NamedTuple):
    """One ``repro table N`` / ``repro figure N`` entry."""

    data: Callable
    report: Callable
    #: ``--json`` key the data goes under
    json_key: str
    #: argparse fields echoed in the ``--json`` document -> the keyword
    #: both functions take them as
    args: Mapping[str, str] = MappingProxyType({})
    #: constants echoed in the ``--json`` document
    json_extra: Mapping[str, object] = MappingProxyType({})


_TABLES = {
    2: _PaperItem(experiments.table2_data, experiments.table2_report, "rows",
                  {"model": "model_name"}),
    4: _PaperItem(experiments.table4_data, experiments.table4_report, "rows",
                  json_extra={"model": "22B"}),
    5: _PaperItem(experiments.table5_data, experiments.table5_report, "rows"),
    6: _PaperItem(experiments.table6_data, experiments.table6_report, "rows",
                  {"model": "model_name",
                   "context_parallel": "context_parallel",
                   "seq_length": "seq_length"}),
}
_FIGURES = {
    1: _PaperItem(experiments.figure1_data, experiments.figure1_report, "series"),
    7: _PaperItem(experiments.figure7_data, experiments.figure7_report, "series"),
    8: _PaperItem(experiments.figure8_data, experiments.figure8_report, "series"),
    9: _PaperItem(experiments.figure9_data, experiments.figure9_report, "profile"),
    10: _PaperItem(figure10, figure10, "timeline"),
}


def _paper_item(kind: str, menu: Mapping[int, _PaperItem], args) -> str:
    item = menu.get(args.number)
    if item is None:
        raise ConfigError(
            f"reproducible {kind}s: {', '.join(str(n) for n in menu)}")
    echoed = {field: getattr(args, field) for field in item.args}
    kwargs = {item.args[field]: value for field, value in echoed.items()}
    if not args.json:
        return item.report(**kwargs)
    return emit_json({kind: args.number, **echoed, **item.json_extra,
                      item.json_key: item.data(**kwargs)})


def cmd_table(args) -> str:
    return _paper_item("table", _TABLES, args)


def cmd_figure(args) -> str:
    return _paper_item("figure", _FIGURES, args)


def cmd_memory(args) -> str:
    cfg = _config(args.model)
    recompute = Recompute(args.recompute)
    rows = []
    data = []
    for sp in (False, True):
        per_layer = per_layer_activation_bytes(
            cfg.model, cfg.training.micro_batch_size,
            cfg.parallel.tensor_parallel, sp, recompute)
        total = total_activation_bytes(cfg, recompute=recompute, sequence_parallel=sp)
        rows.append(("yes" if sp else "no", fmt_bytes(per_layer), fmt_bytes(total)))
        data.append({"sequence_parallel": sp, "per_layer_bytes": per_layer,
                     "first_stage_total_bytes": total})
    static = weight_and_optimizer_bytes(cfg)
    if args.json:
        return emit_json({"model": args.model, "recompute": recompute,
                          "tensor_parallel": cfg.parallel.tensor_parallel,
                          "pipeline_parallel": cfg.parallel.pipeline_parallel,
                          "activations": data, "static_bytes": static})
    text = format_table(
        ["sequence parallel", "per layer", "first-stage total"],
        rows,
        title=(f"Activation memory, {args.model}, recompute={recompute.value}, "
               f"t={cfg.parallel.tensor_parallel}, p={cfg.parallel.pipeline_parallel}"),
    )
    text += f"\nweights + optimizer state per GPU: {fmt_bytes(static)}"
    return text


def cmd_flops(args) -> str:
    cfg = _config(args.model)
    batch = cfg.training.global_batch_size
    model_fl = model_flops_per_iteration(cfg.model, batch)
    rows = []
    data = []
    for rc in (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL):
        hw = hardware_flops_per_iteration(cfg.model, batch, rc)
        rows.append((rc.value, fmt_flops(hw), f"{hw / model_fl:.4f}"))
        data.append({"recompute": rc, "hardware_flops": hw,
                     "hardware_to_model": hw / model_fl})
    if args.json:
        return emit_json({
            "model": args.model, "global_batch_size": batch,
            "model_flops": model_fl,
            "eq9_ratio": hardware_to_model_ratio(cfg.model),
            "parameters": cfg.model.parameter_count(), "rows": data})
    text = format_table(
        ["recompute", "hardware FLOPs/iter", "hardware/model"],
        rows,
        title=(f"FLOPs, {args.model} (global batch {batch}); model FLOPs = "
               f"{fmt_flops(model_fl)}; Eq. 9 ratio = "
               f"{hardware_to_model_ratio(cfg.model):.4f}"),
    )
    text += f"\nparameters: {fmt_count(cfg.model.parameter_count())}"
    return text


def cmd_plan(args) -> str:
    cfg = _config(args.model)
    option = plan(cfg, device_memory_bytes=args.memory_gb * GIB)
    if args.json:
        return emit_json({"model": args.model, "memory_gb": args.memory_gb,
                          "option": option, "total_bytes": option.total_bytes})
    return (
        f"cheapest strategy that fits {args.memory_gb} GB on {args.model}:\n"
        f"  {option.description}\n"
        f"  activations: {fmt_bytes(option.activation_bytes)}  "
        f"weights+optimizer: {fmt_bytes(option.static_bytes)}  "
        f"total: {fmt_bytes(option.total_bytes)}\n"
        f"  estimated per-layer time overhead vs no-recompute: "
        f"{pct(option.overhead_fraction)}"
    )


def cmd_simulate(args) -> str:
    cfg = _config(args.model)
    result = iteration_time(
        cfg, sequence_parallel=not args.no_sequence_parallel,
        recompute=Recompute(args.recompute), data_parallel=args.data_parallel,
    )
    if args.json:
        return emit_json({"model": args.model, "result": result,
                          "mfu": result.mfu, "hfu": result.hfu})
    text = (
        f"{args.model}: iteration {result.iteration_time:.3f} s "
        f"(pipeline {result.pipeline_time:.3f} s + optimizer "
        f"{result.optimizer_time:.3f} s + DP all-reduce "
        f"{result.dp_allreduce_time:.3f} s)\n"
        f"  per layer: fwd {1e3*result.per_layer.forward:.2f} ms, "
        f"bwd {1e3*result.per_layer.backward_total:.2f} ms "
        f"(recompute {1e3*result.per_layer.recompute:.2f} ms)\n"
        f"  pipeline bubble: {pct(result.bubble_fraction)}   "
        f"MFU: {pct(result.mfu)}   HFU: {pct(result.hfu)}"
    )
    if args.breakdown:
        from .perf_model import KernelCostModel, layer_oplog
        cost = KernelCostModel()
        log = layer_oplog(cfg.model, cfg.training.micro_batch_size,
                          cfg.parallel.tensor_parallel,
                          sequence_parallel=not args.no_sequence_parallel,
                          recompute=Recompute(args.recompute))
        text += "\n  per-layer time attribution (ms):"
        for phase, kinds in cost.price_breakdown(log).items():
            parts = ", ".join(f"{k} {1e3*v:.2f}" for k, v in sorted(kinds.items()))
            text += f"\n    {phase:9s} {parts}"
    return text


def cmd_section5(args) -> str:
    if args.json:
        return emit_json({"section": 5, "rows": experiments.section5_data()})
    return experiments.section5_report()


def cmd_appendix_c(args) -> str:
    if args.json:
        return emit_json({"appendix": "C", "rows": experiments.appendix_c_data()})
    return experiments.appendix_c_report()


def cmd_sweep(args) -> str:
    from . import sweeps
    cfg = _config(args.model)
    m, b, t = cfg.model, cfg.training.micro_batch_size, cfg.parallel.tensor_parallel
    lengths = tuple(args.seq_lengths)
    if args.kind == "seq":
        rows = sweeps.sequence_length_sweep(m, b, t, seq_lengths=lengths)
    elif args.kind == "tp":
        rows = sweeps.tensor_parallel_sweep(m, b)
    elif args.kind == "fit":
        rows = sweeps.strategy_fit_sweep(cfg, seq_lengths=lengths,
                                         device_memory_bytes=args.memory_gb * GIB)
    else:
        rows = sweeps.recompute_overhead_sweep(m, b, t, seq_lengths=lengths)
    header = (f"# {args.kind} sweep on {args.model}; crossover 5as/h=34 at "
              f"s={sweeps.crossover_sequence_length(m)}")
    return header + "\n" + sweeps.to_csv(rows)


def _write_trace(tracer, path: str, extra_events=None) -> str:
    """Export ``tracer`` as a validated Perfetto trace; returns the
    artifact line every command prints for it."""
    num_events = export_trace(tracer, path, extra_events=extra_events)
    validate_trace_file(path)
    return (f"\n  {path}: {num_events} events (validated; open in "
            "https://ui.perfetto.dev)")


def _write_request_trace(tracker, path: str) -> str:
    partition = verify_partition(tracker)
    with open(path, "w") as fh:
        fh.write(tracker.to_json())
    return (f"\n  {path}: {len(tracker.traces())} request span graph(s), "
            f"partition exact={partition['exact']}")


def cmd_chaos(args) -> str:
    """Run a tiny training job under a seeded random fault plan and show
    the resilience report; with ``--verify``, also run fault-free at the
    same seed and check the final weights are bitwise identical."""
    import numpy as np

    from .resilience import FaultPlan

    def run(plan=None):
        return scenarios.dp_chaos_segment(
            args.steps, args.seed, dp=args.dp, fault_rate=args.fault_rate,
            checkpoint_interval=args.checkpoint_interval, plan=plan)

    trainer, result, plan_ = run()
    if args.json:
        return emit_json(result.report.to_json())
    text = (f"chaos run: seed {args.seed}, {args.steps} steps, dp={args.dp}, "
            f"fault rate {args.fault_rate}, {len(plan_)} fault(s) planned\n")
    text += result.report.summary()
    if args.verify:
        clean_trainer, clean, _ = run(FaultPlan())
        identical = clean.losses == result.losses and all(
            np.array_equal(np.asarray(p.shards[r]), np.asarray(q.shards[r]))
            for p, q in zip(clean_trainer.model.parameters(),
                            trainer.model.parameters())
            for r in range(p.world))
        if not identical:
            raise ReproError(
                "VERIFY FAILED: faulty run does not match the fault-free run")
        text += "\nverify: recovered weights bitwise-identical to fault-free run"
    return text


def cmd_trace(args) -> str:
    """Run a named config fully instrumented and write the merged
    Perfetto trace plus Prometheus/JSON metrics snapshots.

    The run exercises every event source: pipelined training (compute
    spans, collectives, recompute, activation-memory counters), a
    checkpoint save, a short fault-injected data-parallel segment
    (resilience instants + goodput metrics), and the analytic pipeline
    schedule rehomed into the same timeline.  All spans sit on the
    simulated clock, so two runs at the same seed write byte-identical
    artifacts.
    """
    from .pipeline_sim import TimelineCosts, chrome_trace_events, schedule_table
    from .training.serialization import save_training_state

    os.makedirs(args.output_dir, exist_ok=True)
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    ckpt_path = os.path.join(args.output_dir, "trace-checkpoint.npz")
    with trace_scope(tracer):
        run = scenarios.pipelined_training(args.config, args.steps,
                                           args.seed, tracer=tracer)
        save_training_state(run.model, run.optimizer, ckpt_path)
        # A short fault-injected data-parallel segment: resilience
        # instants land on the same timeline and the report's goodput
        # flows into the metrics snapshot via observe_resilience.
        _, result, _ = scenarios.dp_chaos_segment(
            2, args.seed, model_cfg=run.experiment.model)
        registry.observe_resilience(result.report)
    os.remove(ckpt_path)  # keep only the observability artifacts

    pp = run.experiment.parallel.pipeline_parallel
    pipeline_events = rehome_events(chrome_trace_events(
        schedule_table(pp, run.experiment.num_microbatches), TimelineCosts()))
    trace_path = os.path.join(args.output_dir, "trace.json")
    trace_note = _write_trace(tracer, trace_path,
                              extra_events=pipeline_events)
    prom_path = os.path.join(args.output_dir, "metrics.prom")
    with open(prom_path, "w") as fh:
        fh.write(registry.to_prometheus())
    json_path = os.path.join(args.output_dir, "metrics.json")
    with open(json_path, "w") as fh:
        fh.write(registry.to_json())
    return (
        f"traced {args.config} ({args.steps} step(s), seed {args.seed}): "
        f"{len(tracer.spans)} span(s), {len(tracer.instants)} instant(s), "
        f"simulated clock {tracer.clock_s:.6f} s, "
        f"goodput {result.report.goodput():.1%}" + trace_note + "\n"
        f"  {prom_path}: Prometheus text exposition\n"
        f"  {json_path}: canonical JSON snapshot"
    )


def cmd_serve(args) -> str:
    """Run the continuous-batching scheduler on a seeded open-loop
    workload against a real (serial or tensor-parallel) model and report
    throughput, token latency, preemption traffic and the KV accounting
    drift (always exactly zero).  ``--json`` emits the full canonical
    :class:`~repro.serving.ServeReport` — byte-identical at equal seeds.
    ``--request-trace`` additionally writes the per-request span graphs
    (queue-wait / prefill / decode / preempt) as canonical JSON.
    """
    tracer = Tracer()
    tracker = RequestTracker(tracer=tracer) if args.request_trace else None
    scheduler, specs, _ = scenarios.serving_scheduler(
        requests=args.requests, seed_value=args.seed, tp=args.tp,
        sequence_parallel=args.sequence_parallel, policy=args.policy,
        block_size=args.block_size, num_blocks=args.num_blocks,
        max_batch=args.max_batch, tracer=tracer, request_tracker=tracker)
    report = scheduler.run(specs)
    trace_note = ""
    if args.trace_out:
        trace_note = _write_trace(tracer, args.trace_out)
    if tracker is not None:
        trace_note += _write_request_trace(tracker, args.request_trace)
    if args.json:
        return emit_json(report.to_dict())
    return (
        f"served {report.num_requests} request(s), policy {report.policy}, "
        f"tp={args.tp}: {report.tokens_generated} token(s) in "
        f"{1e3 * report.elapsed_s:.2f} ms simulated "
        f"({report.tokens_per_s:.0f} tok/s)\n"
        f"  preemptions {report.preemptions}, resumes {report.resumes}, "
        f"peak KV occupancy {pct(report.peak_kv_occupancy)}, "
        f"KV drift {report.kv_drift_bytes:.0f} B, "
        f"KV fragmentation {pct(report.kv_fragmentation)}\n"
        f"  token latency p50 {1e3 * report.p50_token_latency_s:.3f} ms, "
        f"p95 {1e3 * report.p95_token_latency_s:.3f} ms" + trace_note
    )


def cmd_memprofile(args) -> str:
    """Profile one abstract transformer layer with the activation ledger
    and write the canonical artifacts: the per-tensor ledger with exact
    peak attribution and the save-vs-recompute frontier
    (``memprof-ledger.json``), a flamegraph-style byte tree keyed by
    module path (``memprof-flamegraph.json``), and a validated Perfetto
    trace with live-bytes counter tracks (``memprof-trace.json``).  The
    attribution is bitwise: entry bytes sum exactly to the tracker's
    ``peak_bytes`` per rank and reconcile term-by-term with the Section
    4 closed forms.
    """
    model_cfg = scenarios.memprof_model(args.config)
    recompute = Recompute(args.recompute)

    os.makedirs(args.output_dir, exist_ok=True)
    tracer = Tracer()
    prof, ledger = profile_layer(
        model_cfg, args.microbatch, args.tp, args.sequence_parallel,
        recompute, fused=args.fused, tracer=tracer)
    config_doc = {
        "config": args.config, "microbatch": args.microbatch,
        "tensor_parallel": args.tp,
        "sequence_parallel": args.sequence_parallel,
        "recompute": recompute.value, "fused": args.fused,
    }
    doc = ledger_document(prof, ledger, config=config_doc)
    doc["fragmentation"] = {"paged_kv": paged_kv_fragmentation(seed=args.seed)}
    if args.fused:
        doc["fragmentation"]["fusion_arena"] = arena_recycling_report()
    checks = check_peak_attribution(
        model_cfg, args.microbatch, args.tp, args.sequence_parallel,
        recompute, fused=args.fused)
    doc["attribution_checks"] = [
        {"rank": c.rank, "exact": c.exact, "peak_bytes": c.peak_bytes,
         "term_drift_total": c.term_drift_total} for c in checks]

    ledger_path = os.path.join(args.output_dir, "memprof-ledger.json")
    dump_json(doc, ledger_path)
    flame_path = os.path.join(args.output_dir, "memprof-flamegraph.json")
    dump_json({str(r): flamegraph(ledger, r) for r in ledger.ranks()},
              flame_path)
    trace_note = _write_trace(
        tracer, os.path.join(args.output_dir, "memprof-trace.json"),
        extra_events=counter_events(ledger))

    if args.json:
        return emit_json(doc)
    rank0 = doc["peak"]["0"]
    cats = frontier_by_category(doc["frontier"]["0"])
    top = sorted(
        ((c, agg) for c, agg in cats.items()
         if agg["bytes_per_recompute_s"] is not None),
        key=lambda kv: -kv[1]["bytes_per_recompute_s"])[:3]
    lines = [
        f"memprofiled {model_cfg.name} layer (b={args.microbatch}, "
        f"t={args.tp}, sp={args.sequence_parallel}, "
        f"recompute={recompute.value}, fused={args.fused}): "
        f"{len(ledger.entries)} ledger entries, "
        f"{len(ledger.timeline)} timeline events",
        f"  rank 0 peak {rank0['peak_bytes']} B, attribution exact="
        f"{all(c.exact for c in checks)} over {len(checks)} rank(s), "
        f"term drift {max(c.term_drift_total for c in checks):.1f} B",
        f"  softmax/dropout dominate frontier: "
        f"{selective_recompute_dominates(cats)}; top categories by "
        "bytes-per-recompute-second:",
    ]
    for cat, agg in top:
        lines.append(
            f"    {cat}: {agg['nbytes']} B / {agg['recompute_s']:.3e} s "
            f"= {agg['bytes_per_recompute_s']:.3e} B/s")
    frag = doc["fragmentation"]["paged_kv"]
    lines += [
        f"  paged-KV fragmentation over {frag['rounds']} round(s): "
        f"max {frag['max_fragmentation']:.1%}, "
        f"final {frag['final_fragmentation']:.1%}",
        f"  {ledger_path}: canonical ledger + frontier",
        f"  {flame_path}: flamegraph byte tree" + trace_note,
    ]
    return "\n".join(lines)


def _write_fleet_artifacts(args, tracer, recorder, tracker) -> str:
    """Write whichever of ``--trace-out`` / ``--postmortem`` /
    ``--request-trace`` a fleet command was given; returns their lines."""
    note = _write_trace(tracer, args.trace_out) if args.trace_out else ""
    if args.postmortem:
        with open(args.postmortem, "w") as fh:
            fh.write(recorder.dumps())
        note += (f"\n  {args.postmortem}: {len(recorder.postmortems)} "
                 f"postmortem(s) from {recorder.recorded} flight event(s)")
    if args.request_trace:
        note += _write_request_trace(tracker, args.request_trace)
    return note


def _fleet_kwargs(args) -> dict:
    """The ``chaos_fleet`` keywords ``fleet`` and ``monitor`` share."""
    return dict(
        replicas=args.replicas, requests=args.requests, seed_value=args.seed,
        tp=args.tp, sequence_parallel=args.sequence_parallel,
        block_size=args.block_size, num_blocks=args.num_blocks,
        max_batch=args.max_batch, fault_rate=args.fault_rate)


def cmd_fleet(args) -> str:
    """Run the chaos-serving fleet: a seeded open-loop workload routed
    across N replicas while a fault plan crashes, slows and drops
    dispatches under it.  ``--verify`` additionally runs the fault-free
    fleet at the same seed and requires every completed request's token
    stream to match exactly — the serving-side analogue of the trainer's
    bitwise-identical-weights check.  ``--json`` emits the canonical
    :class:`~repro.fleet.FleetReport` — byte-identical at equal seeds.
    ``--postmortem`` / ``--request-trace`` attach the flight recorder
    and request tracker (pure observers — the report is unchanged) and
    write their canonical-JSON artifacts.
    """
    kwargs = dict(_fleet_kwargs(args), policy=args.policy, tiers=args.tiers,
                  slo_ttft_s=args.slo_ttft_s)
    tracer = Tracer()
    recorder = FlightRecorder() if args.postmortem else None
    tracker = RequestTracker(tracer=tracer) if args.request_trace else None
    fleet, report = scenarios.chaos_fleet(
        **kwargs, tracer=tracer, recorder=recorder, request_tracker=tracker)
    verify_note = ""
    if args.verify:
        clean_fleet, _ = scenarios.chaos_fleet(**dict(kwargs, fault_rate=0.0))
        if fleet.tokens_by_request() != clean_fleet.tokens_by_request():
            raise ReproError(
                "FLEET VERIFY FAILED: token streams diverged from the "
                "fault-free run at the same seed")
        verify_note = ("\n  verify OK: token streams identical to the "
                       "fault-free fleet at the same seed")
    trace_note = _write_fleet_artifacts(args, tracer, recorder, tracker)
    if args.json:
        return emit_json(report.to_json())
    return report.summary() + verify_note + trace_note


def cmd_monitor(args) -> str:
    """Run the chaos fleet with the full request-telemetry stack —
    distributed request tracing, the flight recorder and the SLO
    burn-rate monitor feeding dispatch and shedding — then report the
    exactness gates: monitor detections scored against the injected
    fault plan (precision/recall), the zero-gap zero-overlap span
    partition invariant, and TTFT/TPOT quantiles recomputed from the
    span graphs alone reconciled bit-for-bit against the
    :class:`~repro.fleet.FleetReport` ledger.
    """
    (report, tracer, monitor, recorder, tracker, score, partition,
     reconciled) = scenarios.monitored_fleet(
        **_fleet_kwargs(args), slo_ttft_s=args.slo_ttft_s,
        slo_tpot_s=args.slo_tpot_s, flight_capacity=args.flight_capacity)
    snapshot = monitor.snapshot()

    notes = _write_fleet_artifacts(args, tracer, recorder, tracker)

    if args.json:
        return emit_json({
            "fleet": report.to_json(),
            "detection": score,
            "partition": partition,
            "reconciliation": reconciled,
            "monitor": snapshot,
            "flight_recorder": {
                "capacity": recorder.capacity,
                "recorded": recorder.recorded,
                "postmortems": len(recorder.postmortems),
            },
        })
    health = ", ".join(f"{rid}:{v:.2f}"
                       for rid, v in sorted(snapshot["health_scores"].items()))
    return (
        f"monitored fleet: {args.replicas} replica(s), "
        f"{report.requests} request(s), seed {args.seed}, "
        f"goodput {report.goodput():.1%} under {len(report.faults)} "
        f"fault(s)\n"
        f"  detections: {score['detections']} vs {score['injected']} "
        f"injected — precision {score['precision']:.2f}, "
        f"recall {score['recall']:.2f}\n"
        f"  span partition: max gap {partition['max_gap_s']:.1e} s, "
        f"max overlap {partition['max_overlap_s']:.1e} s, "
        f"exact={partition['exact']}\n"
        f"  ledger reconciliation over {reconciled['completed']} "
        f"completed: ttft={reconciled['ttft_match']} "
        f"tpot={reconciled['tpot_match']}\n"
        f"  burn rates: ttft {snapshot['ttft_burn_long']:.2f}, "
        f"tpot {snapshot['tpot_burn_long']:.2f} (long window); "
        f"health [{health}]\n"
        f"  flight recorder: {recorder.recorded} event(s), "
        f"{len(recorder.postmortems)} postmortem(s)" + notes
    )


def cmd_compile(args) -> str:
    """Capture one training step as a static plan and replay it.

    Builds a small concrete model (serial, or tensor-parallel with
    ``--tp``), runs one compiled :class:`~repro.training.Trainer` step —
    the capture step *is* a correct step — then replays the remaining
    ``--steps`` from the plan cache with no tape construction.  An eager
    twin runs the same batches under the same per-step RNG seeds, so the
    reported replay-vs-eager loss drift is exactly zero.  Prints the
    captured plan's statistics: op schedule breakdown, preplanned arena
    bytes, static collective schedule, and plan-cache hit/miss counts.
    ``--json`` emits them through the canonical serializer;
    ``--trace-out`` writes a validated Perfetto trace of one replayed
    step (compiled-mode spans and kernel events).
    """
    recompute = Recompute(args.recompute)
    run = scenarios.compiled_eager_twins(
        layers=args.layers, tp=args.tp,
        sequence_parallel=args.sequence_parallel, recompute=recompute,
        microbatches=args.microbatches, batch=args.batch, steps=args.steps,
        seed_value=args.seed)
    model_cfg, compiled = run.model_cfg, run.compiled
    plan = compiled.plans.plans()[0]
    cache = compiled.plans.stats()

    trace_note = ""
    if args.trace_out:
        from .tensor import seed
        tracer = Tracer()
        ids, targets = run.batches[-1]
        with trace_scope(tracer):
            seed(args.seed + 100 + len(run.batches))
            compiled.train_step(ids, targets,
                                num_microbatches=args.microbatches)
        trace_note = _write_trace(tracer, args.trace_out)

    stats = plan.stats()
    if args.json:
        return emit_json({
            "config": {"name": model_cfg.name,
                       "num_layers": model_cfg.num_layers,
                       "hidden_size": model_cfg.hidden_size,
                       "tensor_parallel": args.tp,
                       "sequence_parallel": bool(args.sequence_parallel),
                       "recompute": recompute.value,
                       "microbatches": args.microbatches,
                       "batch": args.batch},
            "plan": stats,
            "collectives": [
                {"op_index": index, "kind": kind, "fn": name}
                for index, kind, name in plan.collective_schedule()],
            "cache": cache,
            "steps": args.steps,
            "losses": run.losses,
            "replay_vs_eager_loss_drift": run.drift,
        })
    counts = ", ".join(
        f"{stats[k]} {k.replace('_ops', '')}"
        for k in ("forward_ops", "backward_ops", "release_ops", "seed_ops",
                  "external_ops"))
    return (
        f"compiled {model_cfg.name} (layers={model_cfg.num_layers}, "
        f"tp={args.tp}{', sp' if args.sequence_parallel else ''}, "
        f"recompute={recompute.value}, microbatches={args.microbatches}): "
        f"plan {plan.label!r}\n"
        f"  {stats['ops']} ops ({counts}), "
        f"{stats['collectives']} collective(s), {stats['inputs']} input(s)\n"
        f"  arena {fmt_bytes(stats['arena_bytes'])} across "
        f"{stats['planned_buffers']} planned buffer(s)\n"
        f"  cache: {cache['plans']} plan(s), {cache['hits']} hit(s), "
        f"{cache['misses']} miss(es); {stats['replays']} replay(s)\n"
        f"  {args.steps} step(s), final loss {run.losses[-1]:.6f}, "
        f"replay-vs-eager loss drift {run.drift:g} (exact)" + trace_note
    )


def cmd_longctx(args) -> str:
    """Run a traced context-parallel (Ulysses or ring) training step and
    reconcile it end to end: forward loss bitwise against the serial
    model, traced comm bytes exactly against the closed-form volumes,
    recompute-phase collectives attributed to the overlapped bucket, and
    the analytic overlap/chooser summaries alongside.
    """
    from .pipeline_sim import longctx_overlap_report

    p = args.context_parallel
    rc = Recompute(args.recompute)
    run = scenarios.context_parallel_step(
        layout=args.layout, context_parallel=p, recompute=rc,
        seq_length=args.seq_length, seed_value=args.seed)
    model_cfg, b = run.model_cfg, run.batch
    att = attribute(from_tracer(run.tracer))
    overlap = longctx_overlap_report(model_cfg, b, p, args.layout, rc)
    choice = choose_context_layout(model_cfg, b, p)

    trace_note = ""
    if args.trace_out:
        trace_note = _write_trace(run.tracer, args.trace_out)

    doc = {
        "layout": args.layout,
        "context_parallel": p,
        "recompute": rc.value,
        "loss": run.loss,
        "serial_loss": run.serial_loss,
        "loss_drift": abs(run.loss - run.serial_loss),
        "traced_comm_bytes": run.traced_bytes,
        "expected_comm_bytes": run.expected_bytes,
        "volume_exact": run.traced_bytes == run.expected_bytes,
        "attribution": {
            "exposed_comm": att.totals["exposed_comm"],
            "overlapped_comm": att.totals["overlapped_comm"],
            "coverage_error": att.coverage_error,
        },
        "overlap": {
            "exposed_reduction": overlap.exposed_reduction,
            "speedup": overlap.speedup,
        },
        "chooser": {
            "layout": choice.layout,
            "seconds_per_layer": choice.seconds_per_layer,
        },
    }
    if args.json:
        return emit_json(doc)
    return (
        f"longctx {args.layout} p={p} recompute={rc.value} "
        f"(s={model_cfg.seq_length}, b={b}):\n"
        f"  loss {run.loss:.6f}, serial drift {doc['loss_drift']:g} "
        f"(bitwise)\n"
        f"  traced comm {fmt_bytes(run.traced_bytes)} vs closed form "
        f"{fmt_bytes(run.expected_bytes)} "
        f"({'exact' if doc['volume_exact'] else 'MISMATCH'})\n"
        f"  exposed comm {att.totals['exposed_comm']:.6f} s, overlapped "
        f"{att.totals['overlapped_comm']:.6f} s "
        f"(coverage error {att.coverage_error:g})\n"
        f"  analytic overlap: exposed-comm reduction "
        f"{overlap.exposed_reduction:.2f}x, step speedup "
        f"{overlap.speedup:.3f}x\n"
        f"  chooser pick at this shape: {choice.layout}" + trace_note
    )


def cmd_bench(args) -> str:
    """Run the benchmark presets, write canonical ``BENCH_<preset>.json``
    documents, and (with ``--check``) gate against committed baselines.

    The documents are byte-identical across runs at the same seed, so a
    ``--check`` failure means a real behavior change: slower attribution
    mix, drifted MFU, different peak memory, lost goodput, or a
    non-deterministic trace.  Regressions are listed per metric with
    their deltas and the command exits non-zero.
    """
    docs = {}
    lines = []
    # dict.fromkeys: a repeated --preset runs (and is written) once
    for preset in dict.fromkeys(args.presets or PRESET_NAMES):
        doc = run_preset(preset, seed_value=args.seed)
        docs[preset] = doc
        path = write_bench(doc, args.output_dir)
        _, summary = PRESETS[preset]
        headline = summary(doc)
        lines.append(f"wrote {path} (trace {doc['trace_hash'][:12]}"
                     + (f", {headline}" if headline else "") + ")")

    if args.check:
        failures = check_against_baselines(docs, args.baseline_dir)
        if failures:
            detail = []
            for preset in sorted(failures):
                detail.append(f"{preset}:")
                detail.extend(f"  {r}" for r in failures[preset])
            raise ReproError(
                "bench regression gate FAILED\n" + "\n".join(detail))
        lines.append(f"bench gate OK: {len(docs)} preset(s) within "
                     f"tolerance of {args.baseline_dir}")
    return "\n".join(lines)


def cmd_analyze(args) -> str:
    """Offline critical-path attribution of an exported ``trace.json``."""
    data = load_trace(args.trace)
    att = attribute(data)
    if args.json:
        return emit_json({
            "trace": args.trace,
            "wall_time_s": att.wall,
            "totals": att.totals,
            "coverage_error": att.coverage_error,
            "per_rank": {str(r.rank): r.buckets for r in att.ranks},
        })
    rows = []
    for r in att.ranks:
        rows.append([str(r.rank)] + [f"{1e3 * r.buckets[b]:.3f}"
                                     for b in sorted(att.totals)])
    text = format_table(
        ["rank"] + sorted(att.totals), rows,
        title=(f"Time attribution of {args.trace} "
               f"(wall {1e3 * att.wall:.3f} ms per rank)"),
    )
    busiest = {b: v for b, v in att.totals.items() if v > 0}
    parts = ", ".join(f"{b} {1e3 * v:.3f} ms"
                      for b, v in sorted(busiest.items(),
                                         key=lambda kv: -kv[1]))
    text += f"\ntotals across ranks: {parts}"
    text += f"\ncoverage error: {att.coverage_error:.2e} (buckets vs wall)"
    return text


def cmd_report(args) -> str:
    from .reporting.report import full_report
    text = full_report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        return f"wrote {len(text.splitlines())} lines to {args.output}"
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Reducing Activation Recomputation in "
                     "Large Transformer Models' (MLSys 2023)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(p):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable canonical JSON")

    p = sub.add_parser("table",
                       help="regenerate a paper table (2, 4, 5 or 6)")
    p.add_argument("number", type=int)
    p.add_argument("--model", default="22B", choices=PAPER_CONFIG_NAMES)
    p.add_argument("--context-parallel", type=int, default=8,
                   help="context-parallel group size (table 6)")
    p.add_argument("--seq-length", type=int, default=None,
                   help="override sequence length (table 6)")
    add_json_flag(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure", help="regenerate a paper figure (1, 7, 8, 9 or 10)")
    p.add_argument("number", type=int)
    add_json_flag(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("memory-report", help="activation + weight memory for a config")
    p.add_argument("--model", default="530B", choices=PAPER_CONFIG_NAMES)
    p.add_argument("--recompute", default="selective",
                   choices=[r.value for r in Recompute])
    add_json_flag(p)
    p.set_defaults(fn=cmd_memory)

    p = sub.add_parser("flops-report", help="model vs hardware FLOPs (Appendix A)")
    p.add_argument("--model", default="175B", choices=PAPER_CONFIG_NAMES)
    add_json_flag(p)
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("plan", help="cheapest recompute strategy that fits memory")
    p.add_argument("--model", default="530B", choices=PAPER_CONFIG_NAMES)
    p.add_argument("--memory-gb", type=float, default=80.0)
    add_json_flag(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("simulate-pipeline", help="end-to-end iteration simulation")
    p.add_argument("--model", default="175B", choices=PAPER_CONFIG_NAMES)
    p.add_argument("--recompute", default="selective",
                   choices=[r.value for r in Recompute])
    p.add_argument("--no-sequence-parallel", action="store_true")
    p.add_argument("--data-parallel", type=int, default=1)
    p.add_argument("--breakdown", action="store_true",
                   help="attribute per-layer time to GEMM/elementwise/comm")
    add_json_flag(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("section5", help="Section 5 selective-recompute claims")
    add_json_flag(p)
    p.set_defaults(fn=cmd_section5)

    p = sub.add_parser("appendix-c", help="microbatch-level recomputation MFU")
    add_json_flag(p)
    p.set_defaults(fn=cmd_appendix_c)

    p = sub.add_parser("sweep", help="parameter sweeps (CSV): seq, tp, fit, overhead")
    p.add_argument("kind", choices=["seq", "tp", "fit", "overhead"])
    p.add_argument("--model", default="175B", choices=PAPER_CONFIG_NAMES)
    p.add_argument("--seq-lengths", type=int, nargs="+",
                   default=[1024, 2048, 4096, 8192, 16384])
    p.add_argument("--memory-gb", type=float, default=80.0)
    p.set_defaults(fn=cmd_sweep)

    d = scenarios.defaults(scenarios.dp_chaos_segment)
    p = sub.add_parser("chaos", help="fault-injection run with recovery report")
    p.add_argument("--steps", type=int, default=d["steps"])
    p.add_argument("--dp", type=int, default=d["dp"],
                   help="data-parallel replicas")
    p.add_argument("--fault-rate", type=float, default=d["fault_rate"],
                   help="per-step fault probability")
    p.add_argument("--seed", type=int, default=d["seed_value"],
                   help="fault-plan + data seed")
    p.add_argument("--checkpoint-interval", type=int,
                   default=d["checkpoint_interval"])
    p.add_argument("--json", action="store_true",
                   help="emit the resilience report as JSON")
    p.add_argument("--verify", action="store_true",
                   help="also run fault-free and require bitwise-equal weights")
    p.set_defaults(fn=cmd_chaos)

    d = scenarios.defaults(scenarios.pipelined_training)
    p = sub.add_parser(
        "trace", help="instrumented run: merged Perfetto trace + metrics")
    p.add_argument("--config", default=d["config"],
                   choices=list(scenarios.TRACE_PRESETS))
    p.add_argument("--steps", type=int, default=d["steps"])
    p.add_argument("--seed", type=int, default=d["seed_value"])
    p.add_argument("--output-dir", default="trace-out")
    p.set_defaults(fn=cmd_trace)

    def add_engine_flags(p, scenario):
        """Workload + decode-engine flags of serve/fleet/monitor; the
        defaults are the scenario's own, i.e. the bench preset's."""
        d = scenarios.defaults(scenario)
        fleet = "replicas" in d
        each = ", per replica" if fleet else ""
        if fleet:
            p.add_argument("--replicas", type=int, default=d["replicas"],
                           help="serving replicas in the fleet")
        p.add_argument("--requests", type=int, default=d["requests"],
                       help="open-loop workload size")
        p.add_argument("--seed", type=int, default=d["seed_value"],
                       help="workload + sampling"
                            + (" + fault-plan" if fleet else "") + " seed")
        p.add_argument("--tp", type=int, default=d["tp"],
                       help="tensor-parallel size"
                            + (" inside each replica" if fleet else ""))
        p.add_argument("--sequence-parallel", action="store_true",
                       help="serve a sequence-parallel trained layout "
                            "(tp > 1)")
        p.add_argument("--block-size", type=int, default=d["block_size"],
                       help="token slots per KV block")
        p.add_argument("--num-blocks", type=int, default=d["num_blocks"],
                       help="KV pool size in blocks" + each)
        p.add_argument("--max-batch", type=int, default=d["max_batch"],
                       help="decode batch width cap" + each)
        if fleet:
            p.add_argument("--fault-rate", type=float,
                           default=d["fault_rate"],
                           help="0 = clean run; 1 = the default chaos plan "
                                "(crash + straggler + dispatch loss, needs 3 "
                                "replicas); in between = seeded random "
                                "per-round fault probability")

    def add_policy_flag(p, scenario):
        p.add_argument("--policy", choices=list(POLICIES),
                       default=scenarios.defaults(scenario)["policy"],
                       help="what preemption does with the victim's KV state")

    def add_artifact_flags(p, postmortem):
        p.add_argument("--trace-out", default=None,
                       help="also write a validated Perfetto trace here")
        if postmortem:
            p.add_argument("--postmortem", default=None, metavar="PATH",
                           help="write the flight recorder's postmortem "
                                "dumps (canonical JSON) here")
        p.add_argument("--request-trace", default=None, metavar="PATH",
                       help="write per-request span graphs (canonical JSON) "
                            "here")

    p = sub.add_parser(
        "serve", help="continuous-batching serving run on the paged KV "
                      "cache (swap/recompute preemption)")
    add_engine_flags(p, scenarios.serving_scheduler)
    add_policy_flag(p, scenarios.serving_scheduler)
    add_artifact_flags(p, postmortem=False)
    add_json_flag(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fleet", help="chaos-serving fleet: fault-tolerant multi-replica "
                      "routing with mid-stream recovery")
    add_engine_flags(p, scenarios.chaos_fleet)
    add_policy_flag(p, scenarios.chaos_fleet)
    d = scenarios.defaults(scenarios.chaos_fleet)
    p.add_argument("--tiers", type=int, default=d["tiers"],
                   help="priority tiers for SLO-aware shedding")
    p.add_argument("--slo-ttft-s", type=float, default=d["slo_ttft_s"],
                   help="TTFT SLO in seconds; enables load shedding of "
                        "the lowest tier when saturated")
    p.add_argument("--verify", action="store_true",
                   help="also run fault-free and require identical "
                        "per-request token streams")
    add_artifact_flags(p, postmortem=True)
    add_json_flag(p)
    p.set_defaults(fn=cmd_fleet)

    d = scenarios.defaults(scenarios.monitored_fleet)
    p = sub.add_parser(
        "monitor", help="fleet run with request tracing, flight recorder "
                        "and SLO burn-rate monitor; exact detection gates")
    add_engine_flags(p, scenarios.chaos_fleet)
    p.add_argument("--slo-ttft-s", type=float, default=d["slo_ttft_s"],
                   help="TTFT SLO budget for the burn-rate windows")
    p.add_argument("--slo-tpot-s", type=float, default=d["slo_tpot_s"],
                   help="TPOT SLO budget for the burn-rate windows")
    p.add_argument("--flight-capacity", type=int,
                   default=d["flight_capacity"],
                   help="flight-recorder ring size in events")
    add_artifact_flags(p, postmortem=True)
    add_json_flag(p)
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser(
        "memprofile",
        help="activation ledger: per-tensor peak attribution, "
             "save-vs-recompute frontier, memory counter tracks")
    p.add_argument("--config", default="22B",
                   choices=["tiny", "small", "22B", "175B", "530B", "1T"],
                   help="paper config or trace preset to profile one "
                        "layer of (default: 22B)")
    p.add_argument("--microbatch", type=int, default=1)
    p.add_argument("--tp", type=int, default=1, help="tensor parallel size")
    p.add_argument("--sequence-parallel", action="store_true")
    p.add_argument("--recompute", default="none",
                   choices=["none", "selective", "full"])
    p.add_argument("--fused", action="store_true",
                   help="profile the fused-kernel layer variant")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the paged-KV fragmentation workload")
    p.add_argument("--output-dir", default="memprof-out")
    add_json_flag(p)
    p.set_defaults(fn=cmd_memprofile)

    recompute_choices = [r.value for r in (Recompute.NONE, Recompute.SELECTIVE,
                                           Recompute.FULL)]

    d = scenarios.defaults(scenarios.compiled_eager_twins)
    p = sub.add_parser(
        "compile", help="capture one training step as a static plan, "
                        "replay it, report plan stats and zero loss drift")
    p.add_argument("--layers", type=int, default=d["layers"],
                   help="transformer layers in the toy model")
    p.add_argument("--tp", type=int, default=d["tp"],
                   help="tensor-parallel size")
    p.add_argument("--sequence-parallel", action="store_true",
                   help="sequence-parallel layout (tp > 1)")
    p.add_argument("--recompute", default=d["recompute"].value,
                   choices=recompute_choices,
                   help="activation recompute strategy captured in the plan")
    p.add_argument("--microbatches", type=int, default=d["microbatches"],
                   help="gradient-accumulation microbatches per step")
    p.add_argument("--batch", type=int, default=d["batch"],
                   help="global batch size")
    p.add_argument("--steps", type=int, default=d["steps"],
                   help="training steps (1 capture + replays)")
    p.add_argument("--seed", type=int, default=d["seed_value"])
    p.add_argument("--trace-out", default=None,
                   help="write a validated Perfetto trace of one replayed "
                        "step here")
    add_json_flag(p)
    p.set_defaults(fn=cmd_compile)

    d = scenarios.defaults(scenarios.context_parallel_step)
    p = sub.add_parser(
        "longctx", help="traced context-parallel run (Ulysses/ring) with "
                        "exact volume + overlap reconciliation")
    p.add_argument("--layout", default=d["layout"],
                   choices=["ulysses", "ring"],
                   help="context-parallel attention layout")
    p.add_argument("--context-parallel", type=int,
                   default=d["context_parallel"],
                   help="context-parallel group size")
    p.add_argument("--recompute", default=d["recompute"].value,
                   choices=recompute_choices,
                   help="activation recompute strategy")
    p.add_argument("--seq-length", type=int, default=d["seq_length"],
                   help="sequence length (divisible by the group size)")
    p.add_argument("--seed", type=int, default=d["seed_value"])
    p.add_argument("--trace-out", default=None,
                   help="write a validated Perfetto trace here")
    add_json_flag(p)
    p.set_defaults(fn=cmd_longctx)

    p = sub.add_parser(
        "bench", help="benchmark presets -> BENCH_*.json; --check gates "
                      "against committed baselines")
    p.add_argument("--preset", dest="presets", action="append",
                   choices=list(PRESET_NAMES), default=None,
                   help="preset to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--output-dir", default=".",
                   help="where BENCH_<preset>.json files are written")
    p.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                   help="committed baselines for --check")
    p.add_argument("--check", action="store_true",
                   help="diff fresh documents against the baselines; "
                        "exit non-zero on any out-of-tolerance metric")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "analyze", help="offline time attribution of an exported trace.json")
    p.add_argument("trace", help="path to a trace.json written by `repro trace`")
    add_json_flag(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("report", help="regenerate every table/figure in one document")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(args.fn(args))
    except ReproError as exc:
        # an invalid configuration is a usage error, not a crash
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
