"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures (the menu is
:data:`repro.experiments.PAPER_MENU`), report memory/FLOPs for a
configuration, run the recomputation planner, simulate a pipeline
schedule, or run a concrete-run scenario (:mod:`repro.scenarios`).  Run
``python -m repro --help`` for the full list.

The parser is one table: ``_COMMANDS`` has a row per sub-command naming
its flags, each stated once in ``_FLAGS``.  A scenario's keywords are
its command's flags (``_kwargs``), so the argparse defaults are the
scenario's own.  A command with ``--json`` returns ``(doc, text)`` and
:func:`main` prints one of them; for a concrete-run command that pair is
its scenario's report value, ``(report.to_json(), report.summary())``,
plus the lines of the artifacts the command wrote.
"""

from __future__ import annotations

import argparse
import os
import sys
from enum import Enum
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
from .longctx.layout import LAYOUTS
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
    attribute,
    counter_events,
    dump_json,
    dumps_json,
    export_trace,
    flamegraph,
    load_trace,
    schedule_events,
    trace_scope,
    validate_trace_file,
    verify_partition,
)
from .observability.regress import (
    DEFAULT_BASELINE_DIR,
    PRESET_NAMES,
    PRESETS,
    check_against_baselines,
    run_preset,
    write_bench,
)
from .perf_model import iteration_time
from .planner import plan
from .serving import POLICIES
from .reporting import format_table, pct
from .units import GIB, fmt_bytes, fmt_count, fmt_flops


def emit_json(payload) -> str:
    """Canonical ``--json`` output: every subcommand funnels through the
    shared serializer (sorted keys, fixed separators) so machine-readable
    output is deterministic and uniform across commands."""
    return dumps_json(payload).rstrip("\n")


def _paper_item(kind: str, number, args):
    """One entry of :data:`repro.experiments.PAPER_MENU`."""
    menu = {item.number: item for item in experiments.PAPER_MENU
            if item.kind == kind}
    item = menu.get(number)
    if item is None:
        raise ConfigError(
            f"reproducible {kind}s: {', '.join(str(n) for n in menu)}")
    echoed = {field: getattr(args, field) for field in item.args}
    kwargs = {item.args[field]: value for field, value in echoed.items()}
    return ({kind: number, **echoed, **item.json_extra,
             item.json_key: item.data(**kwargs)}, item.report(**kwargs))


def cmd_table(args):
    return _paper_item("table", args.number, args)


def cmd_figure(args):
    return _paper_item("figure", args.number, args)


def cmd_section5(args):
    return _paper_item("section", 5, args)


def cmd_appendix_c(args):
    return _paper_item("appendix", "C", args)


def cmd_memory(args):
    cfg = PAPER_CONFIGS[args.model]
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
    text = format_table(
        ["sequence parallel", "per layer", "first-stage total"],
        rows,
        title=(f"Activation memory, {args.model}, recompute={recompute.value}, "
               f"t={cfg.parallel.tensor_parallel}, p={cfg.parallel.pipeline_parallel}"),
    )
    return ({"model": args.model, "recompute": recompute,
             "tensor_parallel": cfg.parallel.tensor_parallel,
             "pipeline_parallel": cfg.parallel.pipeline_parallel,
             "activations": data, "static_bytes": static},
            text + f"\nweights + optimizer state per GPU: {fmt_bytes(static)}")


def cmd_flops(args):
    cfg = PAPER_CONFIGS[args.model]
    batch = cfg.training.global_batch_size
    model_fl = model_flops_per_iteration(cfg.model, batch)
    rows = []
    data = []
    for rc in (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL):
        hw = hardware_flops_per_iteration(cfg.model, batch, rc)
        rows.append((rc.value, fmt_flops(hw), f"{hw / model_fl:.4f}"))
        data.append({"recompute": rc, "hardware_flops": hw,
                     "hardware_to_model": hw / model_fl})
    ratio = hardware_to_model_ratio(cfg.model)
    text = format_table(
        ["recompute", "hardware FLOPs/iter", "hardware/model"],
        rows,
        title=(f"FLOPs, {args.model} (global batch {batch}); model FLOPs = "
               f"{fmt_flops(model_fl)}; Eq. 9 ratio = {ratio:.4f}"),
    )
    return ({"model": args.model, "global_batch_size": batch,
             "model_flops": model_fl, "eq9_ratio": ratio,
             "parameters": cfg.model.parameter_count(), "rows": data},
            text + f"\nparameters: {fmt_count(cfg.model.parameter_count())}")


def cmd_plan(args):
    option = plan(PAPER_CONFIGS[args.model],
                  device_memory_bytes=args.memory_gb * GIB)
    return ({"model": args.model, "memory_gb": args.memory_gb,
             "option": option, "total_bytes": option.total_bytes},
            f"cheapest strategy that fits {args.memory_gb} GB on {args.model}:\n"
            f"  {option.description}\n"
            f"  activations: {fmt_bytes(option.activation_bytes)}  "
            f"weights+optimizer: {fmt_bytes(option.static_bytes)}  "
            f"total: {fmt_bytes(option.total_bytes)}\n"
            f"  estimated per-layer time overhead vs no-recompute: "
            f"{pct(option.overhead_fraction)}")


def cmd_simulate(args):
    cfg = PAPER_CONFIGS[args.model]
    sp, recompute = not args.no_sequence_parallel, Recompute(args.recompute)
    result = iteration_time(cfg, sequence_parallel=sp, recompute=recompute,
                            data_parallel=args.data_parallel)
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
        log = layer_oplog(cfg.model, cfg.training.micro_batch_size,
                          cfg.parallel.tensor_parallel,
                          sequence_parallel=sp, recompute=recompute)
        text += "\n  per-layer time attribution (ms):"
        for phase, kinds in KernelCostModel().price_breakdown(log).items():
            parts = ", ".join(f"{k} {1e3*v:.2f}" for k, v in sorted(kinds.items()))
            text += f"\n    {phase:9s} {parts}"
    return ({"model": args.model, "result": result,
             "mfu": result.mfu, "hfu": result.hfu}, text)


def cmd_sweep(args) -> str:
    from . import sweeps
    cfg = PAPER_CONFIGS[args.model]
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


def _write_artifacts(args, tracer, recorder=None, tracker=None) -> str:
    """Write whichever of ``--trace-out`` / ``--postmortem`` /
    ``--request-trace`` a command was given; returns their lines."""
    options = vars(args)
    note = ""
    if options.get("trace_out"):
        note = _write_trace(tracer, args.trace_out)
    if options.get("postmortem"):
        with open(args.postmortem, "w") as fh:
            fh.write(recorder.dumps())
        note += (f"\n  {args.postmortem}: {len(recorder.postmortems)} "
                 f"postmortem(s) from {recorder.recorded} flight event(s)")
    if options.get("request_trace"):
        partition = verify_partition(tracker)
        with open(args.request_trace, "w") as fh:
            fh.write(tracker.to_json())
        note += (f"\n  {args.request_trace}: {len(tracker.traces())} request "
                 f"span graph(s), partition exact={partition['exact']}")
    return note


def _flag(keyword: str) -> str:
    """The flag a scenario keyword is (``seed_value`` is ``--seed``)."""
    return "seed" if keyword == "seed_value" else keyword


def _kwargs(args, *scenario_fns) -> dict:
    """The keywords of ``scenario_fns`` that are flags of this command,
    read off ``args`` (an enum default converts the flag's string)."""
    kwargs = {}
    for fn in scenario_fns:
        for keyword, default in scenarios.defaults(fn).items():
            if _flag(keyword) in vars(args):
                value = getattr(args, _flag(keyword))
                kwargs[keyword] = (type(default)(value)
                                   if isinstance(default, Enum) else value)
    return kwargs


def cmd_chaos(args):
    kwargs = _kwargs(args, scenarios.dp_chaos_segment)
    trainer, result, plan = scenarios.dp_chaos_segment(**kwargs)
    notes = ""
    if args.verify:
        if not scenarios.recovered_as_fault_free(trainer, result, **kwargs):
            raise ReproError(
                "VERIFY FAILED: faulty run does not match the fault-free run")
        notes = ("\nverify: recovered weights bitwise-identical to "
                 "fault-free run")
    return result.report.to_json(), (
        f"chaos run: seed {args.seed}, {args.steps} steps, dp={args.dp}, "
        f"fault rate {args.fault_rate}, {len(plan)} fault(s) planned\n"
        + result.report.summary() + notes)


def cmd_trace(args) -> str:
    """Run a named config fully instrumented and write the merged
    Perfetto trace plus Prometheus/JSON metrics snapshots.

    The run exercises every event source: pipelined training (compute
    spans, collectives, recompute, activation-memory counters), a
    checkpoint save, a short fault-injected data-parallel segment
    (resilience instants + goodput metrics), and the analytic pipeline
    schedule on the same timeline.  All spans sit on the
    simulated clock, so two runs at the same seed write byte-identical
    artifacts.
    """
    from .pipeline_sim import TimelineCosts, schedule_table
    from .training.serialization import save_training_state

    os.makedirs(args.output_dir, exist_ok=True)
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    ckpt_path = os.path.join(args.output_dir, "trace-checkpoint.npz")
    with trace_scope(tracer):
        run = scenarios.pipelined_training(
            **_kwargs(args, scenarios.pipelined_training), tracer=tracer)
        save_training_state(run.model, run.optimizer, ckpt_path)
        # A short fault-injected data-parallel segment: resilience
        # instants land on the same timeline and the report's goodput
        # flows into the metrics snapshot via observe_resilience.
        _, result, _ = scenarios.dp_chaos_segment(
            2, args.seed, model_cfg=run.experiment.model)
        registry.observe_resilience(result.report)
    os.remove(ckpt_path)  # keep only the observability artifacts

    pp = run.experiment.parallel.pipeline_parallel
    pipeline_events = schedule_events(
        schedule_table(pp, run.experiment.num_microbatches), TimelineCosts())
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


def cmd_serve(args):
    tracer = Tracer()
    tracker = RequestTracker(tracer=tracer) if args.request_trace else None
    scheduler, specs, _ = scenarios.serving_scheduler(
        **_kwargs(args, scenarios.serving_scheduler), tracer=tracer,
        request_tracker=tracker)
    report = scheduler.run(specs)
    return report.to_json(), (report.summary(args.tp)
                              + _write_artifacts(args, tracer, None, tracker))


def cmd_memprofile(args):
    report = scenarios.profiled_layer(
        **_kwargs(args, scenarios.profiled_layer))
    doc = report.to_json()
    os.makedirs(args.output_dir, exist_ok=True)
    ledger_path = os.path.join(args.output_dir, "memprof-ledger.json")
    dump_json(doc, ledger_path)
    flame_path = os.path.join(args.output_dir, "memprof-flamegraph.json")
    dump_json({str(r): flamegraph(report.ledger, r)
               for r in report.ledger.ranks()}, flame_path)
    trace_note = _write_trace(
        report.tracer, os.path.join(args.output_dir, "memprof-trace.json"),
        extra_events=counter_events(report.ledger))
    return doc, (report.summary() +
                 f"\n  {ledger_path}: canonical ledger + frontier"
                 f"\n  {flame_path}: flamegraph byte tree" + trace_note)


def cmd_fleet(args):
    kwargs = _kwargs(args, scenarios.chaos_fleet)
    tracer = Tracer()
    recorder = FlightRecorder() if args.postmortem else None
    tracker = RequestTracker(tracer=tracer) if args.request_trace else None
    report = scenarios.chaos_fleet(**kwargs, tracer=tracer, recorder=recorder,
                                   request_tracker=tracker)
    notes = ""
    if args.verify:
        if not scenarios.faulted_vs_clean(
                report, **kwargs)["tokens_identical_to_clean"]:
            raise ReproError(
                "FLEET VERIFY FAILED: token streams diverged from the "
                "fault-free run at the same seed")
        notes = ("\n  verify OK: token streams identical to the "
                 "fault-free fleet at the same seed")
    notes += _write_artifacts(args, tracer, recorder, tracker)
    return report.to_json(), report.summary() + notes


def cmd_monitor(args):
    report = scenarios.monitored_fleet(**_kwargs(
        args, scenarios.chaos_fleet, scenarios.monitored_fleet))
    return report.to_json(), report.summary() + _write_artifacts(
        args, report.tracer, report.recorder, report.tracker)


def cmd_compile(args):
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
        **_kwargs(args, scenarios.compiled_eager_twins))
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
    doc = {
        "config": {"name": model_cfg.name,
                   "num_layers": model_cfg.num_layers,
                   "hidden_size": model_cfg.hidden_size,
                   "tensor_parallel": args.tp,
                   "sequence_parallel": bool(args.sequence_parallel),
                   "recompute": recompute.value,
                   "microbatches": args.microbatches, "batch": args.batch},
        "plan": stats,
        "collectives": [{"op_index": index, "kind": kind, "fn": name}
                        for index, kind, name in plan.collective_schedule()],
        "cache": cache,
        "steps": args.steps,
        "losses": run.losses,
        "replay_vs_eager_loss_drift": run.drift,
    }
    counts = ", ".join(
        f"{stats[k]} {k.replace('_ops', '')}"
        for k in ("forward_ops", "backward_ops", "release_ops", "seed_ops",
                  "external_ops"))
    return doc, (
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


def cmd_longctx(args):
    report = scenarios.context_parallel_step(
        **_kwargs(args, scenarios.context_parallel_step))
    return report.to_json(), report.summary() + _write_artifacts(
        args, report.tracer)


def cmd_bench(args) -> str:
    """Run the benchmark presets, write canonical ``BENCH_<preset>.json``
    documents, and (with ``--check``) gate against committed baselines:
    each must be byte-identical with its claim floors held, and each
    moved key is listed with its owner and delta."""
    if args.check and os.path.realpath(args.output_dir) == \
            os.path.realpath(args.baseline_dir):
        raise ConfigError(
            f"--check needs an --output-dir other than the --baseline-dir "
            f"{args.baseline_dir!r}: the fresh documents would overwrite "
            f"the baselines they are gated against")
    docs = {}
    lines = []
    # dict.fromkeys: a repeated --preset runs (and is written) once
    for preset in dict.fromkeys(args.presets or PRESET_NAMES):
        doc = docs[preset] = run_preset(preset, seed_value=args.seed)
        headline = PRESETS[preset].headline(doc)
        lines.append(f"wrote {write_bench(doc, args.output_dir)} (trace "
                     f"{doc['trace_hash'][:12]}"
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
        lines.append(f"bench gate OK: {len(docs)} preset(s) identical to "
                     f"{args.baseline_dir}")
    return "\n".join(lines)


def cmd_analyze(args):
    """Offline critical-path attribution of an exported ``trace.json``."""
    att = attribute(load_trace(args.trace))
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
    return ({"trace": args.trace, "wall_time_s": att.wall,
             "totals": att.totals, "coverage_error": att.coverage_error,
             "per_rank": {str(r.rank): r.buckets for r in att.ranks}}, text)


def cmd_report(args) -> str:
    from .reporting.report import full_report
    text = full_report()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        return f"wrote {len(text.splitlines())} lines to {args.output}"
    return text


_RECOMPUTE_RUN = [r.value for r in (Recompute.NONE, Recompute.SELECTIVE,
                                     Recompute.FULL)]
_EACH = " (per replica in a fleet)"

#: Every flag once: dest -> its argparse keywords.  The option string is
#: ``--`` + the dest with dashes (``option`` where it is not), ``type``
#: follows the default, and a ``False`` default makes a switch.
#: ``dest:variant`` is the same dest with other choices or another
#: meaning; it inherits the plain entry's keywords.  The first three are
#: positionals.
_FLAGS = {
    "number": dict(type=int),
    "kind": dict(choices=["seq", "tp", "fit", "overhead"]),
    "trace": dict(help="path to a trace.json written by `repro trace`"),
    "model": dict(choices=PAPER_CONFIG_NAMES),
    "recompute": dict(choices=_RECOMPUTE_RUN,
                      help="activation recompute strategy"),
    "recompute:all": dict(choices=[r.value for r in Recompute]),
    "context_parallel": dict(help="context-parallel group size"),
    "seq_length": dict(type=int,
                       help="sequence length (divisible by the group size)"),
    "memory_gb": dict(default=80.0),
    "no_sequence_parallel": dict(default=False),
    "data_parallel": dict(default=1),
    "breakdown": dict(default=False,
                      help="attribute per-layer time to GEMM/elementwise/comm"),
    "seq_lengths": dict(type=int, nargs="+",
                        default=[1024, 2048, 4096, 8192, 16384]),
    "config": dict(choices=list(scenarios.TRACE_PRESETS)),
    "config:memprof": dict(
        choices=[*scenarios.TRACE_PRESETS, *PAPER_CONFIG_NAMES],
        help="paper config or trace preset to profile one layer of "
             "(default: 22B)"),
    "steps": dict(help="training steps"),
    "seed": dict(help="random seed (equal seeds print equal bytes)"),
    "dp": dict(help="data-parallel replicas"),
    "fault_rate": dict(help="per-step fault probability"),
    "fault_rate:fleet": dict(
        help="0 = clean run; 1 = the default chaos plan (crash + straggler "
             "+ dispatch loss, needs 3 replicas); in between = seeded "
             "random per-round fault probability"),
    "checkpoint_interval": {},
    "verify": dict(default=False,
                   help="also run fault-free and require bitwise-equal "
                        "weights / identical token streams"),
    "output_dir": dict(help="where the artifacts are written"),
    "replicas": dict(help="serving replicas in the fleet"),
    "requests": dict(help="open-loop workload size"),
    "tp": dict(help="tensor-parallel size"),
    "sequence_parallel": dict(default=False,
                              help="sequence-parallel layout (tp > 1)"),
    "block_size": dict(help="token slots per KV block"),
    "num_blocks": dict(help="KV pool size in blocks" + _EACH),
    "max_batch": dict(help="decode batch width cap" + _EACH),
    "policy": dict(choices=list(POLICIES),
                   help="what preemption does with the victim's KV state"),
    "tiers": dict(help="priority tiers for SLO-aware shedding"),
    "slo_ttft_s": dict(type=float,
                       help="TTFT SLO in seconds; enables load shedding of "
                            "the lowest tier when saturated"),
    "slo_ttft_s:burn": dict(help="TTFT SLO budget for the burn-rate windows"),
    "slo_tpot_s": dict(help="TPOT SLO budget for the burn-rate windows"),
    "flight_capacity": dict(help="flight-recorder ring size in events"),
    "trace_out": dict(help="also write a validated Perfetto trace here"),
    "postmortem": dict(metavar="PATH",
                       help="write the flight recorder's postmortem dumps "
                            "(canonical JSON) here"),
    "request_trace": dict(metavar="PATH",
                          help="write per-request span graphs (canonical "
                               "JSON) here"),
    "microbatch": {},
    "fused": dict(help="profile the fused-kernel layer variant"),
    "layers": dict(help="transformer layers in the toy model"),
    "microbatches": dict(help="gradient-accumulation microbatches per step"),
    "batch": dict(help="global batch size"),
    "layout": dict(choices=list(LAYOUTS),
                   help="context-parallel attention layout"),
    "presets": dict(option="--preset", action="append",
                    choices=list(PRESET_NAMES),
                    help="preset to run (repeatable; default: all)"),
    "baseline_dir": dict(default=DEFAULT_BASELINE_DIR,
                         help="committed baselines for --check"),
    "check": dict(default=False,
                  help="gate fresh documents against the baselines; exit "
                       "non-zero on any moved key or broken claim floor"),
    "output": dict(help="write to a file instead of stdout"),
    "json": dict(default=False, help="emit machine-readable canonical JSON"),
}
_POSITIONAL = ("number", "kind", "trace")


class _Command(NamedTuple):
    fn: Callable
    help: str
    #: ``_FLAGS`` keys in argparse order
    flags: str
    #: literal defaults
    defaults: Mapping[str, object] = MappingProxyType({})
    #: scenarios whose keyword defaults are the rest of the defaults
    #: (and whose keywords ``_kwargs`` reads the flags as)
    scenarios: tuple = ()


_ENGINE = "requests seed tp sequence_parallel block_size num_blocks max_batch"
_FLEET = f"replicas {_ENGINE} fault_rate:fleet"

_COMMANDS = {
    "table": _Command(
        cmd_table, "regenerate a paper table (2, 4, 5 or 6)",
        "number model context_parallel seq_length json",
        dict(model="22B", context_parallel=8)),
    "figure": _Command(
        cmd_figure, "regenerate a paper figure (1, 7, 8, 9 or 10)",
        "number json"),
    "memory-report": _Command(
        cmd_memory, "activation + weight memory for a config",
        "model recompute:all json", dict(model="530B", recompute="selective")),
    "flops-report": _Command(
        cmd_flops, "model vs hardware FLOPs (Appendix A)", "model json",
        dict(model="175B")),
    "plan": _Command(
        cmd_plan, "cheapest recompute strategy that fits memory",
        "model memory_gb json", dict(model="530B")),
    "simulate-pipeline": _Command(
        cmd_simulate, "end-to-end iteration simulation",
        "model recompute:all no_sequence_parallel data_parallel breakdown "
        "json", dict(model="175B", recompute="selective")),
    "section5": _Command(
        cmd_section5, "Section 5 selective-recompute claims", "json"),
    "appendix-c": _Command(
        cmd_appendix_c, "microbatch-level recomputation MFU", "json"),
    "sweep": _Command(
        cmd_sweep, "parameter sweeps (CSV): seq, tp, fit, overhead",
        "kind model seq_lengths memory_gb", dict(model="175B")),
    "chaos": _Command(
        cmd_chaos, "fault-injection run with recovery report",
        "steps dp fault_rate seed checkpoint_interval json verify",
        scenarios=(scenarios.dp_chaos_segment,)),
    "trace": _Command(
        cmd_trace, "instrumented run: merged Perfetto trace + metrics",
        "config steps seed output_dir", dict(output_dir="trace-out"),
        (scenarios.pipelined_training,)),
    "serve": _Command(
        cmd_serve, "continuous-batching serving run on the paged KV cache "
                   "(swap/recompute preemption)",
        f"{_ENGINE} policy trace_out request_trace json",
        scenarios=(scenarios.serving_scheduler,)),
    "fleet": _Command(
        cmd_fleet, "chaos-serving fleet: fault-tolerant multi-replica "
                   "routing with mid-stream recovery",
        f"{_FLEET} policy tiers slo_ttft_s verify trace_out postmortem "
        "request_trace json", scenarios=(scenarios.chaos_fleet,)),
    "monitor": _Command(
        cmd_monitor, "fleet run with request tracing, flight recorder and "
                     "SLO burn-rate monitor; exact detection gates",
        f"{_FLEET} slo_ttft_s:burn slo_tpot_s flight_capacity trace_out "
        "postmortem request_trace json",
        scenarios=(scenarios.chaos_fleet, scenarios.monitored_fleet)),
    "memprofile": _Command(
        cmd_memprofile, "activation ledger: per-tensor peak attribution, "
                        "save-vs-recompute frontier, memory counter tracks",
        "config:memprof microbatch tp sequence_parallel recompute fused seed "
        "output_dir json", dict(output_dir="memprof-out"),
        (scenarios.profiled_layer,)),
    "compile": _Command(
        cmd_compile, "capture one training step as a static plan, replay "
                     "it, report plan stats and zero loss drift",
        "layers tp sequence_parallel recompute microbatches batch steps seed "
        "trace_out json", scenarios=(scenarios.compiled_eager_twins,)),
    "longctx": _Command(
        cmd_longctx, "traced context-parallel run (Ulysses/ring) with exact "
                     "volume + overlap reconciliation",
        "layout context_parallel recompute seq_length seed trace_out json",
        scenarios=(scenarios.context_parallel_step,)),
    "bench": _Command(
        cmd_bench, "benchmark presets -> BENCH_*.json; --check gates "
                   "against committed baselines",
        "presets seed output_dir baseline_dir check",
        dict(seed=1234, output_dir=".")),
    "analyze": _Command(
        cmd_analyze, "offline time attribution of an exported trace.json",
        "trace json"),
    "report": _Command(
        cmd_report, "regenerate every table/figure in one document",
        "output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Reducing Activation Recomputation in "
                     "Large Transformer Models' (MLSys 2023)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(fn=command.fn)
        defaults = {_flag(keyword): getattr(default, "value", default)
                    for fn in command.scenarios
                    for keyword, default in scenarios.defaults(fn).items()}
        defaults.update(command.defaults)
        for key in command.flags.split():
            dest = key.split(":")[0]
            kw = {**_FLAGS.get(dest, {}), **_FLAGS[key]}
            if dest in defaults:
                kw["default"] = defaults[dest]
            if isinstance(kw.get("default"), bool):
                kw["action"] = "store_true"
            elif isinstance(kw.get("default"), (int, float)):
                kw.setdefault("type", type(kw["default"]))
            if dest in _POSITIONAL:
                p.add_argument(dest, **kw)
            else:
                p.add_argument(kw.pop("option", "--" + dest.replace("_", "-")),
                               dest=dest, **kw)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if vars(args).get("seed", 0) < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        out = args.fn(args)
        # a command with --json returns (doc, text)
        doc, text = out if isinstance(out, tuple) else (None, out)
        print(emit_json(doc) if vars(args).get("json") else text)
    except (ReproError, OSError) as exc:
        # an invalid configuration or path is a usage error, not a crash
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
