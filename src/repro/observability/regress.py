"""Benchmark regression gate over the traced presets.

``repro bench`` runs the nine deterministic presets in :data:`PRESETS`
— ``tiny`` and ``small`` (pipelined traced training), ``chaos`` (a
fault-injected data-parallel segment), ``substrate`` (the
fused-operator engine and the step compiler), ``serve`` (the
continuous-batching scheduler), ``chaos_serve`` (the fault-injected
serving fleet), ``fleet_obs`` (the same fleet with the full request
telemetry stack attached), ``memprof`` (the activation ledger) and
``longctx`` (the context-parallel layouts) — and writes one canonical
``BENCH_<preset>.json`` per preset, byte-identical across runs at the
same seed because the simulated clock is deterministic.

A preset is one :class:`Preset` row: ``run``, the scenario call
(:mod:`repro.scenarios`, the function ``repro <command>`` calls) plus
the blocks every document shares (config, event counts, trace hash);
``picks``, key lists read off the scenario's report value by
:func:`_fields` — the same ``to_json()`` that is the command's
``--json`` document; ``extras``, its two-arm comparisons, one function
each; and its claim floors, rows of :data:`TOLERANCES`.

``repro bench --check`` passes a preset when its fresh document's
canonical bytes are the committed ``benchmarks/baselines/`` file's and
its claim floors hold; on a failure :func:`compare` names each moved key
with its owner: the report class it is read off, or its builder.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .. import scenarios
from ..comm.process_group import ProcessGroup
from ..errors import ConfigError
from ..layers.transformer import Recompute
from ..parallel.layout import TensorParallel
from .analysis import (
    attribute,
    from_tracer,
    layer_term_drift,
    memory_drift_report,
    schedule_critical_path,
    utilization_crosscheck,
)
from .memprof import (
    check_peak_attribution,
    frontier,
    frontier_by_category,
    profile_layer,
    selective_recompute_dominates,
)
from .perfetto import counter_events, merged_trace, validate_trace_events
from .serialize import dumps_json, to_jsonable
from .tracer import Tracer, trace_scope

#: Bump when the BENCH document layout changes incompatibly; --check
#: refuses to diff documents with mismatched schema versions.
SCHEMA_VERSION = 1

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

Tolerance = Tuple[str, float]
EXACT: Tolerance = ("exact", 0)


@dataclass(frozen=True)
class Regression:
    """One moved key (or broken claim floor) found by :func:`compare`."""

    key: str
    baseline: object
    current: object
    tolerance: Tolerance
    #: the report class the key is read off, or the function building it
    owner: str

    def __str__(self) -> str:
        kind, bound = self.tolerance
        delta = ""
        if isinstance(self.baseline, (int, float)) and \
                isinstance(self.current, (int, float)):
            delta = f"delta {self.current - self.baseline:+.6g}, "
        return (f"{self.key} [{self.owner}]: {self.baseline!r} -> "
                f"{self.current!r} ({delta}tolerance {kind} {bound:g})")


def trace_hash(tracer, extra_events: Optional[List[dict]] = None) -> str:
    """SHA-256 of the canonical merged Chrome trace — the determinism
    fingerprint: any change to event content, order or timing shows."""
    doc = merged_trace(tracer, extra_events=extra_events)
    return _sha(json.dumps(to_jsonable(doc), sort_keys=True,
                           separators=(",", ":")))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _name(key: str) -> str:
    path, _, name = key.partition(":")
    return name or path.rsplit(".", 1)[-1].lstrip("#")


def _fields(report_doc: dict, keys: str) -> dict:
    """The picker.  Each of the space-separated ``keys`` is ``path`` or
    ``path:name``: a dotted path into a report's own JSON document,
    gated under ``name`` (the path's last part by default; a dotted name
    nests).  ``#path`` gates a list by its length."""
    out: dict = {}
    for key in keys.split():
        path = key.partition(":")[0]
        value = functools.reduce(lambda doc, part: doc[part],
                                 path.lstrip("#").split("."), report_doc)
        _put(out, _name(key), len(value) if path.startswith("#") else value)
    return out


def _put(doc: dict, path: str, value) -> None:
    """Merge ``value`` into ``doc`` at the dotted ``path`` (dicts merge
    key by key, anything else is set)."""
    *outer, leaf = path.split(".")
    for part in outer:
        doc = doc.setdefault(part, {})
    if isinstance(value, dict) and isinstance(doc.get(leaf), dict):
        for key, item in value.items():
            _put(doc[leaf], key, item)
    else:
        doc[leaf] = value


def _counts(tracer, **extra: int) -> dict:
    return {"spans": len(tracer.spans), "instants": len(tracer.instants),
            **extra}


def _with_collectives(tracer) -> dict:
    return _counts(tracer, collectives=sum(
        1 for s in tracer.spans if s.subsystem == "comm"))


def _trace_blocks(doc: dict, tracer, **counts: int) -> None:
    doc["counts"] = _counts(tracer, **counts)
    doc["trace_hash"] = trace_hash(tracer)


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
    doc["counts"] = _with_collectives(tracer)
    doc["trace_hash"] = trace_hash(tracer)
    return data


def _base_doc(preset: str, seed_value: int, steps: int, model_cfg,
              tp: int, pp: int) -> dict:
    shape = ("num_layers", "hidden_size", "num_heads", "seq_length",
             "vocab_size")
    return {"schema_version": SCHEMA_VERSION, "preset": preset,
            "seed": seed_value, "steps": steps,
            "config": {**{key: getattr(model_cfg, key) for key in shape},
                       "tensor_parallel": tp, "pipeline_parallel": pp}}


_POOL = ("block_size", "num_blocks", "max_batch")


def _fleet_doc(preset: str, seed_value: int, steps: int) -> dict:
    shape = scenarios.defaults(scenarios.chaos_fleet)
    doc = _base_doc(preset, seed_value, steps, scenarios.FLEET_MODEL,
                    shape["tp"], 1)
    doc["config"]["num_replicas"] = shape["replicas"]
    doc["config"].update((key, shape[key]) for key in _POOL)
    return doc


def _drift_key(d) -> str:
    sp = "sp" if d.sequence_parallel else "nosp"
    return f"{sp}+{d.recompute.value}"


# -- presets without a --json door: their run builds the whole document -------

def _run_pipelined_preset(preset: str, seed_value: int, steps: int):
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
        **_fields(to_jsonable(xc), "mfu hfu model_mfu model_hfu "
                  "traced_model_flops traced_hardware_flops"),
        "mfu_delta": xc.mfu_delta,
        "hfu_delta": xc.hfu_delta,
    }
    doc["memory"] = {
        "peak_bytes": {f"stage{i}": trackers[i].peak_bytes()
                       for i in range(pp)},
        "drift": {_drift_key(d): d.drift for d in drifts},
        "drift_total_bytes": sum(d.total_drift for d in drifts),
    }
    doc["critical_path"] = {
        "nodes": len(cp.nodes),
        "span_s": cp.span,
        "busy_s": cp.busy,
        "time_by_kind": cp.time_by_kind,
    } if cp is not None else {}
    return None, doc


def _run_substrate_preset(seed_value: int, steps: int):
    """Gate the fused-operator engine (:mod:`repro.fusion`) against the
    unfused tape on real train steps — tape shrinkage, eliminated
    kernels, arena recycling, equal saved-activation peaks, zero Eq. 1-4
    drift with fusion on, the fused run's trace hash — and the step
    compiler's captured plan, whose replay-vs-eager loss drift is an
    exact 0.0.  Wall clock is ``bench/``'s."""
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
    _trace_blocks(doc, tracer, fused_spans=sum(
        1 for s in tracer.spans if s.args.get("fused")))
    return None, doc


# -- the six presets with a --json door: scenario call and shared blocks ------

def _chaos(seed_value: int, steps: int):
    tracer = Tracer()
    with trace_scope(tracer):
        trainer, result, _ = scenarios.dp_chaos_segment(steps, seed_value)
    doc = _base_doc("chaos", seed_value, steps, trainer.model.config,
                    trainer.model.group.size, 1)
    doc["config"]["data_parallel"] = trainer.dp
    _traced_training_blocks(doc, tracer)
    return result.report, doc


def _serve(seed_value: int, steps: int):
    tracer = Tracer()
    scheduler, specs, _ = scenarios.serving_scheduler(seed_value=seed_value,
                                                      tracer=tracer)
    report = scheduler.run(specs)
    shape = scenarios.defaults(scenarios.serving_scheduler)
    doc = _base_doc("serve", seed_value, steps, scenarios.SERVE_MODEL,
                    shape["tp"], 1)
    doc["config"].update((key, shape[key]) for key in _POOL)
    _trace_blocks(doc, tracer,
                  decode_steps=_named_spans(tracer, "serve.decode"))
    return report, doc


def _chaos_serve(seed_value: int, steps: int):
    tracer = Tracer()
    report = scenarios.chaos_fleet(seed_value=seed_value, tracer=tracer)
    doc = _fleet_doc("chaos_serve", seed_value, steps)
    _trace_blocks(doc, tracer, **{
        key: _named_spans(tracer, f"fleet.{span}") for key, span in
        (("dispatches", "dispatch"), ("migrations", "migrate"),
         ("recomputes", "recover"))})
    return report, doc


def _fleet_obs(seed_value: int, steps: int):
    # the chaos_serve fleet and plan, with the telemetry stack attached
    report = scenarios.monitored_fleet(seed_value=seed_value)
    tracer = report.tracer
    doc = _fleet_doc("fleet_obs", seed_value, steps)
    _trace_blocks(
        doc, tracer,
        request_spans=sum(1 for s in tracer.spans
                          if s.subsystem == "request"),
        monitor_instants=sum(1 for i in tracer.instants
                             if i.subsystem == "monitor"),
        flow_links=sum(1 for s in tracer.spans if "flow_out" in s.args))
    return report, doc


def _memprof(seed_value: int, steps: int):
    report = scenarios.profiled_layer(config="small", tp=2,
                                      sequence_parallel=True,
                                      seed_value=seed_value)
    ledger = report.ledger
    events = counter_events(ledger)
    validate_trace_events(events)
    doc = _base_doc("memprof", seed_value, steps, report.model_cfg, 2, 1)
    # the ledger-vs-tracker live-bytes identity and the counter tracks
    doc["ledger"] = {
        "timeline_events": len(ledger.timeline),
        "counter_events": len(events),
        "live_identity": all(
            ledger.live_entry_bytes(r) == ledger.live_bytes(r)
            for r in ledger.ranks()),
    }
    doc["trace_hash"] = trace_hash(report.tracer, extra_events=events)
    return report, doc


_CP_LAYOUTS = ("ulysses", "ring")


class _OverlapArms(dict):
    """layout -> (overlap off, overlap on) runs; the JSON is each
    layout's ``repro longctx --json`` document."""

    def to_json(self) -> dict:
        return {layout: on.to_json() for layout, (_, on) in self.items()}


def _longctx(seed_value: int, steps: int):
    arms = _OverlapArms((layout, tuple(
        scenarios.context_parallel_step(layout=layout, seed_value=seed_value,
                                        overlap=overlap)
        for overlap in (False, True))) for layout in _CP_LAYOUTS)
    ons = {layout: on for layout, (_, on) in arms.items()}
    doc = _base_doc("longctx", seed_value, steps, ons["ring"].model_cfg, 1, 1)
    doc["config"]["context_parallel"] = ons["ring"].context_parallel
    doc["wall_time_s"] = sum(from_tracer(on.tracer).wall
                             for on in ons.values())
    doc["counts"] = {layout: _with_collectives(on.tracer)
                     for layout, on in ons.items()}
    doc["trace_hash"] = _sha("".join(trace_hash(run.tracer)
                                     for pair in arms.values()
                                     for run in pair))
    return arms, doc


# -- the two-arm comparisons --------------------------------------------------

def _swap_vs_recompute_vs_static(report, seed_value: int) -> dict:
    """The recompute policy streams the swap policy's tokens; continuous
    batching beats static batching at the same KV budget."""
    from ..serving import simulate_static_batching

    scheduler, specs, perf = scenarios.serving_scheduler(
        seed_value=seed_value, policy="recompute")
    recompute = scheduler.run(specs)
    shape = scenarios.defaults(scenarios.serving_scheduler)
    static = simulate_static_batching(specs, perf,
                                      **{key: shape[key] for key in _POOL})
    return {
        "static_tokens_per_s": static["tokens_per_s"],
        "continuous_vs_static_speedup":
            report.tokens_per_s / static["tokens_per_s"],
        "policies_agree": report.completed == recompute.completed and all(
            a["generated_tokens"] == b["generated_tokens"]
            for a, b in zip(report.per_request, recompute.per_request)),
    }


def _artifact_hashes(report, seed_value: int) -> dict:
    """SHA-256 of the postmortem dump and the request-trace export."""
    return {"postmortem_sha256": _sha(report.recorder.dumps()),
            "request_trace_sha256": _sha(report.tracker.to_json())}


def _exactness_matrix(report, seed_value: int) -> dict:
    """Bitwise peak attribution, reconciled with the Section 4 closed
    forms at zero drift, in every (shape, layout, recompute, fused)
    cell."""
    cells: Dict[str, object] = {}
    for name, (t, sp), recompute, fused in itertools.product(
            ("tiny", "small"), ((1, False), (2, False), (2, True)),
            (Recompute.NONE, Recompute.SELECTIVE), (False, True)):
        model = scenarios.memprof_model(name)
        layout = TensorParallel(ProcessGroup(t), sp)
        _, ledger = profile_layer(layout, model, 1, recompute, fused)
        checks = check_peak_attribution(ledger, layout, model, 1, recompute)
        cells[f"{name}.t{t}{'sp' if sp else ''}.{recompute.value}."
              f"{'fused' if fused else 'unfused'}"] = {
            "exact": all(c.exact for c in checks),
            "ranks": len(checks),
            "peak_bytes": [c.peak_bytes for c in checks],
            "term_drift_total": max(c.term_drift_total for c in checks),
        }
    cells["all_exact"] = all(cell["exact"] for cell in cells.values())
    return cells


def _frontier(report, seed_value: int) -> dict:
    """Section 5 on the 22B column: softmax/dropout price as the best
    bytes-per-recompute-second candidates."""
    model22 = scenarios.memprof_model("22B")
    out = {}
    for t, sp in ((1, False), (2, True)):
        prof, ledger = profile_layer(TensorParallel(ProcessGroup(t), sp),
                                     model22, 1, Recompute.NONE)
        by_cat = frontier_by_category(frontier(prof, ledger, 0))
        out[f"t{t}{'sp' if sp else ''}"] = {
            "selective_recompute_dominates":
                selective_recompute_dominates(by_cat),
            "category_bytes": {c: agg["nbytes"] for c, agg in by_cat.items()},
            "must_keep_bytes": {c: agg["must_keep_nbytes"]
                                for c, agg in by_cat.items()
                                if agg["must_keep_nbytes"]},
        }
    return out


def _overlap_off_vs_on(arms, seed_value: int) -> dict:
    """Overlap moves comm time from exposed to overlapped and nothing
    else: the overlap-off run's loss and total comm time are conserved.
    The closed forms ride along: the integer per-layout comm volume and
    the per-term memory drift."""
    from ..longctx.layout import context_layout

    out = {}
    for layout, (off, on) in arms.items():
        att_off = attribute(from_tracer(off.tracer)).totals
        att_on = attribute(from_tracer(on.tracer)).totals
        drifts = layer_term_drift(context_layout(layout, on.context_parallel),
                                  on.model_cfg, on.batch, on.recompute)
        out[layout] = {
            "overlap_loss_drift": abs(on.loss - off.loss),
            "expected_comm_bytes": int(on.expected_bytes),
            "memory_drift_bytes": max(d.total_drift for d in drifts),
            "attribution": {
                "serial_exposed_s": att_off["exposed_comm"],
                "conservation_error": abs(
                    att_on["exposed_comm"] + att_on["overlapped_comm"]
                    - att_off["exposed_comm"] - att_off["overlapped_comm"]),
            },
        }
    return out


# -- the registry -------------------------------------------------------------

class Preset(NamedTuple):
    """One ``repro bench`` preset (see the module docstring).  ``run``
    returns ``(report, document)``; a preset without a ``--json`` door
    builds the whole document (report None, no picks)."""

    run: Callable[[int, int], tuple]
    #: the report value's class, named by a failed picked key
    report: str
    #: dotted section -> key list read off ``report.to_json()``
    picks: Mapping[str, str]
    #: section -> its two-arm comparison, ``(report, seed_value) -> keys``
    extras: Mapping[str, Callable[..., dict]]
    tolerances: Tuple[Tuple[str, Tolerance], ...]
    #: ``repro bench`` prints it next to the trace hash
    headline: Callable[[dict], str]


# The default chaos plan (a permanent replica crash mid-decode, a
# straggler, a dropped dispatch) must keep fleet goodput >= 0.85.
_FLEET_TOLERANCES = (("fleet.goodput", ("floor", 0.85)),)

_FLEET_KEYS = ("goodput requests completed shed rounds final_replicas "
               "#faults #recoveries dispatches redispatches migrations "
               "recomputes tokens_generated useful_s wasted_s kv_drift_bytes "
               "ttft_p50_s ttft_p95_s ttft_p99_s tpot_p50_s tpot_p95_s "
               "tpot_p99_s")

_TELEMETRY_KEYS = (
    "detection.precision:detection_precision "
    "detection.recall:detection_recall detection.injected:injected_faults "
    "detection.detections detection.missed detection.spurious "
    "partition.max_gap_s:partition_max_gap_s "
    "partition.max_overlap_s:partition_max_overlap_s "
    "partition.open_requests:partition_open_requests "
    "partition.exact:partition_exact "
    "reconciliation.ttft_match:ttft_reconciled "
    "reconciliation.tpot_match:tpot_reconciled "
    "reconciliation.completed:reconciled_requests "
    "flight_recorder.recorded:flight_events_recorded "
    "flight_recorder.postmortems monitor.ttft_burn_long "
    "monitor.tpot_burn_long monitor.health_scores")

_FRAGMENTATION_KEYS = " ".join(
    f"fragmentation.paged_kv.{key}" for key in (
        "allocations block_size final_fragmentation frees max_fragmentation "
        "mean_fragmentation num_blocks peak_live_bytes peak_reserved_bytes "
        "policy rounds").split())

_LONGCTX_KEYS = (
    "loss loss_drift:serial_loss_drift traced_comm_bytes volume_exact "
    "attribution.exposed_comm:attribution.exposed_s "
    "attribution.overlapped_comm:attribution.overlapped_s "
    "attribution.coverage_error:attribution.coverage_error "
    "overlap.speedup:analytic_speedup")


def _mfu(doc: dict) -> str:
    return f"mfu {doc['utilization']['mfu']:.3e}"


def _fleet_goodput(doc: dict) -> str:
    return f"fleet goodput {doc['fleet']['goodput']:.1%} under chaos"


PRESETS: Dict[str, Preset] = {
    "tiny": Preset(functools.partial(_run_pipelined_preset, "tiny"), "", {},
                   {}, (), _mfu),
    "small": Preset(functools.partial(_run_pipelined_preset, "small"), "",
                    {}, {}, (), _mfu),
    "chaos": Preset(
        _chaos, "ResilienceReport",
        {"resilience": "goodput #faults #recoveries steps_completed"}, {},
        (), lambda doc: f"goodput {doc['resilience']['goodput']:.1%}"),
    "substrate": Preset(
        _run_substrate_preset, "", {}, {}, (),
        lambda doc:
            f"replay drift {doc['compiler']['replay_loss_drift']:g}"),
    # Continuous batching must beat static batching 1.5x at one KV budget.
    "serve": Preset(
        _serve, "ServeReport",
        {"serving": "tokens_per_s p50_token_latency_s p95_token_latency_s "
                    "tokens_generated completed preemptions resumes "
                    "kv_drift_bytes peak_kv_occupancy"},
        {"serving": _swap_vs_recompute_vs_static},
        (("serving.continuous_vs_static_speedup", ("floor", 1.5)),),
        lambda doc: f"serve x"
                    f"{doc['serving']['continuous_vs_static_speedup']:.2f}"
                    f" vs static"),
    "chaos_serve": Preset(
        _chaos_serve, "FleetReport", {"fleet": _FLEET_KEYS},
        {"fleet": scenarios.faulted_vs_clean}, _FLEET_TOLERANCES,
        _fleet_goodput),
    "fleet_obs": Preset(
        _fleet_obs, "MonitorReport",
        {"fleet": "fleet.goodput fleet.completed fleet.shed fleet.rounds "
                  "#fleet.faults",
         "telemetry": _TELEMETRY_KEYS},
        {"telemetry": _artifact_hashes},
        _FLEET_TOLERANCES,
        lambda doc: f"{_fleet_goodput(doc)}, detection P/R "
                    f"{doc['telemetry']['detection_precision']:.2f}/"
                    f"{doc['telemetry']['detection_recall']:.2f}, "
                    f"partition exact={doc['telemetry']['partition_exact']}"),
    "memprof": Preset(
        _memprof, "MemprofReport",
        {"fragmentation": _FRAGMENTATION_KEYS, "ledger": "#entries"},
        {"exactness": _exactness_matrix, "frontier": _frontier}, (),
        lambda doc: f"attribution exact={doc['exactness']['all_exact']}, "
                    f"frontier dominates=" + str(all(
                        f["selective_recompute_dominates"]
                        for f in doc["frontier"].values()))),
    # Overlapping recompute with in-flight collectives must keep the
    # analytic exposed-comm reduction >= 1.2x on both layouts.
    "longctx": Preset(
        _longctx, "LongctxReport",
        {"longctx": "ulysses.overlap.exposed_reduction:"
                    "overlap_reduction.ulysses "
                    "ring.overlap.exposed_reduction:overlap_reduction.ring "
                    "ring.chooser.layout:chooser_pick",
         **{f"longctx.{layout}": " ".join(
             f"{layout}.{key}" for key in _LONGCTX_KEYS.split())
            for layout in _CP_LAYOUTS}},
        {"longctx": _overlap_off_vs_on},
        (("longctx.overlap_reduction", ("floor", 1.2)),),
        lambda doc: ""),
}

PRESET_NAMES = tuple(PRESETS)

#: The exact default and each preset's claim floors.  ``("exact", 0)``
#: fails on any change of a value's canonical JSON text (``3`` -> ``3.0``
#: too); ``("floor", x)`` also fails below x, so a rebaseline cannot
#: commit a broken claim.  :func:`tolerance_for` takes the longest prefix.
TOLERANCES: Dict[str, Tolerance] = dict(itertools.chain(
    (("", EXACT),), *(row.tolerances for row in PRESETS.values())))


def run_preset(preset: str, seed_value: int = 1234, steps: int = 2) -> dict:
    """Run one preset and return its canonical BENCH document."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"expected one of {PRESET_NAMES}")
    row = PRESETS[preset]
    report, doc = row.run(seed_value, steps)
    if row.picks:
        report_doc = report.to_json()
        for section, keys in row.picks.items():
            _put(doc, section, _fields(report_doc, keys))
    for section, extra in row.extras.items():
        _put(doc, section, extra(report, seed_value=seed_value))
    return doc


#: The function building each block that documents share.
_SHARED_OWNERS = {
    **dict.fromkeys(("schema_version", "preset", "seed", "steps", "config"),
                    _base_doc.__name__),
    "counts": _counts.__name__, "trace_hash": trace_hash.__name__,
    **dict.fromkeys(("attribution", "per_rank"),
                    _traced_training_blocks.__name__),
}


def _owner(preset: str, key: str) -> str:
    """What built ``key`` of a ``preset`` document: the report class a
    picked key is read off, a comparison's function, or the helper
    building a shared block."""
    row = PRESETS.get(preset)
    if row is None:
        return f"unknown preset {preset!r}"
    dotted = key + "."
    for section, keys in row.picks.items():
        if any(dotted.startswith(f"{section}.{_name(k)}.")
               for k in keys.split()):
            return row.report
    for section, extra in row.extras.items():
        if dotted.startswith(section + "."):
            return extra.__name__
    top = key.split(".")[0]
    return _SHARED_OWNERS.get(
        top, getattr(row.run, "func", row.run).__name__)


def bench_filename(preset: str) -> str:
    return f"BENCH_{preset}.json"


def bench_text(doc: dict) -> str:
    """A BENCH document's canonical text, as :func:`write_bench` writes it."""
    return dumps_json(doc, indent=1) + "\n"


def write_bench(doc: dict, directory: str) -> str:
    """Write one canonical BENCH document; byte-identical per (preset,
    seed) because every input is on the simulated clock."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(doc["preset"]))
    with open(path, "w") as fh:
        fh.write(bench_text(doc))
    return path


def load_bench(path: str) -> dict:
    """Read one BENCH document; anything but a JSON object is a
    :class:`ConfigError`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(
                f"{path} is not a BENCH document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} is not a BENCH document: expected an "
                          f"object, got {type(doc).__name__}")
    return doc


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


def tolerance_for(key: str) -> Tolerance:
    """The tolerance of the longest :data:`TOLERANCES` prefix of ``key``
    (the ``""`` row matches every key)."""
    return TOLERANCES[max((prefix for prefix in TOLERANCES
                           if key.startswith(prefix)), key=len)]


def _within(baseline, current, tol: Tolerance) -> bool:
    kind, bound = tol
    return dumps_json(baseline) == dumps_json(current) and (
        kind == "exact" or isinstance(current, (int, float)) and
        current >= bound)


def compare(baseline: dict, current: dict) -> List[Regression]:
    """Diff two BENCH documents; returns every moved key and broken
    claim floor.  A key missing from either side is a regression too;
    documents of two schema versions are not diffed (one regression)."""
    versions = baseline.get("schema_version"), current.get("schema_version")
    if versions[0] != versions[1]:
        return [Regression("schema_version", *versions, EXACT,
                           _base_doc.__name__)]
    flat_base, flat_cur = flatten(baseline), flatten(current)
    preset = current.get("preset", baseline.get("preset"))
    regressions: List[Regression] = []
    for key in sorted(set(flat_base) | set(flat_cur)):
        base, cur = flat_base.get(key), flat_cur.get(key)
        tol = tolerance_for(key)
        if key not in flat_base or key not in flat_cur or \
                not _within(base, cur, tol):
            regressions.append(Regression(key, base, cur, tol,
                                          _owner(preset, key)))
    return regressions


def check_against_baselines(docs: Dict[str, dict],
                            baseline_dir: str) -> Dict[str, List[Regression]]:
    """Gate fresh documents per preset: one passes when its canonical
    bytes are the committed file's and its claim floors hold.  A failure
    lists what :func:`compare` names, or one ``document`` regression (the
    texts' SHA-256) when only the bytes differ.  A missing baseline is one
    regression too, so a new preset cannot skip the gate."""
    failures: Dict[str, List[Regression]] = {}
    for preset, doc in docs.items():
        path = os.path.join(baseline_dir, bench_filename(preset))
        if not os.path.exists(path):
            failures[preset] = [Regression("baseline", path, None, EXACT,
                                           check_against_baselines.__name__)]
            continue
        with open(path) as fh:
            committed, fresh = fh.read(), bench_text(doc)
        regressions = compare(load_bench(path), doc)
        if regressions or committed != fresh:
            failures[preset] = regressions or [Regression(
                "document", _sha(committed), _sha(fresh), EXACT,
                write_bench.__name__)]
    return failures
