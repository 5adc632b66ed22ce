"""Benchmark regression gate over the traced presets.

``repro bench`` runs the deterministic trace presets (``tiny`` and
``small`` pipelined runs, ``chaos``, a fault-injected data-parallel
segment, ``substrate``, the fused-operator engine, ``serve``, the
continuous-batching scheduler, ``chaos_serve``, the fault-injected
serving fleet, and ``fleet_obs``, the same fleet with the full request
telemetry stack attached), pushes each trace through
:mod:`repro.observability.analysis`,
and writes one canonical ``BENCH_<preset>.json`` per preset: the
attribution breakdown, MFU/HFU with their model deltas, peak memory,
per-term memory drift, goodput and a SHA-256 hash of the merged trace.
Because the simulated clock is deterministic, the documents are
byte-identical across runs at the same seed.

``repro bench --check`` re-runs the presets and diffs the fresh
documents against the committed baselines under
``benchmarks/baselines/`` with per-metric tolerances (exact for hashes
and byte counts, relative for times and utilization), exiting non-zero
and naming every out-of-tolerance metric.  This is the CI gate: a PR
that silently regresses goodput, shifts the attribution mix, or breaks
trace determinism fails the build.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..layers.transformer import Recompute
from .serialize import dumps_json, to_jsonable

#: Bump when the BENCH document layout changes incompatibly; --check
#: refuses to compare documents with mismatched schema versions.
SCHEMA_VERSION = 1

PRESET_NAMES = ("tiny", "small", "chaos", "substrate", "serve",
                "chaos_serve", "fleet_obs", "memprof", "longctx")

DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

#: Model/run shapes shared with ``repro trace``.  tp = pp = 2 so both
#: tensor- and pipeline-parallel effects show up in the attribution.
TRACE_PRESETS: Dict[str, dict] = {
    "tiny": dict(num_layers=2, hidden_size=16, num_heads=2,
                 seq_length=16, vocab_size=32, microbatches=2, batch=4),
    "small": dict(num_layers=4, hidden_size=32, num_heads=4,
                  seq_length=32, vocab_size=64, microbatches=4, batch=8),
}

#: Per-metric tolerances for --check, matched by longest dotted-key
#: prefix (first hit wins).  ``("exact", 0)`` fails on any difference;
#: ``("abs", x)`` on |delta| > x; ``("rel", x)`` on relative change > x;
#: ``("floor", x)`` fails when the *current* value drops below x (used
#: for speedup ratios, where the baseline value is machine-specific);
#: ``("ignore", 0)`` records the metric without gating it (raw
#: wall-clock seconds, which vary across machines).
TOLERANCES: Tuple[Tuple[str, Tuple[str, float]], ...] = (
    ("schema_version", ("exact", 0)),
    ("preset", ("exact", 0)),
    ("seed", ("exact", 0)),
    ("steps", ("exact", 0)),
    ("config.", ("exact", 0)),
    ("trace_hash", ("exact", 0)),
    ("counts.", ("exact", 0)),
    # Replaying a captured plan must beat re-running the eager tape by
    # 2x on a tape-overhead-bound op chain (raw seconds are
    # machine-specific and ignored; the ratio is stable because the two
    # sides are timed interleaved).
    ("timing.compiled_chain_speedup", ("floor", 2.0)),
    ("timing.", ("ignore", 0.0)),
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
    # and sequence clock.  The <5% disabled-overhead bound is asserted
    # by ``benchmarks/bench_memprof.py`` (wall clock lives under
    # ``timing.``, ignored here).
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
    from .perfetto import merged_trace

    doc = merged_trace(tracer, extra_events=extra_events)
    payload = json.dumps(to_jsonable(doc), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _preset_config(preset: str):
    from ..config import (ExperimentConfig, ModelConfig, ParallelConfig,
                          TrainingConfig)

    shape = dict(TRACE_PRESETS[preset])
    microbatches = shape.pop("microbatches")
    batch = shape.pop("batch")
    model_cfg = ModelConfig(name=f"trace-{preset}", **shape)
    config = ExperimentConfig(
        model=model_cfg,
        parallel=ParallelConfig(tensor_parallel=2, pipeline_parallel=2),
        training=TrainingConfig(micro_batch_size=batch // microbatches,
                                global_batch_size=batch),
    )
    return model_cfg, config, microbatches, batch


def _run_pipelined_preset(preset: str, seed_value: int, steps: int) -> dict:
    """Trace a pipelined preset run and reduce it to a BENCH document."""
    from ..parallel.transformer import ParallelGPTModel
    from ..tensor import MemoryTracker, seed
    from ..training.data import UniformTokens
    from ..training.optimizer import Adam
    from ..training.trainer import PipelinedGPT
    from .analysis import (attribute, from_tracer, memory_drift_report,
                           schedule_critical_path, utilization_crosscheck)
    from .tracer import Tracer, trace_scope

    model_cfg, config, microbatches, batch = _preset_config(preset)
    tp, pp = 2, 2
    recompute = Recompute.FULL

    tracer = Tracer()
    model = ParallelGPTModel(model_cfg, tensor_parallel=tp,
                             attention_dropout=0.0, hidden_dropout=0.0,
                             recompute=recompute)
    pipe = PipelinedGPT(model, pipeline_parallel=pp)
    optimizer = Adam(model.parameters(), lr=1e-3)
    trackers = [MemoryTracker() for _ in range(pp)]
    for stage, tracker in enumerate(trackers):
        tracer.watch_tracker(tracker, f"stage{stage}")

    seed(seed_value)
    data = UniformTokens(model_cfg.vocab_size, model_cfg.seq_length,
                         seed=seed_value + 1)
    with trace_scope(tracer):
        for _ in range(steps):
            ids, targets = data.batch(batch)
            optimizer.zero_grad()
            pipe.train_step(ids, targets, num_microbatches=microbatches,
                            trackers=trackers)
            optimizer.step()

    data_ = from_tracer(tracer)
    att = attribute(data_)
    xc = utilization_crosscheck(data_, config, num_iterations=steps,
                                recompute=recompute)
    cp = schedule_critical_path(data_, num_groups=pp)
    drifts = memory_drift_report(model_cfg, config.training.micro_batch_size,
                                 tp)

    doc = _base_doc(preset, seed_value, steps, model_cfg, tp, pp)
    doc["wall_time_s"] = data_.wall
    doc["iteration_time_s"] = xc.iteration_time
    doc["attribution"] = {
        "totals": att.totals,
        "coverage_error": att.coverage_error,
    }
    doc["per_rank"] = {
        str(r.rank): r.buckets for r in att.ranks
    }
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
    doc["counts"] = {
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "collectives": sum(1 for s in tracer.spans if s.subsystem == "comm"),
    }
    doc["trace_hash"] = trace_hash(tracer)
    return doc


def _run_chaos_preset(seed_value: int, steps: int) -> dict:
    """Trace a fault-injected data-parallel segment (the resilience
    path): recovery stalls must land in the attribution and goodput in
    the document, so a PR degrading recovery fails the gate."""
    from ..config import ModelConfig
    from ..parallel.transformer import ParallelGPTModel
    from ..resilience import (FaultPlan, RecoveryPolicy, ResilientTrainer,
                              make_step_batches)
    from ..tensor import seed
    from ..training import DataParallelTrainer
    from .analysis import attribute, from_tracer
    from .tracer import Tracer, trace_scope
    import tempfile

    shape = dict(TRACE_PRESETS["tiny"])
    shape.pop("microbatches")
    shape.pop("batch")
    model_cfg = ModelConfig(name="trace-chaos", **shape)
    tp, dp = 2, 2

    tracer = Tracer()
    seed(seed_value)

    def factory():
        return ParallelGPTModel(model_cfg, tensor_parallel=tp,
                                attention_dropout=0.0, hidden_dropout=0.0)

    batch_fn = make_step_batches(model_cfg.vocab_size, model_cfg.seq_length,
                                 batch_size=4, seed=seed_value)
    fault_plan = FaultPlan.random(seed=seed_value, num_steps=steps,
                                  fault_rate=0.5, world_size=dp)
    dp_trainer = DataParallelTrainer(factory, data_parallel=dp, lr=1e-2)
    fd, ckpt = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    try:
        with trace_scope(tracer):
            result = ResilientTrainer(
                dp_trainer, batch_fn, ckpt, plan=fault_plan,
                policy=RecoveryPolicy(checkpoint_interval=2)).run(steps)
    finally:
        os.remove(ckpt)

    report = result.report
    data_ = from_tracer(tracer)
    att = attribute(data_)

    doc = _base_doc("chaos", seed_value, steps, model_cfg, tp, 1)
    doc["config"]["data_parallel"] = dp
    doc["wall_time_s"] = data_.wall
    doc["attribution"] = {
        "totals": att.totals,
        "coverage_error": att.coverage_error,
    }
    doc["per_rank"] = {str(r.rank): r.buckets for r in att.ranks}
    doc["resilience"] = {
        "goodput": report.goodput(),
        "faults": len(report.faults),
        "recoveries": len(report.recoveries),
        "steps_completed": report.steps_completed,
    }
    doc["counts"] = {
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "collectives": sum(1 for s in tracer.spans if s.subsystem == "comm"),
    }
    doc["trace_hash"] = trace_hash(tracer)
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
    (:mod:`repro.compiler`): replaying a captured plan must beat the
    eager tape by 2x on a tape-overhead-bound elementwise chain
    (``timing.compiled_chain_speedup``, floor), the captured train
    plan's op schedule / collective count / planned arena bytes are
    exact, and the compiled-vs-eager loss drift on the real model is an
    exact 0.0.
    """
    import time

    from ..config import ModelConfig
    from ..fusion import fusion_report, reset_arena
    from ..layers import GPTModel
    from ..parallel.transformer import ParallelGPTModel
    from ..tensor import MemoryTracker, OpLog, instrument, seed
    from ..training import Adam, Trainer, UniformTokens
    from .analysis import memory_drift_report
    from .tracer import Tracer, trace_scope

    model_cfg = ModelConfig(name="substrate", num_layers=2, hidden_size=128,
                            num_heads=4, seq_length=64, vocab_size=64)
    tp = 4
    batch = 4

    def _data():
        return UniformTokens(model_cfg.vocab_size, model_cfg.seq_length,
                             seed=seed_value + 1).batch(batch)

    def _serial(fused: bool):
        seed(seed_value)
        model = GPTModel(model_cfg, seed=0, fused=fused)
        return model, Trainer(model, Adam(model.parameters(), lr=1e-3))

    def _tensor_parallel(fused: bool):
        seed(seed_value)
        model = ParallelGPTModel(model_cfg, tensor_parallel=tp,
                                 sequence_parallel=True,
                                 recompute=Recompute.SELECTIVE,
                                 seed=0, fused=fused)
        return model, Trainer(model, Adam(model.parameters(), lr=1e-3))

    # Tape shrinkage + accounting parity on one instrumented serial step.
    def _instrumented(fused: bool):
        model, trainer = _serial(fused)
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
    model, trainer = _tensor_parallel(True)
    ids, targets = _data()
    with trace_scope(tracer):
        for _ in range(steps):
            trainer.train_step(ids, targets)

    # -- static-graph step compiler (repro.compiler) ---------------------
    import gc

    import numpy as np

    from ..compiler import CaptureRecorder, PlanRuntime, capture_scope
    from ..tensor import Tensor
    from ..tensor import functions as F

    # (a) Bitwise replay parity on the real model: compiled and eager
    # twins see identical per-step RNG, so the max |loss delta| is an
    # exact 0.0 — any drift means the capture diverged from the tape.
    def _twin(compiled: bool) -> Trainer:
        seed(seed_value)
        model = GPTModel(model_cfg, seed=0)
        return Trainer(model, Adam(model.parameters(), lr=1e-3),
                       compiled=compiled)

    twin_compiled, twin_eager = _twin(True), _twin(False)
    ids, targets = _data()
    replay_drift = 0.0
    for step in range(3):
        seed(seed_value + 100 + step)
        loss_compiled = twin_compiled.train_step(ids, targets)
        seed(seed_value + 100 + step)
        loss_eager = twin_eager.train_step(ids, targets)
        replay_drift = max(replay_drift, abs(loss_compiled - loss_eager))
    train_plan = twin_compiled.plans.plans()[0]
    cache_stats = dict(twin_compiled.plans.stats())

    # (b) The gated replay speedup.  A deep elementwise chain is
    # tape-overhead-bound (the regime the compiler exists for: tiny
    # kernels under a Python tape), so replay-vs-eager measures the
    # eliminated bookkeeping rather than numpy kernel time (on the GPT
    # step, whose numpy bodies dominate, replay removes tape cost only).
    chain_depth = 200
    rng = np.random.default_rng(seed_value)
    chain_x = Tensor([rng.standard_normal((4, 4))])
    chain_w = Tensor([rng.standard_normal((4, 4))])
    chain_b = Tensor([rng.standard_normal((4, 4))])

    def _chain_step():
        y = chain_x
        for _ in range(chain_depth):
            y = F.scale(F.add(F.mul(y, chain_w), chain_b), 0.999)
        return y

    chain_recorder = CaptureRecorder("substrate_chain")
    with capture_scope(chain_recorder):
        chain_recorder.bind_input("x", chain_x)
        _chain_step()
    chain_plan = chain_recorder.finalize(runtime=PlanRuntime())

    # Best-of timing, *interleaved* so a load spike on the host hits both
    # sides alike — the gated quantity is their ratio.
    chain_eager_s = chain_replay_s = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()  # as timeit does: GC pauses dominate the noise
    try:
        for _ in range(max(9, steps)):
            t0 = time.perf_counter()
            _chain_step()
            t1 = time.perf_counter()
            chain_plan.replay()
            t2 = time.perf_counter()
            chain_eager_s = min(chain_eager_s, t1 - t0)
            chain_replay_s = min(chain_replay_s, t2 - t1)
    finally:
        if was_enabled:
            gc.enable()

    doc = _base_doc("substrate", seed_value, steps, model_cfg, tp, 1)
    doc["timing"] = {
        "compiled_chain_eager_s": chain_eager_s,
        "compiled_chain_replay_s": chain_replay_s,
        "compiled_chain_speedup": chain_eager_s / chain_replay_s,
    }
    doc["compiler"] = {
        "train_plan_ops": train_plan.num_ops,
        "train_plan_op_counts": train_plan.op_counts(),
        "train_plan_collectives": len(train_plan.collective_schedule()),
        "train_plan_arena_bytes": train_plan.memory.arena_bytes,
        "train_plan_buffers": train_plan.memory.num_buffers,
        "chain_plan_ops": chain_plan.num_ops,
        "cache": cache_stats,
        "replay_loss_drift": replay_drift,
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
    doc["counts"] = {
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "fused_spans": sum(1 for s in tracer.spans
                           if s.args.get("fused")),
    }
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
    from ..config import ModelConfig
    from ..layers import GPTModel
    from ..parallel.transformer import ParallelGPTModel
    from ..serving import (ContinuousBatchingScheduler, DecodeEngine,
                           PagedKVCache, ServingPerfModel, generate_requests,
                           simulate_static_batching)
    from .tracer import Tracer

    # hidden 128 puts the decode GEMMs on the flat (launch-dominated)
    # part of the kernel cost curve, where one ragged batched step costs
    # barely more than a single-request step — the regime continuous
    # batching exploits.  The tight 24-block pool forces real preemption
    # traffic through the swap/recompute paths.
    model_cfg = ModelConfig(name="serve", num_layers=2, hidden_size=128,
                            num_heads=4, seq_length=64, vocab_size=32)
    tp, block_size, num_blocks, max_batch = 2, 4, 24, 8

    serial = GPTModel(model_cfg, seed=3)
    perf = ServingPerfModel(model_cfg, tensor_parallel=tp)
    specs = generate_requests(model_cfg, num_requests=12, seed=seed_value,
                              arrival_rate=5000.0, prompt_lengths=(1, 3),
                              new_tokens=(2, 40))

    def _serve(policy: str, tracer=None):
        model = ParallelGPTModel(model_cfg, tensor_parallel=tp,
                                 attention_dropout=0.0, hidden_dropout=0.0,
                                 serial=serial)
        cache = PagedKVCache(model_cfg, tensor_parallel=tp,
                             block_size=block_size, num_blocks=num_blocks)
        scheduler = ContinuousBatchingScheduler(
            DecodeEngine(model, cache), perf, policy=policy,
            max_batch=max_batch, seed=seed_value, tracer=tracer)
        return scheduler.run(specs)

    tracer = Tracer()
    report = _serve("swap", tracer=tracer)
    recompute_report = _serve("recompute")
    policies_agree = (
        report.completed == recompute_report.completed and
        all(a["generated_tokens"] == b["generated_tokens"]
            for a, b in zip(report.per_request,
                            recompute_report.per_request)))
    static = simulate_static_batching(specs, perf, block_size=block_size,
                                      num_blocks=num_blocks,
                                      max_batch=max_batch)

    doc = _base_doc("serve", seed_value, steps, model_cfg, tp, 1)
    doc["config"]["block_size"] = block_size
    doc["config"]["num_blocks"] = num_blocks
    doc["config"]["max_batch"] = max_batch
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
    doc["counts"] = {
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "decode_steps": sum(1 for s in tracer.spans
                            if s.name == "serve.decode"),
    }
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
    from ..config import ModelConfig
    from ..fleet import build_fleet
    from ..resilience import FaultKind, FaultPlan, FaultSpec
    from ..serving import generate_requests
    from .tracer import Tracer

    # hidden 64 / seq 48 keeps decode rounds cheap while the tight
    # 16-block pool per replica forces recovered requests through the
    # real migrate-vs-recompute pricing decision.  24 requests of up to
    # 48 new tokens give the fleet enough useful decode work that the
    # default plan's waste (timeout stalls, backoff, replays, wire
    # traffic) stays under 15% of total simulated time.
    model_cfg = ModelConfig(name="chaos-serve", num_layers=2, hidden_size=64,
                            num_heads=4, seq_length=48, vocab_size=32)
    num_replicas, block_size, num_blocks, max_batch = 3, 4, 16, 4
    specs = generate_requests(model_cfg, num_requests=24, seed=seed_value,
                              arrival_rate=5000.0, prompt_lengths=(1, 3),
                              new_tokens=(8, 48))
    plan = FaultPlan([
        FaultSpec(step=10, kind=FaultKind.REPLICA_CRASH, rank=1,
                  permanent=True),
        FaultSpec(step=18, kind=FaultKind.SLOW_REPLICA, rank=2,
                  slowdown=6.0),
        FaultSpec(step=2, kind=FaultKind.DISPATCH_LOSS),
    ])

    def _run(fault_plan, tracer=None):
        fleet = build_fleet(model_cfg, num_replicas, block_size=block_size,
                            num_blocks=num_blocks, max_batch=max_batch,
                            seed=seed_value, plan=fault_plan, tracer=tracer)
        return fleet, fleet.run(specs)

    tracer = Tracer()
    fleet, report = _run(plan, tracer=tracer)
    clean_fleet, clean_report = _run(FaultPlan())
    tokens_identical = (fleet.tokens_by_request()
                        == clean_fleet.tokens_by_request())

    doc = _base_doc("chaos_serve", seed_value, steps, model_cfg, 1, 1)
    doc["config"]["num_replicas"] = num_replicas
    doc["config"]["block_size"] = block_size
    doc["config"]["num_blocks"] = num_blocks
    doc["config"]["max_batch"] = max_batch
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
    doc["counts"] = {
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "dispatches": sum(1 for s in tracer.spans
                          if s.name == "fleet.dispatch"),
        "migrations": sum(1 for s in tracer.spans
                          if s.name == "fleet.migrate"),
        "recomputes": sum(1 for s in tracer.spans
                          if s.name == "fleet.recover"),
    }
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
    events included.  Wall-clock telemetry cost is recorded under
    ``timing.`` (ignored — machine-specific); the <5% disabled-overhead
    bound is asserted by ``benchmarks/bench_fleet_telemetry.py``.
    """
    import time

    from ..config import ModelConfig
    from ..fleet import build_fleet
    from ..resilience import FaultKind, FaultPlan, FaultSpec
    from ..serving import generate_requests
    from .monitor import FlightRecorder, SLOMonitor
    from .request_trace import (RequestTracker, reconcile_quantiles,
                                verify_partition)
    from .tracer import Tracer

    # Same fleet shape and fault plan as ``chaos_serve`` so the two
    # documents describe the same physics, with and without telemetry.
    model_cfg = ModelConfig(name="fleet-obs", num_layers=2, hidden_size=64,
                            num_heads=4, seq_length=48, vocab_size=32)
    num_replicas, block_size, num_blocks, max_batch = 3, 4, 16, 4
    specs = generate_requests(model_cfg, num_requests=24, seed=seed_value,
                              arrival_rate=5000.0, prompt_lengths=(1, 3),
                              new_tokens=(8, 48))
    plan = FaultPlan([
        FaultSpec(step=10, kind=FaultKind.REPLICA_CRASH, rank=1,
                  permanent=True),
        FaultSpec(step=18, kind=FaultKind.SLOW_REPLICA, rank=2,
                  slowdown=6.0),
        FaultSpec(step=2, kind=FaultKind.DISPATCH_LOSS),
    ])

    def _build(telemetry: bool, tracer=None):
        recorder = FlightRecorder(capacity=64) if telemetry else None
        tracker = RequestTracker(tracer=tracer) if telemetry else None
        monitor = SLOMonitor(slo_ttft_s=0.05, slo_tpot_s=0.005,
                             recorder=recorder,
                             tracer=tracer) if telemetry else None
        fleet = build_fleet(model_cfg, num_replicas, block_size=block_size,
                            num_blocks=num_blocks, max_batch=max_batch,
                            seed=seed_value, plan=plan, tracer=tracer,
                            monitor=monitor, recorder=recorder,
                            request_tracker=tracker)
        return fleet, monitor, recorder, tracker

    tracer = Tracer()
    fleet, monitor, recorder, tracker = _build(True, tracer=tracer)
    report = fleet.run(specs)

    score = monitor.score_against(report)
    partition = verify_partition(tracker)
    reconciled = reconcile_quantiles(tracker, report)
    postmortem_sha = hashlib.sha256(recorder.dumps().encode()).hexdigest()
    request_trace_sha = hashlib.sha256(
        tracker.to_json().encode()).hexdigest()

    # Wall-clock cost of the telemetry stack, best-of-N interleaved so a
    # host load spike hits both arms alike.  Recorded, not gated here.
    reps = max(3, steps)
    best = {False: float("inf"), True: float("inf")}
    for _ in range(reps):
        for telemetry in (False, True):
            timed_fleet, _, _, _ = _build(telemetry)
            start = time.perf_counter()
            timed_fleet.run(specs)
            best[telemetry] = min(best[telemetry],
                                  time.perf_counter() - start)

    doc = _base_doc("fleet_obs", seed_value, steps, model_cfg, 1, 1)
    doc["config"]["num_replicas"] = num_replicas
    doc["config"]["block_size"] = block_size
    doc["config"]["num_blocks"] = num_blocks
    doc["config"]["max_batch"] = max_batch
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
    doc["timing"] = {
        "telemetry_disabled_s": best[False],
        "telemetry_enabled_s": best[True],
        "telemetry_cost": best[True] / best[False] - 1.0,
    }
    doc["counts"] = {
        "spans": len(tracer.spans),
        "instants": len(tracer.instants),
        "request_spans": sum(1 for s in tracer.spans
                             if s.subsystem == "request"),
        "monitor_instants": sum(1 for i in tracer.instants
                                if i.subsystem == "monitor"),
        "flow_links": sum(1 for s in tracer.spans
                          if "flow_out" in s.args),
    }
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
    event count.  Enabled-profiler wall cost is recorded under
    ``timing.`` (ignored — machine-specific); the <5% *disabled*
    overhead bound is asserted by ``benchmarks/bench_memprof.py``.
    """
    import time

    from ..config import PAPER_CONFIGS, ModelConfig
    from .memprof import (MemProfiler, check_peak_attribution,
                          counter_events, frontier, frontier_by_category,
                          paged_kv_fragmentation, profile_layer,
                          selective_recompute_dominates)
    from .perfetto import validate_trace_events

    shapes = {
        name: ModelConfig(name=f"memprof-{name}",
                          **{k: v for k, v in TRACE_PRESETS[name].items()
                             if k not in ("microbatches", "batch")})
        for name in ("tiny", "small")
    }
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
    model22 = PAPER_CONFIGS["22B"].model
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
    from .tracer import Tracer
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

    # Enabled-profiler cost, interleaved best-of (ratio is stable; the
    # absolute numbers are machine-specific and ignored by the gate).
    import gc

    from .analysis import memory_term_drift
    reps = max(9, steps)
    best = {"off": float("inf"), "on": float("inf")}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            memory_term_drift(shapes["small"], 1, 2, True, Recompute.NONE)
            best["off"] = min(best["off"], time.perf_counter() - t0)
            t0 = time.perf_counter()
            profile_layer(shapes["small"], 1, 2, True, Recompute.NONE)
            best["on"] = min(best["on"], time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()

    doc = _base_doc("memprof", seed_value, steps, shapes["small"], 2, 1)
    doc["trace_hash"] = trace_hash(tracer, extra_events=events)
    doc["exactness"] = exactness
    doc["frontier"] = frontier_doc
    doc["ledger"] = ledger_doc
    doc["fragmentation"] = fragmentation
    doc["timing"] = {
        "profile_off_s": best["off"],
        "profile_on_s": best["on"],
        "enabled_overhead": best["on"] / best["off"],
    }
    return doc


def _run_longctx_preset(seed_value: int, steps: int) -> dict:
    """Trace the context-parallel layouts (Ulysses and ring, p=2, full
    recompute) twice each — recompute/comm overlap off and on — and
    reduce both to one gated document: serial-loss drift and
    overlap-loss drift must be literally 0.0, the traced collective
    bytes must equal the closed-form per-layout volumes exactly, the
    per-term memory reconciliation must be drift-free, and the analytic
    exposed-comm reduction must clear the 1.2x floor."""
    import numpy as np

    from ..config import ModelConfig
    from ..layers import GPTModel, token_tensor
    from ..longctx import (
        LongContextGPTModel,
        recompute_overlap_scope,
        ring_layer_bytes,
        ring_selective_extra_bytes,
        ulysses_layer_bytes,
        ulysses_selective_extra_bytes,
    )
    from ..pipeline_sim import longctx_overlap_report
    from ..planner import choose_context_layout
    from ..tensor.functions import MaskSource
    from .analysis import attribute, from_tracer, longctx_memory_term_drift
    from .tracer import Tracer, trace_scope

    p, b = 2, 2
    recompute = Recompute.FULL
    model_cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                            seq_length=16, vocab_size=64,
                            name="trace-longctx")

    def traced_run(layout: str, overlap: bool):
        ms = MaskSource(seed=seed_value + 1, keep_prob=0.9)
        serial = GPTModel(model_cfg, seed=seed_value, mask_source=ms)
        rng = np.random.default_rng(seed_value + 2)
        ids = rng.integers(0, model_cfg.vocab_size,
                           size=(model_cfg.seq_length, b)).astype(np.int64)
        tgt = rng.integers(0, model_cfg.vocab_size,
                           size=(model_cfg.seq_length, b)).astype(np.int64)
        serial_loss = serial(token_tensor(ids), token_tensor(tgt)).item()
        model = LongContextGPTModel(model_cfg, context_parallel=p,
                                    layout=layout, recompute=recompute,
                                    mask_source=ms, serial=serial)
        tracer = Tracer()
        with trace_scope(tracer):
            if overlap:
                with recompute_overlap_scope():
                    loss = model(token_tensor(ids, world=p),
                                 token_tensor(tgt, world=p))
                    loss.backward()
            else:
                loss = model(token_tensor(ids, world=p),
                             token_tensor(tgt, world=p))
                loss.backward()
        model.finish_grad_sync()
        return tracer, loss.item(), serial_loss

    layouts_doc: Dict[str, dict] = {}
    reductions: Dict[str, float] = {}
    hashes: List[str] = []
    wall = 0.0
    counts: Dict[str, dict] = {}
    for layout in ("ulysses", "ring"):
        tracer_off, loss_off, serial_loss = traced_run(layout, overlap=False)
        tracer_on, loss_on, _ = traced_run(layout, overlap=True)
        data_off = from_tracer(tracer_off)
        data_on = from_tracer(tracer_on)
        att_off = attribute(data_off)
        att_on = attribute(data_on)

        comm = [s for s in data_on.spans if s.subsystem == "comm"]
        if layout == "ulysses":
            traced_bytes = sum(s.args["bytes"] for s in comm
                               if s.name == "all_to_all")
            expected = int(model_cfg.num_layers * (
                ulysses_layer_bytes(model_cfg, b, p)
                + ulysses_selective_extra_bytes(model_cfg, b, p)))
        else:
            traced_bytes = sum(s.args["bytes"] for s in comm
                               if "hop" in s.name)
            expected = int(model_cfg.num_layers * (
                ring_layer_bytes(model_cfg, b, p)
                + ring_selective_extra_bytes(model_cfg, b, p)))

        drift = longctx_memory_term_drift(model_cfg, b, p, layout, recompute)
        overlap_report = longctx_overlap_report(model_cfg, b, p, layout,
                                                recompute)
        reductions[layout] = overlap_report.exposed_reduction
        hashes.append(trace_hash(tracer_off))
        hashes.append(trace_hash(tracer_on))
        wall += data_on.wall
        counts[layout] = {
            "spans": len(tracer_on.spans),
            "instants": len(tracer_on.instants),
            "collectives": len(comm),
        }
        layouts_doc[layout] = {
            "loss": loss_on,
            "serial_loss_drift": abs(loss_off - serial_loss),
            "overlap_loss_drift": abs(loss_on - loss_off),
            "traced_comm_bytes": traced_bytes,
            "expected_comm_bytes": expected,
            "volume_exact": traced_bytes == expected,
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


def _drift_key(d) -> str:
    sp = "sp" if d.sequence_parallel else "nosp"
    return f"{sp}+{d.recompute.value}"


def run_preset(preset: str, seed_value: int = 1234, steps: int = 2) -> dict:
    """Run one preset and return its canonical BENCH document."""
    if preset == "chaos":
        return _run_chaos_preset(seed_value, steps)
    if preset == "substrate":
        return _run_substrate_preset(seed_value, steps)
    if preset == "serve":
        return _run_serve_preset(seed_value, steps)
    if preset == "chaos_serve":
        return _run_chaos_serve_preset(seed_value, steps)
    if preset == "fleet_obs":
        return _run_fleet_obs_preset(seed_value, steps)
    if preset == "memprof":
        return _run_memprof_preset(seed_value, steps)
    if preset == "longctx":
        return _run_longctx_preset(seed_value, steps)
    if preset not in TRACE_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; "
                         f"expected one of {PRESET_NAMES}")
    return _run_pipelined_preset(preset, seed_value, steps)


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
    for prefix, tol in TOLERANCES:
        if key.startswith(prefix):
            return tol
    return ("rel", 0.02)


def _within(baseline, current, tol: Tuple[str, float]) -> bool:
    kind, bound = tol
    if kind == "ignore":
        return True
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
