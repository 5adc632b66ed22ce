"""One definition per concrete-run scenario.

The concrete-run sibling of :mod:`repro.experiments`: where that module
owns the paper's tables and figures, this one owns the small *real* runs
— a pipelined traced training loop, a fault-injected data-parallel
segment, a continuous-batching serve, the chaos fleet (with or without
its telemetry stack), compiled/eager twin trainers, a context-parallel
traced step — together with the constants each one fixes: model shape,
workload parameters, pool sizes, the default chaos plan.

Two doors open onto every scenario.  ``repro <command>``
(:mod:`repro.cli`) maps argparse to the keyword arguments below; a
``repro bench`` preset (:mod:`repro.observability.regress`) calls the
same function at its defaults.  The keyword defaults *are* the preset
values — the CLI reads its argparse defaults off these signatures — so
a command at the preset's seed and the preset are one run, bit for bit.

A scenario returns one report value: its ``to_json()`` is the command's
``--json`` document and its ``summary()`` the command's text, and the
bench preset reads its gated keys off the same ``to_json()``.  The
command adds only its artifact lines; the preset adds only its shared
blocks and two-arm comparisons.  Spans land on whatever tracer the
caller installed or passed in.

Subsystem imports are function-local on purpose:
:mod:`repro.observability.regress` imports this module, and importing
the observability package must not pull in ``fleet``, ``serving``,
``longctx`` or ``compiler``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import os
import tempfile
from typing import Dict, List, NamedTuple, Optional

from .config import (
    PAPER_CONFIGS,
    ExperimentConfig,
    ModelConfig,
    ParallelConfig,
    TrainingConfig,
)
from .errors import ConfigError
from .layers.transformer import Recompute
from .units import fmt_bytes

#: Model/run shapes of the pipelined trace presets (``repro trace
#: --config``, the ``tiny``/``small`` bench presets, ``repro memprofile
#: --config tiny|small``).  tp = pp = 2 so both tensor- and
#: pipeline-parallel effects show up in the attribution.
TRACE_PRESETS: Dict[str, dict] = {
    "tiny": dict(num_layers=2, hidden_size=16, num_heads=2,
                 seq_length=16, vocab_size=32, microbatches=2, batch=4),
    "small": dict(num_layers=4, hidden_size=32, num_heads=4,
                  seq_length=32, vocab_size=64, microbatches=4, batch=8),
}

#: hidden 128 puts the decode GEMMs on the flat (launch-dominated) part
#: of the kernel cost curve, where one ragged batched step costs barely
#: more than a single-request step — the regime continuous batching
#: exploits.
SERVE_MODEL = ModelConfig(name="serve", num_layers=2, hidden_size=128,
                          num_heads=4, seq_length=64, vocab_size=32)

#: hidden 64 / seq 48 keeps decode rounds cheap; 24 requests of up to 48
#: new tokens give the fleet enough useful decode work that the default
#: plan's waste (timeout stalls, backoff, replays, wire traffic) stays
#: under 15% of total simulated time.
FLEET_MODEL = ModelConfig(name="fleet", num_layers=2, hidden_size=64,
                          num_heads=4, seq_length=48, vocab_size=32)

#: Shape of the compiled/eager twins (``repro compile``) and of the
#: ``substrate`` preset's fusion measurements.
COMPILE_MODEL = ModelConfig(name="compile", num_layers=2, hidden_size=128,
                            num_heads=4, seq_length=64, vocab_size=64)

LONGCTX_MODEL = ModelConfig(name="longctx", num_layers=2, hidden_size=32,
                            num_heads=4, seq_length=16, vocab_size=64)


def defaults(scenario) -> dict:
    """Keyword defaults of a scenario function — the preset values both
    doors read (argparse defaults in the CLI, ``config`` blocks in the
    bench documents)."""
    return {name: param.default
            for name, param in inspect.signature(scenario).parameters.items()
            if param.default is not param.empty}


def trace_experiment(config: str) -> ExperimentConfig:
    """The tp = pp = 2 experiment behind one ``TRACE_PRESETS`` entry."""
    shape = dict(TRACE_PRESETS[config])
    microbatches = shape.pop("microbatches")
    batch = shape.pop("batch")
    return ExperimentConfig(
        model=ModelConfig(name=f"trace-{config}", **shape),
        parallel=ParallelConfig(tensor_parallel=2, pipeline_parallel=2),
        training=TrainingConfig(micro_batch_size=batch // microbatches,
                                global_batch_size=batch),
    )


def memprof_model(config: str) -> ModelConfig:
    """The model ``repro memprofile --config`` profiles one layer of: a
    paper configuration or a trace-preset shape."""
    if config in PAPER_CONFIGS:
        return PAPER_CONFIGS[config].model
    return dataclasses.replace(trace_experiment(config).model,
                               name=f"memprof-{config}")


# -- pipelined traced training ------------------------------------------------

class PipelinedRun(NamedTuple):
    experiment: ExperimentConfig
    model: object
    optimizer: object
    trackers: list


def pipelined_training(config: str = "tiny", steps: int = 2,
                       seed_value: int = 0, *, tracer=None) -> PipelinedRun:
    """Train a trace preset for ``steps`` pipelined iterations (tp = pp
    = 2, full recompute, one memory tracker per stage, watched by
    ``tracer`` when given)."""
    from .parallel.transformer import ParallelGPTModel
    from .tensor import MemoryTracker, seed
    from .training.data import UniformTokens
    from .training.optimizer import Adam
    from .training.trainer import PipelinedGPT

    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    experiment = trace_experiment(config)
    model_cfg = experiment.model
    pp = experiment.parallel.pipeline_parallel
    batch = experiment.training.global_batch_size

    model = ParallelGPTModel(
        model_cfg, tensor_parallel=experiment.parallel.tensor_parallel,
        attention_dropout=0.0, hidden_dropout=0.0, recompute=Recompute.FULL)
    pipe = PipelinedGPT(model, pipeline_parallel=pp)
    optimizer = Adam(model.parameters(), lr=1e-3)
    trackers = [MemoryTracker() for _ in range(pp)]
    if tracer is not None:
        for stage, tracker in enumerate(trackers):
            tracer.watch_tracker(tracker, f"stage{stage}")

    seed(seed_value)
    data = UniformTokens(model_cfg.vocab_size, model_cfg.seq_length,
                         seed=seed_value + 1)
    for _ in range(steps):
        ids, targets = data.batch(batch)
        optimizer.zero_grad()
        pipe.train_step(ids, targets,
                        num_microbatches=experiment.num_microbatches,
                        trackers=trackers)
        optimizer.step()
    return PipelinedRun(experiment, model, optimizer, trackers)


# -- fault-injected data-parallel segment ------------------------------------

def dp_chaos_segment(steps: int = 6, seed_value: int = 0, *, dp: int = 2,
                     fault_rate: float = 0.5, checkpoint_interval: int = 2,
                     model_cfg: Optional[ModelConfig] = None, plan=None):
    """Train a tp=2 model data-parallel under a seeded random fault plan
    (or ``plan``, e.g. an empty one for the fault-free reference) with
    checkpoint/restart recovery.  Returns ``(trainer, result, plan)``."""
    from .parallel.transformer import ParallelGPTModel
    from .resilience import FaultPlan, ResilientTrainer, make_step_batches
    from .training import DataParallelTrainer

    if model_cfg is None:
        model_cfg = trace_experiment("tiny").model

    def factory():
        return ParallelGPTModel(model_cfg, tensor_parallel=2,
                                attention_dropout=0.0, hidden_dropout=0.0)

    batch_fn = make_step_batches(model_cfg.vocab_size, model_cfg.seq_length,
                                 batch_size=2 * dp, seed=seed_value)
    if plan is None:
        plan = FaultPlan.random(seed=seed_value, num_steps=steps,
                                fault_rate=fault_rate, world_size=dp)
    trainer = DataParallelTrainer(factory, data_parallel=dp, lr=1e-2)
    fd, path = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    try:
        result = ResilientTrainer(
            trainer, batch_fn, path, plan=plan,
            checkpoint_interval=checkpoint_interval).run(steps)
    finally:
        os.remove(path)
    return trainer, result, plan


def recovered_as_fault_free(trainer, result, **segment) -> bool:
    """The two-arm check of a :func:`dp_chaos_segment` run (``segment``
    are its keywords): the fault-free run at the same seed has the same
    losses and bitwise-identical final weights."""
    import numpy as np

    from .resilience import FaultPlan

    clean_trainer, clean, _ = dp_chaos_segment(**segment, plan=FaultPlan())
    return clean.losses == result.losses and all(
        np.array_equal(np.asarray(p.shards[r]), np.asarray(q.shards[r]))
        for p, q in zip(clean_trainer.model.parameters(),
                        trainer.model.parameters())
        for r in range(p.world))


# -- continuous-batching serve ------------------------------------------------

def serving_scheduler(*, requests: int = 12, seed_value: int = 1234,
                      tp: int = 2, sequence_parallel: bool = False,
                      policy: str = "swap", block_size: int = 4,
                      num_blocks: int = 24, max_batch: int = 8,
                      tracer=None, request_tracker=None):
    """A continuous-batching scheduler over a real decode engine on the
    paged KV cache, plus its seeded open-loop workload.  The tight
    24-block pool forces real preemption traffic through the
    swap/recompute paths.  Returns ``(scheduler, specs, perf)``;
    ``scheduler.run(specs)`` is the serve."""
    from .layers import GPTModel
    from .parallel.transformer import ParallelGPTModel
    from .serving import (
        ContinuousBatchingScheduler,
        DecodeEngine,
        PagedKVCache,
        ServingPerfModel,
        generate_requests,
    )

    model = GPTModel(SERVE_MODEL, seed=3)
    if tp > 1:
        model = ParallelGPTModel(SERVE_MODEL, tensor_parallel=tp,
                                 sequence_parallel=sequence_parallel,
                                 attention_dropout=0.0, hidden_dropout=0.0,
                                 serial=model)
    cache = PagedKVCache(SERVE_MODEL, tensor_parallel=tp,
                         block_size=block_size, num_blocks=num_blocks)
    perf = ServingPerfModel(SERVE_MODEL, tensor_parallel=tp)
    scheduler = ContinuousBatchingScheduler(
        DecodeEngine(model, cache), perf, policy=policy, max_batch=max_batch,
        seed=seed_value, tracer=tracer, request_tracker=request_tracker)
    specs = generate_requests(SERVE_MODEL, requests, seed=seed_value,
                              arrival_rate=5000.0, prompt_lengths=(1, 3),
                              new_tokens=(2, 40))
    return scheduler, specs, perf


# -- chaos-serving fleet -------------------------------------------------------

def fleet_fault_plan(seed_value: int, fault_rate: float, replicas: int):
    """``fault_rate`` 1 is the fixed chaos plan — one *permanent*
    replica crash mid-decode, one straggler, one dropped dispatch;
    in between is a seeded random plan; 0 is a clean run."""
    from .resilience import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec

    if not 0.0 <= fault_rate <= 1.0:
        raise ConfigError(f"fault_rate must be in [0, 1], got {fault_rate}")
    if fault_rate == 0.0:
        return FaultPlan()
    if fault_rate < 1.0:
        return FaultPlan.random(seed=seed_value, num_steps=32,
                                fault_rate=fault_rate, world_size=replicas,
                                kinds=FLEET_KINDS)
    if replicas < 3:
        raise ConfigError(
            f"the fixed chaos plan crashes replica 1 and slows replica 2: "
            f"it needs at least 3 replicas, got {replicas} (a fault rate "
            f"below 1 draws a seeded random plan instead)")
    return FaultPlan([
        FaultSpec(step=10, kind=FaultKind.REPLICA_CRASH, rank=1,
                  permanent=True),
        FaultSpec(step=18, kind=FaultKind.SLOW_REPLICA, rank=2,
                  slowdown=6.0),
        FaultSpec(step=2, kind=FaultKind.DISPATCH_LOSS),
    ])


def chaos_fleet(*, replicas: int = 3, requests: int = 24,
                seed_value: int = 1234, tp: int = 1,
                sequence_parallel: bool = False, policy: str = "swap",
                block_size: int = 4, num_blocks: int = 16,
                max_batch: int = 4, fault_rate: float = 1.0, tiers: int = 1,
                slo_ttft_s: Optional[float] = None, tracer=None,
                recorder=None, request_tracker=None, monitor=None):
    """Route a seeded open-loop workload across a replica fleet while
    :func:`fleet_fault_plan` crashes, slows and drops dispatches under
    it.  The tight 16-block pool per replica forces recovered requests
    through the real migrate-vs-recompute pricing decision.  Returns the
    :class:`~repro.fleet.FleetReport`; ``fault_rate=0`` is the
    fault-free reference."""
    from .fleet import build_fleet
    from .serving import generate_requests

    specs = generate_requests(FLEET_MODEL, requests, seed=seed_value,
                              arrival_rate=5000.0, prompt_lengths=(1, 3),
                              new_tokens=(8, 48))
    fleet = build_fleet(
        FLEET_MODEL, replicas, tensor_parallel=tp,
        sequence_parallel=sequence_parallel, block_size=block_size,
        num_blocks=num_blocks, max_batch=max_batch, policy=policy,
        seed=seed_value,
        plan=fleet_fault_plan(seed_value, fault_rate, replicas),
        tracer=tracer, num_tiers=tiers, slo_ttft_s=slo_ttft_s,
        monitor=monitor, recorder=recorder, request_tracker=request_tracker)
    return fleet.run(specs)


def faulted_vs_clean(report, **fleet) -> dict:
    """The two-arm check of a :func:`chaos_fleet` run (``fleet`` are its
    keywords): the fault-free twin's goodput, and whether every request
    streamed exactly the tokens it streams without faults."""
    clean = chaos_fleet(**dict(fleet, fault_rate=0.0))
    return {"clean_goodput": clean.goodput(),
            "tokens_identical_to_clean": [
                r["generated_tokens"] for r in report.per_request] == [
                r["generated_tokens"] for r in clean.per_request]}


class MonitorReport(NamedTuple):
    """A :func:`monitored_fleet` run: the fleet's report and the
    telemetry stack that watched it."""

    seed: int
    fleet: object
    tracer: object
    monitor: object
    recorder: object
    tracker: object

    def to_json(self) -> dict:
        """The three exactness checks — detections scored against the
        injected plan, the request-span partition, TTFT/TPOT recomputed
        from the span graphs against the report's ledger — with the
        fleet report, monitor snapshot and flight-recorder tallies."""
        from .observability.request_trace import (
            reconcile_quantiles,
            verify_partition,
        )
        recorder = self.recorder
        return {"fleet": self.fleet.to_json(),
                "detection": self.monitor.score_against(self.fleet),
                "partition": verify_partition(self.tracker),
                "reconciliation": reconcile_quantiles(self.tracker,
                                                      self.fleet),
                "monitor": self.monitor.snapshot(),
                "flight_recorder": {"capacity": recorder.capacity,
                                    "recorded": recorder.recorded,
                                    "postmortems": len(recorder.postmortems)}}

    def summary(self) -> str:
        doc, fleet = self.to_json(), self.fleet
        score, partition = doc["detection"], doc["partition"]
        reconciled, snapshot = doc["reconciliation"], doc["monitor"]
        health = ", ".join(f"{rid}:{v:.2f}" for rid, v in
                           sorted(snapshot["health_scores"].items()))
        return (
            f"monitored fleet: {fleet.replicas} replica(s), "
            f"{fleet.requests} request(s), seed {self.seed}, "
            f"goodput {fleet.goodput():.1%} under {len(fleet.faults)} "
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
            f"  flight recorder: {self.recorder.recorded} event(s), "
            f"{len(self.recorder.postmortems)} postmortem(s)")


def monitored_fleet(*, slo_ttft_s: float = 0.05, slo_tpot_s: float = 0.005,
                    flight_capacity: int = 64, **fleet) -> MonitorReport:
    """:func:`chaos_fleet` (``fleet`` are its keywords) with the full
    request-telemetry stack attached: flight recorder, request tracker
    and SLO burn-rate monitor."""
    from .observability.monitor import FlightRecorder, SLOMonitor
    from .observability.request_trace import RequestTracker
    from .observability.tracer import Tracer

    tracer = Tracer()
    recorder = FlightRecorder(capacity=flight_capacity)
    tracker = RequestTracker(tracer=tracer)
    monitor = SLOMonitor(slo_ttft_s=slo_ttft_s, slo_tpot_s=slo_tpot_s,
                         recorder=recorder, tracer=tracer)
    report = chaos_fleet(**fleet, tracer=tracer, recorder=recorder,
                         request_tracker=tracker, monitor=monitor)
    seed = {**defaults(chaos_fleet), **fleet}["seed_value"]
    return MonitorReport(seed, report, tracer, monitor, recorder, tracker)


# -- activation ledger --------------------------------------------------------

class MemprofReport(NamedTuple):
    """A :func:`profiled_layer` run: the profiled layer's ledger, its
    attribution checks and the paged-KV fragmentation run."""

    config: dict  # the ledger document's config block
    model_cfg: ModelConfig
    profiler: object
    ledger: object
    tracer: object
    checks: list
    fragmentation: dict

    def to_json(self) -> dict:
        """The canonical ledger document (per-rank peak attribution,
        priced frontier, every entry) with the fragmentation runs and
        the per-rank attribution checks."""
        from .observability.memprof import ledger_document
        doc = ledger_document(self.profiler, self.ledger, config=self.config)
        doc["fragmentation"] = self.fragmentation
        doc["attribution_checks"] = [
            {"rank": c.rank, "exact": c.exact, "peak_bytes": c.peak_bytes,
             "term_drift_total": c.term_drift_total} for c in self.checks]
        return doc

    def summary(self) -> str:
        from .observability.memprof import selective_recompute_dominates
        doc, checks, config = self.to_json(), self.checks, self.config
        cats = doc["frontier_by_category"]["0"]
        top = sorted(
            ((c, agg) for c, agg in cats.items()
             if agg["bytes_per_recompute_s"] is not None),
            key=lambda kv: -kv[1]["bytes_per_recompute_s"])[:3]
        frag = self.fragmentation["paged_kv"]
        return "\n".join([
            f"memprofiled {self.model_cfg.name} layer "
            f"(b={config['microbatch']}, t={config['tensor_parallel']}, "
            f"sp={config['sequence_parallel']}, "
            f"recompute={config['recompute']}, fused={config['fused']}): "
            f"{len(self.ledger.entries)} ledger entries, "
            f"{len(self.ledger.timeline)} timeline events",
            f"  rank 0 peak {doc['peak']['0']['peak_bytes']} B, attribution "
            f"exact={all(c.exact for c in checks)} over {len(checks)} "
            f"rank(s), term drift "
            f"{max(c.term_drift_total for c in checks):.1f} B",
            f"  softmax/dropout dominate frontier: "
            f"{selective_recompute_dominates(cats)}; top categories by "
            "bytes-per-recompute-second:",
            *(f"    {cat}: {agg['nbytes']} B / {agg['recompute_s']:.3e} s "
              f"= {agg['bytes_per_recompute_s']:.3e} B/s" for cat, agg in top),
            f"  paged-KV fragmentation over {frag['rounds']} round(s): "
            f"max {frag['max_fragmentation']:.1%}, "
            f"final {frag['final_fragmentation']:.1%}"])


def profiled_layer(*, config: str = "22B", microbatch: int = 1, tp: int = 1,
                   sequence_parallel: bool = False,
                   recompute: Recompute = Recompute.NONE, fused: bool = False,
                   seed_value: int = 0) -> MemprofReport:
    """Profile one abstract layer of :func:`memprof_model` ``config``
    under the activation ledger (watched by a fresh tracer), check its
    peak attribution bitwise against the tracker and the Section 4
    closed forms, and run the seeded paged-KV fragmentation churn (and,
    fused, the fusion arena's recycling)."""
    from .comm.process_group import ProcessGroup
    from .observability.memprof import (
        arena_recycling_report,
        check_peak_attribution,
        paged_kv_fragmentation,
        profile_layer,
    )
    from .observability.tracer import Tracer
    from .parallel.layout import TensorParallel

    model_cfg = memprof_model(config)
    layout = TensorParallel(ProcessGroup(tp), sequence_parallel)
    tracer = Tracer()
    profiler, ledger = profile_layer(layout, model_cfg, microbatch, recompute,
                                     fused, tracer)
    fragmentation = {"paged_kv": paged_kv_fragmentation(seed=seed_value)}
    if fused:
        fragmentation["fusion_arena"] = arena_recycling_report()
    checks = check_peak_attribution(ledger, layout, model_cfg, microbatch,
                                    recompute)
    return MemprofReport(
        {"config": config, "microbatch": microbatch, "tensor_parallel": tp,
         "sequence_parallel": sequence_parallel,
         "recompute": recompute.value, "fused": fused},
        model_cfg, profiler, ledger, tracer, checks, fragmentation)


# -- compiled / eager twins -----------------------------------------------------

class TwinRun(NamedTuple):
    model_cfg: ModelConfig
    compiled: object
    batches: list
    losses: List[float]
    drift: float


def compiled_eager_twins(*, layers: int = 2, tp: int = 1,
                         sequence_parallel: bool = False,
                         recompute: Recompute = Recompute.NONE,
                         microbatches: int = 1, batch: int = 4,
                         steps: int = 4, seed_value: int = 1234,
                         dropout: float = 0.0) -> TwinRun:
    """Step a compiled trainer (one capture, then plan replays) and an
    eager twin over the same batches under identical per-step RNG seeds,
    so the max ``|loss delta|`` is an exact 0.0 — any drift means the
    capture diverged from the tape."""
    from .layers import GPTModel
    from .parallel.transformer import ParallelGPTModel
    from .tensor import seed
    from .training import Trainer
    from .training.data import UniformTokens

    for name, value in (("tp", tp), ("steps", steps), ("batch", batch),
                        ("microbatches", microbatches)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    model_cfg = dataclasses.replace(COMPILE_MODEL, num_layers=layers)

    def build():
        seed(seed_value)
        if tp > 1:
            return ParallelGPTModel(
                model_cfg, tensor_parallel=tp,
                sequence_parallel=sequence_parallel,
                attention_dropout=dropout, hidden_dropout=dropout,
                recompute=recompute, seed=0)
        return GPTModel(model_cfg, attention_dropout=dropout,
                        hidden_dropout=dropout, recompute=recompute, seed=0)

    compiled = Trainer(build(), lr=1e-3, compiled=True)
    eager = Trainer(build(), lr=1e-3)
    data = UniformTokens(model_cfg.vocab_size, model_cfg.seq_length,
                         seed=seed_value + 1)
    batches = [data.batch(batch) for _ in range(steps)]
    drift = 0.0
    losses = []
    for step, (ids, targets) in enumerate(batches):
        seed(seed_value + 100 + step)
        loss_c = compiled.train_step(ids, targets,
                                     num_microbatches=microbatches)
        seed(seed_value + 100 + step)
        loss_e = eager.train_step(ids, targets, num_microbatches=microbatches)
        drift = max(drift, abs(loss_c - loss_e))
        losses.append(loss_c)
    return TwinRun(model_cfg, compiled, batches, losses, drift)


# -- context-parallel traced step ----------------------------------------------

class LongctxReport(NamedTuple):
    """A :func:`context_parallel_step` run: its loss next to the serial
    reference's, and its traced collective bytes next to the closed
    form."""

    model_cfg: ModelConfig
    layout: str
    context_parallel: int
    recompute: Recompute
    batch: int
    tracer: object
    loss: float
    serial_loss: float
    traced_bytes: int
    expected_bytes: float

    def to_json(self) -> dict:
        """The run's reconciliation — serial-loss drift, traced vs
        closed-form comm bytes, the exposed/overlapped comm attribution
        — and, at its shape, the analytic overlap summary and the
        layout chooser's pick."""
        from .observability.analysis import attribute, from_tracer
        from .pipeline_sim import longctx_overlap_report
        from .planner import choose_context_layout

        cfg, b, p = self.model_cfg, self.batch, self.context_parallel
        att = attribute(from_tracer(self.tracer))
        overlap = longctx_overlap_report(cfg, b, p, self.layout,
                                         self.recompute)
        choice = choose_context_layout(cfg, b, p)
        return {
            "layout": self.layout, "context_parallel": p,
            "recompute": self.recompute.value,
            "loss": self.loss, "serial_loss": self.serial_loss,
            "loss_drift": abs(self.loss - self.serial_loss),
            "traced_comm_bytes": self.traced_bytes,
            "expected_comm_bytes": self.expected_bytes,
            "volume_exact": self.traced_bytes == self.expected_bytes,
            "attribution": {
                "exposed_comm": att.totals["exposed_comm"],
                "overlapped_comm": att.totals["overlapped_comm"],
                "coverage_error": att.coverage_error},
            "overlap": {"exposed_reduction": overlap.exposed_reduction,
                        "speedup": overlap.speedup},
            "chooser": {"layout": choice.layout,
                        "seconds_per_layer": choice.seconds_per_layer},
        }

    def summary(self) -> str:
        doc = self.to_json()
        att, overlap = doc["attribution"], doc["overlap"]
        return (
            f"longctx {self.layout} p={self.context_parallel} "
            f"recompute={self.recompute.value} "
            f"(s={self.model_cfg.seq_length}, b={self.batch}):\n"
            f"  loss {self.loss:.6f}, serial drift {doc['loss_drift']:g} "
            f"(bitwise)\n"
            f"  traced comm {fmt_bytes(self.traced_bytes)} vs closed form "
            f"{fmt_bytes(self.expected_bytes)} "
            f"({'exact' if doc['volume_exact'] else 'MISMATCH'})\n"
            f"  exposed comm {att['exposed_comm']:.6f} s, overlapped "
            f"{att['overlapped_comm']:.6f} s "
            f"(coverage error {att['coverage_error']:g})\n"
            f"  analytic overlap: exposed-comm reduction "
            f"{overlap['exposed_reduction']:.2f}x, step speedup "
            f"{overlap['speedup']:.3f}x\n"
            f"  chooser pick at this shape: {doc['chooser']['layout']}")


def context_parallel_step(*, layout: str = "ulysses",
                          context_parallel: int = 2,
                          recompute: Recompute = Recompute.FULL,
                          seq_length: int = 16, seed_value: int = 4,
                          overlap: bool = True) -> LongctxReport:
    """One traced forward/backward of a context-parallel (Ulysses or
    ring) model cloned from a serial reference — whose loss on the same
    batch is returned alongside — with checkpoint-segment recompute
    overlapping in-flight collectives unless ``overlap`` is off.  The
    traced collective bytes come back next to the layout's closed-form
    volume."""
    import numpy as np

    from . import longctx
    from .layers import GPTModel, token_tensor
    from .observability.tracer import Tracer, trace_scope
    from .tensor.functions import MaskSource

    p, b = context_parallel, 2
    model_cfg = dataclasses.replace(LONGCTX_MODEL, seq_length=seq_length)
    ms = MaskSource(seed=seed_value + 1, keep_prob=0.9)
    serial = GPTModel(model_cfg, seed=seed_value, mask_source=ms)
    rng = np.random.default_rng(seed_value + 2)
    ids = rng.integers(0, model_cfg.vocab_size,
                       size=(model_cfg.seq_length, b)).astype(np.int64)
    tgt = rng.integers(0, model_cfg.vocab_size,
                       size=(model_cfg.seq_length, b)).astype(np.int64)
    vocab = model_cfg.vocab_size
    serial_loss = serial(token_tensor(ids, vocab), token_tensor(tgt, vocab)).item()

    model = longctx.LongContextGPTModel(
        model_cfg, context_parallel=p, layout=layout, recompute=recompute,
        mask_source=ms, serial=serial)
    tracer = Tracer()
    with trace_scope(tracer):
        with (longctx.recompute_overlap_scope() if overlap
              else contextlib.nullcontext()):
            loss = model(token_tensor(ids, vocab, world=p),
                         token_tensor(tgt, vocab, world=p))
            loss.backward()
    model.finish_grad_sync()

    cp = model.layout
    traced = sum(s.args["bytes"] for s in tracer.spans
                 if s.subsystem == "comm" and cp.owns_span(s.name))
    expected = model_cfg.num_layers * cp.layer_bytes(model_cfg, b, p)
    if recompute != Recompute.NONE:
        expected += model_cfg.num_layers * cp.replay_bytes(model_cfg, b, p)
    return LongctxReport(model_cfg, layout, p, recompute, b, tracer,
                         loss.item(), serial_loss, traced, expected)
