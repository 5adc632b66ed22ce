"""One definition per concrete-run scenario.

The concrete-run sibling of :mod:`repro.experiments`: where that module
owns the paper's tables and figures, this one owns the small *real* runs
— a pipelined traced training loop, a fault-injected data-parallel
segment, a continuous-batching serve, the chaos fleet (with or without
its telemetry stack), compiled/eager twin trainers, a context-parallel
traced step — together with the constants each one fixes: model shape,
workload parameters, pool sizes, the default chaos plan.

Two doors open onto every scenario.  ``repro <command>``
(:mod:`repro.cli`) maps argparse to the keyword arguments below and
prints the result; a ``repro bench`` preset
(:mod:`repro.observability.regress`) calls the same function at its
defaults and reduces the finished run to the gated document.  The
keyword defaults *are* the preset values — the CLI reads its argparse
defaults off these signatures — so a command at its defaults and the
preset of the same name are one run, bit for bit.

Functions return the live objects (trainer, report, fleet, tracer,
losses); nothing here formats output or assembles documents.  Spans
land on whatever tracer the caller installed or passed in.

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
    through the real migrate-vs-recompute pricing decision.  Returns
    ``(fleet, report)``; ``fault_rate=0`` is the fault-free reference."""
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
    return fleet, fleet.run(specs)


def monitored_fleet(*, slo_ttft_s: float = 0.05, slo_tpot_s: float = 0.005,
                    flight_capacity: int = 64, **fleet):
    """:func:`chaos_fleet` (``fleet`` are its keywords) with the full
    request-telemetry stack attached — flight recorder, request tracker,
    SLO burn-rate monitor — and the three exactness checks taken on the
    finished run: detections scored against the injected plan, the
    request-span partition, and TTFT/TPOT quantiles recomputed from the
    span graphs reconciled against the report's ledger.  Returns
    ``(report, tracer, monitor, recorder, tracker, score, partition,
    reconciled)``."""
    from .observability.monitor import FlightRecorder, SLOMonitor
    from .observability.request_trace import (
        RequestTracker,
        reconcile_quantiles,
        verify_partition,
    )
    from .observability.tracer import Tracer

    tracer = Tracer()
    recorder = FlightRecorder(capacity=flight_capacity)
    tracker = RequestTracker(tracer=tracer)
    monitor = SLOMonitor(slo_ttft_s=slo_ttft_s, slo_tpot_s=slo_tpot_s,
                         recorder=recorder, tracer=tracer)
    _, report = chaos_fleet(**fleet, tracer=tracer, recorder=recorder,
                            request_tracker=tracker, monitor=monitor)
    return (report, tracer, monitor, recorder, tracker,
            monitor.score_against(report), verify_partition(tracker),
            reconcile_quantiles(tracker, report))


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

class LongctxRun(NamedTuple):
    model_cfg: ModelConfig
    batch: int
    context_parallel: int
    tracer: object
    loss: float
    serial_loss: float
    traced_bytes: int
    expected_bytes: float


def context_parallel_step(*, layout: str = "ulysses",
                          context_parallel: int = 2,
                          recompute: Recompute = Recompute.FULL,
                          seq_length: int = 16, seed_value: int = 4,
                          overlap: bool = True) -> LongctxRun:
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
    serial_loss = serial(token_tensor(ids), token_tensor(tgt)).item()

    model = longctx.LongContextGPTModel(
        model_cfg, context_parallel=p, layout=layout, recompute=recompute,
        mask_source=ms, serial=serial)
    tracer = Tracer()
    with trace_scope(tracer):
        with (longctx.recompute_overlap_scope() if overlap
              else contextlib.nullcontext()):
            loss = model(token_tensor(ids, world=p),
                         token_tensor(tgt, world=p))
            loss.backward()
    model.finish_grad_sync()

    comm = [s for s in tracer.spans if s.subsystem == "comm"]
    if layout == "ulysses":
        traced = sum(s.args["bytes"] for s in comm if s.name == "all_to_all")
        layer_bytes = longctx.ulysses_layer_bytes
        extra_bytes = longctx.ulysses_selective_extra_bytes
    else:
        traced = sum(s.args["bytes"] for s in comm if "hop" in s.name)
        layer_bytes = longctx.ring_layer_bytes
        extra_bytes = longctx.ring_selective_extra_bytes
    expected = model_cfg.num_layers * layer_bytes(model_cfg, b, p)
    if recompute != Recompute.NONE:
        expected += model_cfg.num_layers * extra_bytes(model_cfg, b, p)
    return LongctxRun(model_cfg, b, p, tracer, loss.item(), serial_loss,
                      traced, expected)
