"""The five workloads: what one unit of work is, and how it is checked.

Each workload is built from ``--seed`` alone (model init, data, request
stream), runs closed-loop on one thread, and exposes

* ``unit()`` — one unit of work; returns the work items done (tokens
  trained, tokens generated, analytic queries answered) and raises or
  returns a failed check through :class:`UnitFailed`;
* ``stats()`` — the end-of-run check: one instrumented unit reduced to
  the *simulated* statistics (op counts, tracker peak bytes, collective
  calls and bytes, ``ServeReport`` numbers, hashes), which repeat
  exactly and are compared with ``expected.json``.

Why these five is recorded next to each class and in ``BENCHMARK.json``.
The three train workloads share one model shape (the ``substrate``
preset: L=2, h=128, a=4, s=64, v=64, batch 4 -> 256 tokens per unit) so
that a kernel change moves them by a comparable absolute amount.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List

import numpy as np

from repro import experiments
from repro.comm import collectives
from repro.config import PAPER_CONFIGS, ModelConfig
from repro.fusion import default_arena, reset_arena
from repro.layers import GPTModel
from repro.layers.transformer import Recompute
from repro.observability.analysis import memory_term_drift
from repro.observability.serialize import to_jsonable
from repro.parallel.transformer import ParallelGPTModel
from repro.planner import enumerate_options, plan
from repro.serving import (ContinuousBatchingScheduler, DecodeEngine,
                           PagedKVCache, RequestSpec, ServingPerfModel)
from repro.tensor import MemoryTracker, OpLog, instrument, seed as seed_rng
from repro.tensor import backend as bk
from repro.tensor.oplog import OpKind, Phase
from repro.training import Adam, Trainer, UniformTokens
from repro.training.trainer import PipelinedGPT

BATCH = 4
MICROBATCHES = 2
TENSOR_PARALLEL = 2
PIPELINE_PARALLEL = 2


class UnitFailed(Exception):
    """A unit ran but its output failed the per-unit check."""


def _train_config() -> ModelConfig:
    return ModelConfig(name="substrate", num_layers=2, hidden_size=128,
                       num_heads=4, seq_length=64, vocab_size=64)


def _digest(obj) -> str:
    payload = json.dumps(to_jsonable(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _oplog_counts(log: OpLog) -> Dict[str, int]:
    return {
        "oplog_records": len(log.records),
        "oplog_gemms": sum(1 for r in log.records if r.kind == OpKind.GEMM),
        "oplog_recompute_records": sum(
            1 for r in log.records if r.phase == Phase.RECOMPUTE),
        "oplog_fused_records": sum(1 for r in log.records if r.fused),
    }


class _CollectiveCounter:
    """Data-plane observer: calls and wire bytes of every collective,
    with the byte convention of ``observability.tracer`` (fp16 wire, an
    all-gather moves every rank's shard)."""

    WIRE_BYTES = 2

    def __init__(self):
        self.calls = 0
        self.nbytes = 0

    def __call__(self, op: str, shards) -> None:
        nbytes = bk.size_of(shards[0]) * self.WIRE_BYTES
        if op == "all_gather":
            nbytes *= len(shards)
        self.calls += 1
        self.nbytes += nbytes


class _TrainWorkload:
    """Shared shape, data and loss bookkeeping of the train workloads."""

    work_per_unit = BATCH * 64          # tokens per step
    warmup_units = 3
    SEED_DEPENDENT = ("first_losses",)
    INVARIANTS = {"losses_finite": True, "loss_decreased": True,
                  "tracker_live_bytes_after": 0}

    def __init__(self, seed: int):
        self.seed = seed
        self.config = _train_config()
        self.ids, self.targets = UniformTokens(
            self.config.vocab_size, self.config.seq_length,
            seed=seed + 1).batch(BATCH)
        self.losses: List[float] = []
        seed_rng(seed)

    def _step(self) -> float:
        raise NotImplementedError

    def unit(self) -> int:
        loss = self._step()
        self.losses.append(loss)
        if not math.isfinite(loss):
            raise UnitFailed(f"non-finite loss {loss!r}")
        return self.work_per_unit

    def _loss_stats(self) -> dict:
        return {
            "first_losses": self.losses[:3],
            "losses_finite": all(math.isfinite(x) for x in self.losses),
            "loss_decreased": self.losses[-1] < self.losses[0],
        }


class TrainSerialEager(_TrainWorkload):
    """``Trainer.train_step`` on the serial ``GPTModel``: no recompute, no
    fusion, no compiler, no communication.  The kernel-bound baseline
    (ROADMAP item 2's target)."""

    name = "train_serial_eager"
    ref_runs = 2
    compiled = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self.trainer = self._trainer(self.compiled)

    def _trainer(self, compiled: bool) -> Trainer:
        model = GPTModel(self.config, seed=self.seed, fused=False)
        return Trainer(model, Adam(model.parameters(), lr=1e-3),
                       compiled=compiled)

    def _step(self) -> float:
        return self.trainer.train_step(self.ids, self.targets)

    def stats(self) -> dict:
        log, tracker = OpLog(), MemoryTracker()
        with instrument(memory=tracker, oplog=log):
            self.unit()
        out = self._loss_stats()
        out.update(_oplog_counts(log))
        out["tracker_peak_bytes"] = tracker.peak_bytes(0)
        out["tracker_live_bytes_after"] = tracker.live_bytes(0)
        return out


class TrainCompiledReplay(TrainSerialEager):
    """The same model, seed and data behind ``Trainer(compiled=True)``:
    the same kernels with the tape replaced by plan replay, so a
    tape/dispatch change moves this workload's twin and not this one."""

    name = "train_compiled_replay"
    compiled = True
    INVARIANTS = dict(TrainSerialEager.INVARIANTS,
                      replay_equals_eager_bitwise=True,
                      plan_cache_plans=1, plan_cache_misses_per_unit=0)

    def stats(self) -> dict:
        plans = self.trainer.plans
        hits_before, misses_before = plans.hits, plans.misses
        out = super().stats()
        out["plan_ops"] = plans.plans()[0].num_ops
        out["plan_cache_plans"] = plans.stats()["plans"]
        out["plan_cache_hits_per_unit"] = plans.hits - hits_before
        out["plan_cache_misses_per_unit"] = plans.misses - misses_before
        # Bitwise twin: an eager trainer from the same seed must reproduce
        # the first (capture + replay) losses exactly.
        seed_rng(self.seed)
        twin = self._trainer(compiled=False)
        twin_losses = [twin.train_step(self.ids, self.targets)
                       for _ in range(3)]
        out["replay_equals_eager_bitwise"] = twin_losses == self.losses[:3]
        return out


class TrainParallelSelective(_TrainWorkload):
    """The paper's headline layout on four simulated GPUs: tp=2 with
    sequence parallelism, selective recompute, fused kernels, pp=2 with
    two microbatches through the 1F1B executor.  Glue-bound: collectives
    and shard shuffling, checkpoint recompute, the arena and the pipeline
    executor, none of which the serial workloads touch."""

    name = "train_parallel_selective"
    ref_runs = 2
    INVARIANTS = dict(_TrainWorkload.INVARIANTS,
                      memory_model_drift_bytes=0.0,
                      collective_bytes_equal_closed_form=True,
                      arena_misses_per_unit=0)

    def __init__(self, seed: int):
        super().__init__(seed)
        reset_arena()
        self.model = self._model(fused=True)
        self.pipe = PipelinedGPT(self.model, PIPELINE_PARALLEL)
        self.optimizer = Adam(self.model.parameters(), lr=1e-3)

    def _model(self, fused: bool) -> ParallelGPTModel:
        return ParallelGPTModel(
            self.config, tensor_parallel=TENSOR_PARALLEL,
            sequence_parallel=True, recompute=Recompute.SELECTIVE,
            seed=self.seed, fused=fused)

    def _step(self) -> float:
        return self.pipe.fit_step(self.optimizer, self.ids, self.targets,
                                  MICROBATCHES)

    def _closed_form_collective_bytes(self) -> int:
        """Wire bytes of one step under tensor + sequence parallelism.

        Per microbatch every layer moves ten ``s*b*h`` tensors (Section
        4.2.2's four all-gathers and four reduce-scatters, plus the two
        backward re-gathers of the ``Y_i^s`` trick); the embedding adds
        one all-reduce forward and one gather backward, the LM head one
        all-gather matmul (gather, re-gather, reduce-scatter).  The
        vocab-parallel loss reduces three ``s*b`` vectors per microbatch
        and the step ends by all-reducing the 4L sequence-parallel
        LayerNorm parameter gradients of ``h`` elements each."""
        c, m = self.config, MICROBATCHES
        sb = c.seq_length * (BATCH // m)
        elements = (m * (10 * c.num_layers + 5) * sb * c.hidden_size
                    + 3 * m * sb + 4 * c.num_layers * c.hidden_size)
        return elements * _CollectiveCounter.WIRE_BYTES

    def stats(self) -> dict:
        arena_before = default_arena().stats()
        log = OpLog()
        trackers = [MemoryTracker() for _ in range(PIPELINE_PARALLEL)]
        counter = _CollectiveCounter()
        collectives.install_trace_hook(counter)
        try:
            with instrument(oplog=log):
                self.optimizer.zero_grad()
                result = self.pipe.train_step(
                    self.ids, self.targets, MICROBATCHES, trackers=trackers)
                self.optimizer.step()
        finally:
            collectives.install_trace_hook(None)
        self.losses.append(result.loss)
        arena_after = default_arena().stats()

        # Kernels the fused engine removed: the same step on an unfused
        # twin, compute records before minus after.
        unfused_log = OpLog()
        twin = PipelinedGPT(self._model(fused=False), PIPELINE_PARALLEL)
        with instrument(oplog=unfused_log):
            twin.train_step(self.ids, self.targets, MICROBATCHES)

        def compute(records):
            return sum(1 for r in records
                       if r.kind in (OpKind.GEMM, OpKind.ELEMENTWISE))

        comm_log = [r for r in log.records if r.comm is not None]
        drift = memory_term_drift(
            self.config, BATCH // MICROBATCHES, TENSOR_PARALLEL,
            sequence_parallel=True, recompute=Recompute.SELECTIVE, fused=True)
        out = self._loss_stats()
        out.update(_oplog_counts(log))
        out.update({
            "tracker_peak_bytes": trackers[0].peak_bytes(0),
            "tracker_peak_bytes_last_stage": trackers[-1].peak_bytes(0),
            "tracker_live_bytes_after": sum(t.live_bytes() for t in trackers),
            "memory_model_drift_bytes": drift.total_drift,
            "collective_calls": counter.calls,
            "collective_bytes": counter.nbytes,
            "collective_bytes_equal_closed_form":
                counter.nbytes == self._closed_form_collective_bytes(),
            "oplog_comm_records": len(comm_log),
            "oplog_comm_bytes": sum(r.comm.nbytes for r in comm_log),
            "kernels_eliminated": compute(unfused_log.records)
            - compute(log.records),
            "arena_hits_per_unit": arena_after["hits"] - arena_before["hits"],
            "arena_misses_per_unit": (arena_after["misses"]
                                      - arena_before["misses"]),
        })
        return out


class ServeContinuous:
    """One ``ContinuousBatchingScheduler.run`` over 24 requests on a TP=2
    ``DecodeEngine`` with a tight 24-block paged KV cache (swap
    preemption, max batch 8).  The same tensor/layers/parallel stack used
    forward-only on tiny ragged GEMMs: call-count-bound, so per-call
    set-up cost added to speed up training kernels shows here as a loss."""

    name = "serve_continuous"
    ref_runs = 10
    warmup_units = 1
    NUM_REQUESTS, BLOCK_SIZE, NUM_BLOCKS, MAX_BATCH = 24, 4, 24, 8
    SEED_DEPENDENT = ("preemptions", "resumes", "decode_steps",
                      "sim_tokens_per_s", "token_digest", "peak_kv_occupancy",
                      "collective_calls", "collective_bytes")
    INVARIANTS = {"completed": NUM_REQUESTS, "tokens_generated": 504,
                  "kv_drift_bytes": 0.0}

    def __init__(self, seed: int):
        self.seed = seed
        self.config = ModelConfig(name="serve", num_layers=2, hidden_size=128,
                                  num_heads=4, seq_length=64, vocab_size=32)
        serial = GPTModel(self.config, seed=seed)
        self.model = ParallelGPTModel(
            self.config, tensor_parallel=TENSOR_PARALLEL,
            attention_dropout=0.0, hidden_dropout=0.0, serial=serial)
        self.perf = ServingPerfModel(self.config,
                                     tensor_parallel=TENSOR_PARALLEL)
        self.specs = self._requests(seed)
        self.report = None
        self.token_digest = None

    def _requests(self, seed: int) -> List[RequestSpec]:
        """The open-loop stream of ``serving.generate_requests`` (prompt
        1-3 tokens, 2-40 new tokens, 5000 arrivals/s) with one change:
        the seed draws token ids, arrival times and the *order* of the
        lengths, not the lengths themselves, so every seed asks for the
        same 48 prompt and 504 generated tokens and unit times compare
        across seeds."""
        rng = np.random.default_rng(seed)
        prompt_lengths = rng.permutation(np.repeat([1, 2, 3],
                                                   self.NUM_REQUESTS // 3))
        budgets = rng.permutation(
            np.linspace(2, 40, self.NUM_REQUESTS).round().astype(int))
        clock = 0.0
        specs = []
        for i in range(self.NUM_REQUESTS):
            clock += float(rng.exponential(1.0 / 5000.0))
            prompt = rng.integers(0, self.config.vocab_size,
                                  size=int(prompt_lengths[i])).astype(np.int64)
            specs.append(RequestSpec(
                index=i, request_id=f"req{i}", arrival_s=clock, prompt=prompt,
                max_new_tokens=int(budgets[i])))
        return specs

    def unit(self) -> int:
        cache = PagedKVCache(self.config, tensor_parallel=TENSOR_PARALLEL,
                             block_size=self.BLOCK_SIZE,
                             num_blocks=self.NUM_BLOCKS)
        scheduler = ContinuousBatchingScheduler(
            DecodeEngine(self.model, cache), self.perf, policy="swap",
            max_batch=self.MAX_BATCH, seed=self.seed)
        report = scheduler.run(self.specs)
        digest = _digest([r["generated_tokens"] for r in report.per_request])
        if self.token_digest is None:
            self.token_digest = digest
        if report.completed != self.NUM_REQUESTS:
            raise UnitFailed(f"{report.completed} of {self.NUM_REQUESTS} "
                             "requests completed")
        if digest != self.token_digest:
            raise UnitFailed("generated tokens differ between units")
        self.report = report
        return report.tokens_generated

    def stats(self) -> dict:
        counter = _CollectiveCounter()
        collectives.install_trace_hook(counter)
        try:
            self.unit()
        finally:
            collectives.install_trace_hook(None)
        report = self.report
        return {
            "completed": report.completed,
            "tokens_generated": report.tokens_generated,
            "preemptions": report.preemptions,
            "resumes": report.resumes,
            "decode_steps": sum(1 for e in report.timeline
                                if e["event"] == "decode"),
            "sim_tokens_per_s": report.tokens_per_s,
            "kv_drift_bytes": report.kv_drift_bytes,
            "peak_kv_occupancy": report.peak_kv_occupancy,
            "token_digest": self.token_digest,
            "collective_calls": counter.calls,
            "collective_bytes": counter.nbytes,
        }


class AnalyticReport:
    """One pass over the paper-scale menu (``repro report/table/plan``):
    Tables 2/4/5, Figures 7/8, Section 5, Appendix C and the 22B planner
    — eight queries.  Pure Python on abstract arrays: the simulated
    clock's own host cost.  Kernel work must leave it flat."""

    name = "analytic_report"
    ref_runs = 30
    warmup_units = 1
    work_per_unit = 8
    SEED_DEPENDENT = ()
    INVARIANTS = {}

    def __init__(self, seed: int):
        # Paper-scale configurations are fixed; nothing is drawn from the seed.
        self.seed = seed
        self.digest = None
        self.values = None

    def unit(self) -> int:
        values = [
            experiments.table2_data(),
            experiments.figure7_data(),
            experiments.section5_data(),
            experiments.table4_data(),
            experiments.table5_data(),
            experiments.figure8_data(),
            experiments.appendix_c_data(),
            plan(PAPER_CONFIGS["22B"]),
        ]
        digest = _digest(values)
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            raise UnitFailed("analytic values differ between units")
        self.values = values
        return self.work_per_unit

    def stats(self) -> dict:
        # Every unit already compared its values with the first unit's;
        # the end-of-run check pins that digest and the planner's search.
        return {
            "values_digest": self.digest,
            "planner_options": len(enumerate_options(PAPER_CONFIGS["22B"])),
            "planner_choice": self.values[-1].description,
            "table4_rows": len(self.values[3]),
            "table5_rows": len(self.values[4]),
        }


def load_expected() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path) as handle:
        return json.load(handle)


def check_stats(workload, stats: dict, expected: dict) -> List[str]:
    """Compare one end-of-run ``stats()`` with the workload's invariants
    and with ``expected`` (the parsed ``expected.json``, or an empty dict
    while it is being written); returns one message per mismatch.

    Simulated statistics must match exactly.  The first three losses are
    held to rtol 1e-6: tolerant of ulp-level kernel rewrites, not of a
    silent float32 switch.  Seed-dependent values are only compared at
    the seed ``expected.json`` was written for."""
    problems = []
    for key, want in workload.INVARIANTS.items():
        if stats.get(key) != want:
            problems.append(f"{key}: {stats.get(key)!r}, must be {want!r}")
    same_seed = expected.get("seed") == workload.seed
    for key, want in expected.get("stats", {}).get(workload.name, {}).items():
        if key in workload.SEED_DEPENDENT and not same_seed:
            continue
        got = stats.get(key)
        if key == "first_losses":
            close = got is not None and len(got) == len(want) and all(
                math.isclose(g, w, rel_tol=1e-6) for g, w in zip(got, want))
            if not close:
                problems.append(f"{key}: {got!r}, expected {want!r}")
        elif got != want:
            problems.append(f"{key}: {got!r}, expected {want!r}")
    return problems


WORKLOADS = {cls.name: cls for cls in (
    TrainSerialEager, TrainCompiledReplay, TrainParallelSelective,
    ServeContinuous, AnalyticReport)}
