"""Training loops: single-stage with gradient accumulation, and a real
1F1B pipelined executor.

The pipelined executor partitions a :class:`GPTModel` (any layout) into
``p x m`` layer groups (``m`` interleaved virtual chunks per rank, as in
Megatron's interleaved schedule) and drives them microbatch-by-microbatch
in exact (interleaved) 1F1B order — the same op stream
:mod:`repro.pipeline_sim.schedule` produces — passing activations forward
and gradients backward across group boundaries.  It is numerically
identical to plain gradient accumulation (verified in tests) and, when
given per-stage memory trackers, produces a *measured* per-stage
activation profile: the toy-scale analogue of Figure 9.

It also implements Appendix C's **microbatch-level activation
recomputation**: given per-stage full-storage slot counts, the executor
skips checkpointing for as many in-flight microbatches as the slots
allow, re-using a slot as soon as its microbatch's backward completes
(the "moving window" of Figure 10.b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.collectives import active_fault_injector
from ..compiler import CaptureRecorder, PlanCache, PlanRuntime, capture_scope
from ..errors import CollectiveTimeout, ConfigError, CorruptionDetected, ScheduleError
from ..observability.tracer import active_tracer, span_or_null
from ..layers.embedding import token_tensor
from ..layers.transformer import GPTModel, Recompute
from ..pipeline_sim.schedule import (
    Op, OpKind, StorageWindow, schedule_interleaved, validate_schedule,
    walk_schedule,
)
from ..tensor import MemoryTracker, Tensor, instrument
from ..tensor.context import ctx as execution_context
from .optimizer import Adam


# -- compiled-mode external closures -----------------------------------------
# Engine-level side effects (spans, loss reads, tracker swaps, boundary
# copies) are recorded as plan externals.  Each closure reads *all*
# step-varying state dynamically — the active tracer, the runtime holder,
# a register's current shards — so one plan serves every subsequent step
# and emits byte-identical artifacts whether or not a tracer is installed
# at replay time.

def _span_begin(name: str, **args):
    def begin():
        tracer = active_tracer()
        if tracer is not None:
            tracer.begin_span(name, "train", None, **args)
    return begin


def _span_end():
    def end():
        tracer = active_tracer()
        if tracer is not None:
            tracer.end_span()
    return end


def _append_item(sink: list, tensor: Tensor):
    def append():
        sink.append(tensor.item())
    return append


def _pipe_span_begin(rt: PlanRuntime, kind: str, mb: int, group: int, rank: int):
    def begin():
        tracer = active_tracer()
        if tracer is None:
            rt.span_stack.append(None)
            return
        scope = tracer.rank_scope(rank)
        scope.__enter__()
        span = tracer.span(f"{kind} mb{mb} g{group}", rank=rank,
                           microbatch=mb, group=group)
        span.__enter__()
        rt.span_stack.append((span, scope))
    return begin


def _pipe_span_end(rt: PlanRuntime):
    def end():
        top = rt.span_stack.pop()
        if top is not None:
            span, scope = top
            span.__exit__(None, None, None)
            scope.__exit__(None, None, None)
    return end


def _mem_push(rt: PlanRuntime, rank: int):
    def push():
        c = execution_context()
        rt._prev_memory.append(c.memory)
        c.memory = rt.trackers[rank]
    return push


def _mem_pop(rt: PlanRuntime):
    def pop():
        execution_context().memory = rt._prev_memory.pop()
    return pop


def _leaf_rebind(leaf: Tensor, prev: Tensor):
    def rebind():
        leaf.shards = [np.asarray(s).copy() for s in prev.shards]
        leaf.grad = None
    return rebind


def split_microbatches(ids: np.ndarray, targets: np.ndarray,
                       num_microbatches: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split ``(s, b)`` arrays into ``num_microbatches`` along batch."""
    b = ids.shape[1]
    if b % num_microbatches != 0:
        raise ConfigError(f"batch {b} not divisible by {num_microbatches} microbatches")
    return [
        (i, t) for i, t in zip(
            np.split(ids, num_microbatches, axis=1),
            np.split(targets, num_microbatches, axis=1),
        )
    ]


def run_step_with_retries(step_fn, max_retries: int = 3,
                          backoff_base_s: float = 0.05,
                          backoff_factor: float = 2.0):
    """Run ``step_fn`` again after a *transient* collective fault.

    Collective timeouts and detected payload corruption abort a step
    attempt before any optimizer state changed (gradients are re-zeroed
    on entry), so re-running the whole step is exact.  Backoff between
    attempts is exponential and charged to the simulated clock via the
    installed fault injector, if any.  After ``max_retries`` failed
    retries the last error propagates; rank failures are not transient
    and propagate immediately (the resilience layer rolls back instead).
    """
    attempt = 0
    while True:
        try:
            return step_fn()
        except (CollectiveTimeout, CorruptionDetected) as error:
            if attempt >= max_retries:
                raise
            backoff = backoff_base_s * backoff_factor ** attempt
            attempt += 1
            injector = active_fault_injector()
            if injector is not None:
                injector.on_retry(getattr(injector, "step", -1), error, backoff)


class Trainer:
    """Gradient-accumulation training of a (serial or parallel) GPT.

    ``compiled=True`` captures the first step per ``(config, batch shape,
    num_microbatches)`` key through :mod:`repro.compiler` and replays the
    static plan on every later step — bitwise-identical losses, gradients
    and tracked memory, with no per-step tape construction.  The memory
    profiler needs the live tape's op frames, so steps taken while a
    memprof is installed fall back to eager execution.
    """

    def __init__(self, model: GPTModel, optimizer: Optional[Adam] = None,
                 lr: float = 1e-3, compiled: bool = False):
        self.model = model
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        self.world = model.group.size
        self.steps_completed = 0
        self.compiled = compiled
        self.plans = PlanCache()

    def train_step(self, ids: np.ndarray, targets: np.ndarray,
                   num_microbatches: int = 1) -> float:
        """One iteration: accumulate grads over microbatches, then step."""
        if self.compiled and execution_context().memprof is None:
            return self._train_step_compiled(ids, targets, num_microbatches)
        tracer = active_tracer()
        self.optimizer.zero_grad()
        total = 0.0
        with span_or_null(tracer, "step", step=self.steps_completed):
            for mb, (mb_ids, mb_targets) in enumerate(
                    split_microbatches(ids, targets, num_microbatches)):
                with span_or_null(tracer, "forward", microbatch=mb):
                    loss = self.model(
                        token_tensor(mb_ids, world=self.world),
                        token_tensor(mb_targets, world=self.world),
                    )
                seed = [np.asarray(1.0 / num_microbatches)] * loss.world
                with span_or_null(tracer, "backward", microbatch=mb):
                    loss.backward(seed)
                total += loss.item()
            with span_or_null(tracer, "grad_sync"):
                self.model.finish_grad_sync()
            with span_or_null(tracer, "optimizer.step"):
                self.optimizer.step()
        self.steps_completed += 1
        if tracer is not None and tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_train_steps_total", "completed optimizer steps").inc()
        return total / num_microbatches

    # -- compiled mode -------------------------------------------------------
    def _plan_key(self, ids: np.ndarray, targets: np.ndarray,
                  num_microbatches: int):
        return (getattr(self.model, "config", None), type(self.model).__name__,
                ids.shape, targets.shape, num_microbatches)

    def _train_step_compiled(self, ids: np.ndarray, targets: np.ndarray,
                             num_microbatches: int) -> float:
        tracer = active_tracer()
        self.optimizer.zero_grad()
        key = self._plan_key(ids, targets, num_microbatches)
        plan = self.plans.get(key)
        with span_or_null(tracer, "step", step=self.steps_completed):
            if plan is None:
                plan = self._capture_step_plan(ids, targets, num_microbatches)
                self.plans.put(key, plan)
            else:
                rt = plan.runtime
                rt.losses.clear()
                for mb, (mb_ids, mb_targets) in enumerate(
                        split_microbatches(ids, targets, num_microbatches)):
                    plan.bind(("ids", mb),
                              token_tensor(mb_ids, world=self.world).shards)
                    plan.bind(("targets", mb),
                              token_tensor(mb_targets, world=self.world).shards)
                plan.replay()
            total = sum(plan.runtime.losses, 0.0)
            with span_or_null(tracer, "grad_sync"):
                self.model.finish_grad_sync()
            with span_or_null(tracer, "optimizer.step"):
                self.optimizer.step()
        self.steps_completed += 1
        if tracer is not None and tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_train_steps_total", "completed optimizer steps").inc()
        return total / num_microbatches

    def _capture_step_plan(self, ids: np.ndarray, targets: np.ndarray,
                           num_microbatches: int):
        """Trace one eager step (the capture *is* the step) into a plan."""
        recorder = CaptureRecorder(label="train_step")
        rt = PlanRuntime()
        with capture_scope(recorder):
            for mb, (mb_ids, mb_targets) in enumerate(
                    split_microbatches(ids, targets, num_microbatches)):
                ids_t = token_tensor(mb_ids, world=self.world)
                targets_t = token_tensor(mb_targets, world=self.world)
                recorder.bind_input(("ids", mb), ids_t)
                recorder.bind_input(("targets", mb), targets_t)
                recorder.external(_span_begin("forward", microbatch=mb))
                loss = self.model(ids_t, targets_t)
                recorder.external(_span_end())
                seed = [np.asarray(1.0 / num_microbatches)] * loss.world
                recorder.external(_span_begin("backward", microbatch=mb))
                loss.backward(seed)
                recorder.external(_span_end())
                recorder.external(_append_item(rt.losses, loss))
        return recorder.finalize(runtime=rt)

    def train_step_with_retry(self, ids: np.ndarray, targets: np.ndarray,
                              num_microbatches: int = 1, max_retries: int = 3,
                              backoff_base_s: float = 0.05,
                              backoff_factor: float = 2.0) -> float:
        """:meth:`train_step` under :func:`run_step_with_retries`."""
        return run_step_with_retries(
            lambda: self.train_step(ids, targets, num_microbatches),
            max_retries=max_retries, backoff_base_s=backoff_base_s,
            backoff_factor=backoff_factor)

    def evaluate(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """Validation loss on one ``(s, b)`` batch.

        The model is flipped to :meth:`Module.eval` (dropout off — the
        stochastic regularizer must not perturb the validation metric)
        and restored to training mode afterwards; no gradients are built
        and no optimizer state changes.
        """
        from ..tensor import no_grad

        tracer = active_tracer()
        self.model.eval()
        try:
            with span_or_null(tracer, "validation"), no_grad():
                loss = self.model(
                    token_tensor(ids, world=self.world),
                    token_tensor(targets, world=self.world),
                )
                value = loss.item()
        finally:
            self.model.train()
        return value


@dataclass
class PipelineStepResult:
    loss: float
    peak_stage_bytes: List[int]
    #: per pipeline rank: microbatches that kept all activations
    #: (Appendix C microbatch-level recomputation; zeros when disabled)
    microbatches_stored_full: List[int] = None


class PipelinedGPT:
    """(Interleaved) 1F1B pipelined execution of a ``GPTModel``.

    The model's ``L`` layers are cut into ``p * m`` groups; group ``g``
    lives on pipeline rank ``g % p`` as its chunk ``g // p``.  Group 0
    additionally owns the embedding and the last group the LM head.
    ``train_step`` runs the exact (interleaved) 1F1B op order and
    accumulates parameter gradients, leaving the optimizer step to the
    caller (or use :meth:`fit_step`).

    ``full_storage_slots`` (per pipeline rank) enables Appendix C's
    microbatch-level recomputation: while a rank has a free slot, an
    arriving microbatch keeps **all** activations (its layers'
    checkpointing is bypassed); otherwise it is checkpointed as usual.
    Slots free when the owning microbatch's last backward on that rank
    completes — the moving window of Figure 10.b.
    """

    def __init__(self, model: GPTModel, pipeline_parallel: int,
                 interleave_stages: int = 1, compiled: bool = False):
        L = len(model.layers)
        self.num_groups = pipeline_parallel * interleave_stages
        if L % self.num_groups != 0:
            raise ConfigError(
                f"{L} layers not divisible by p*m={self.num_groups}")
        self.model = model
        self.p = pipeline_parallel
        self.m = interleave_stages
        per = L // self.num_groups
        self.group_layers = [
            model.layers[g * per:(g + 1) * per] for g in range(self.num_groups)
        ]
        self.compiled = compiled
        self.plans = PlanCache()

    # -- stage execution ------------------------------------------------------
    def _run_group(self, group: int, x: Tensor, targets: Optional[Tensor],
                   store_full: bool = False) -> Tensor:
        if group == 0:
            x = self.model.embedding(x)
        for layer in self.group_layers[group]:
            if store_full and layer.recompute != Recompute.NONE:
                saved = layer.recompute
                layer.recompute = Recompute.NONE
                try:
                    x = layer(x)
                finally:
                    layer.recompute = saved
            else:
                x = layer(x)
        if group == self.num_groups - 1:
            if targets is None:
                raise ScheduleError("last group needs targets")
            x = self.model.head(x, targets)
        return x

    def train_step(self, ids: np.ndarray, targets: np.ndarray,
                   num_microbatches: int,
                   trackers: Optional[List[MemoryTracker]] = None,
                   full_storage_slots: Optional[List[int]] = None) -> PipelineStepResult:
        """One full iteration; returns mean loss, each pipeline rank's peak
        activation bytes (max over that rank's tensor-parallel shards) and,
        under microbatch-level recomputation, how many microbatches ran
        without checkpointing per rank."""
        if self.compiled and execution_context().memprof is None:
            return self._train_step_compiled(ids, targets, num_microbatches,
                                             trackers, full_storage_slots)
        if trackers is None:
            trackers = [MemoryTracker() for _ in range(self.p)]
        losses, stored_full = self._run_schedule(
            ids, targets, num_microbatches, trackers, full_storage_slots,
            None, None)
        return self._finish_step(losses, trackers, stored_full)

    def _run_schedule(self, ids: np.ndarray, targets: np.ndarray,
                      num_microbatches: int, trackers: List[MemoryTracker],
                      full_storage_slots: Optional[List[int]],
                      recorder, rt) -> Tuple[List[float], List[int]]:
        """Drive the (interleaved) 1F1B schedule once.

        With a ``recorder`` installed this is the capture step: tape ops
        record through the context hooks while engine-level effects
        (tracker swaps, boundary copies, spans, loss reads) are emitted as
        plan externals reading the :class:`PlanRuntime` holder."""
        world = self.model.group.size
        microbatches = split_microbatches(ids, targets, num_microbatches)
        schedule = schedule_interleaved(self.p, num_microbatches, self.m)
        window = StorageWindow(full_storage_slots or [0] * self.p, schedule)
        # A schedule that cannot finish fails here, before any op has
        # accumulated a gradient or been recorded into a plan.
        validate_schedule(schedule, num_microbatches, self.m)

        outputs: Dict[Tuple[int, int], Tensor] = {}      # (mb, group) -> output
        inputs: Dict[Tuple[int, int], Tensor] = {}       # (mb, group) -> boundary leaf
        losses: List[float] = rt.losses if rt is not None else []

        tracer = active_tracer()

        def exec_op(op: Op, rank: int) -> None:
            mb, group = op.microbatch, op.group
            if op.kind == OpKind.F:
                store_full = window.forward(rank, mb)
                if group == 0:
                    x = token_tensor(microbatches[mb][0], world=world)
                    if recorder is not None:
                        recorder.bind_input(("ids", mb), x)
                else:
                    prev = outputs[(mb, group - 1)]
                    leaf = Tensor([np.asarray(s).copy() for s in prev.shards],
                                  dtype=prev.dtype, requires_grad=True,
                                  layout=prev.layout)
                    inputs[(mb, group)] = leaf
                    if recorder is not None:
                        # Replays refresh the boundary copy from the
                        # upstream register and reset its gradient.
                        recorder.external(_leaf_rebind(leaf, prev))
                    x = leaf
                if group == self.num_groups - 1:
                    tgt = token_tensor(microbatches[mb][1], world=world)
                    if recorder is not None:
                        recorder.bind_input(("targets", mb), tgt)
                else:
                    tgt = None
                outputs[(mb, group)] = self._run_group(group, x, tgt,
                                                       store_full=store_full)
                if group == self.num_groups - 1:
                    if recorder is None:
                        losses.append(outputs[(mb, group)].item())
                    else:
                        recorder.external(
                            _append_item(losses, outputs[(mb, group)]))
            else:
                out = outputs.pop((mb, group))
                if group == self.num_groups - 1:
                    grad = [np.asarray(1.0 / num_microbatches)] * out.world
                else:
                    downstream = inputs.pop((mb, group + 1))
                    if downstream.grad is None:
                        raise ScheduleError("gradient missing at stage boundary")
                    grad = downstream.grad
                    if recorder is not None:
                        # At replay the seed reads the boundary leaf's
                        # gradient (written by the downstream backward op).
                        recorder.declare_seed_source(out, ("tgrad", downstream))
                out.backward(grad)
                window.backward(rank, mb)

        def run_op(op: Op, rank: int) -> None:
            if recorder is None:
                with instrument(memory=trackers[rank]):
                    exec_op(op, rank)
            else:
                recorder.external(_mem_push(rt, rank))
                exec_op(op, rank)
                recorder.external(_mem_pop(rt))

        def run(op: Op, rank: int) -> None:
            kind = "forward" if op.kind == OpKind.F else "backward"
            if recorder is not None:
                recorder.external(
                    _pipe_span_begin(rt, kind, op.microbatch, op.group, rank))
                run_op(op, rank)
                recorder.external(_pipe_span_end(rt))
            elif tracer is None:
                run_op(op, rank)
            else:
                with tracer.rank_scope(rank), tracer.span(
                        f"{kind} mb{op.microbatch} g{op.group}", rank=rank,
                        microbatch=op.microbatch, group=op.group):
                    run_op(op, rank)

        done: set = set()
        for rank, op, key, _ in walk_schedule(schedule, self.num_groups, done):
            run(op, rank)
            done.add(key)
        return losses, window.stored_full

    def _finish_step(self, losses: List[float], trackers: List[MemoryTracker],
                     stored_full: List[int]) -> PipelineStepResult:
        """Post-schedule work shared by eager and compiled steps."""
        self.model.finish_grad_sync()
        tracer = active_tracer()
        if tracer is not None and tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_train_steps_total", "completed optimizer steps").inc()
        return PipelineStepResult(
            loss=float(np.mean(losses)),
            peak_stage_bytes=[t.peak_bytes() for t in trackers],
            microbatches_stored_full=stored_full,
        )

    def _plan_key(self, ids: np.ndarray, targets: np.ndarray,
                  num_microbatches: int,
                  full_storage_slots: Optional[List[int]]):
        slots = tuple(full_storage_slots) if full_storage_slots else (0,) * self.p
        return (ids.shape, targets.shape, num_microbatches, slots)

    def _train_step_compiled(self, ids: np.ndarray, targets: np.ndarray,
                             num_microbatches: int,
                             trackers: Optional[List[MemoryTracker]],
                             full_storage_slots: Optional[List[int]]) -> PipelineStepResult:
        if trackers is None:
            trackers = [MemoryTracker() for _ in range(self.p)]
        key = self._plan_key(ids, targets, num_microbatches, full_storage_slots)
        plan = self.plans.get(key)
        if plan is None:
            recorder = CaptureRecorder("pipeline_step")
            rt = PlanRuntime()
            rt.trackers = trackers
            with capture_scope(recorder):
                _, stored = self._run_schedule(
                    ids, targets, num_microbatches, trackers,
                    full_storage_slots, recorder, rt)
            rt.stored_full = stored
            plan = recorder.finalize(runtime=rt)
            self.plans.put(key, plan)
            return self._finish_step(list(rt.losses), trackers, list(stored))
        rt = plan.runtime
        rt.trackers = trackers
        rt.losses.clear()
        world = self.model.group.size
        microbatches = split_microbatches(ids, targets, num_microbatches)
        for mb, (mb_ids, mb_targets) in enumerate(microbatches):
            plan.bind(("ids", mb), token_tensor(mb_ids, world=world).shards)
            plan.bind(("targets", mb),
                      token_tensor(mb_targets, world=world).shards)
        plan.replay()
        return self._finish_step(list(rt.losses), trackers,
                                 list(rt.stored_full))

    def fit_step(self, optimizer: Adam, ids: np.ndarray, targets: np.ndarray,
                 num_microbatches: int) -> float:
        optimizer.zero_grad()
        result = self.train_step(ids, targets, num_microbatches)
        optimizer.step()
        return result.loss
