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

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..comm.collectives import active_fault_injector
from ..compiler import PlanCache, effect
from ..errors import CollectiveTimeout, ConfigError, CorruptionDetected, ScheduleError
from ..observability.tracer import active_tracer, span_or_null
from ..layers.embedding import token_tensor
from ..layers.transformer import GPTModel, Recompute
from ..pipeline_sim.schedule import (
    StorageWindow, schedule_table, validate_schedule,
)
from ..tensor import MemoryTracker, Tensor, instrument
from ..tensor.context import ctx as execution_context
from .optimizer import Adam


# -- host memory ---------------------------------------------------------------
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's malloc.h
_heap_resident: Optional[bool] = None


def keep_heap_resident() -> bool:
    """Keep the memory a training step frees resident in the heap.

    Backward frees a step's saved activations and the next forward
    allocates them again; glibc's dynamic thresholds (mmap threshold ~
    the largest freed block, trim threshold twice that) hand the freed
    heap top back to the kernel in between, so every forward would
    page-fault its working set in again.  Fixing both thresholds
    (either alone turns the dynamic rule off) keeps blocks under 32 MiB,
    the mmap threshold's 64-bit ceiling, in the heap and the freed top
    resident; no value changes.  Set once per process, from the training
    drivers' constructors only: never at import, by serving or by the
    analytic path (docs/architecture.md §2, "Host memory").  Does
    nothing where ``mallopt`` is missing; returns whether it is in force.
    """
    global _heap_resident
    if _heap_resident is None:
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (AttributeError, OSError, TypeError):  # not glibc
            _heap_resident = False
        else:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            _heap_resident = bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                                  and mallopt(_M_TRIM_THRESHOLD, 256 << 20))
    return _heap_resident


# -- step effects ------------------------------------------------------------
# What a train step does besides tape ops, called through ``effect`` so a
# captured plan repeats it.  Each reads the tracer active *when it runs*,
# so a replayed step emits the spans an eager step would whether or not a
# tracer was installed at capture.

def _begin_span(name: str, args: dict) -> None:
    tracer = active_tracer()
    if tracer is not None:
        tracer.begin_span(name, "train", None, **args)


def _end_span() -> None:
    tracer = active_tracer()
    if tracer is not None:
        tracer.end_span()


@contextmanager
def _span(name: str, **args):
    effect(_begin_span, name, args)
    try:
        yield
    finally:
        effect(_end_span)


def _read_loss(sink: List[float], loss: Tensor) -> None:
    sink.append(loss.item())


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


#: The retry rung of the recovery ladder: in-place retries of a transient
#: collective fault, with exponential backoff between them (simulated s).
MAX_RETRIES = 3
BACKOFF_BASE_S = 0.05


def run_step_with_retries(step_fn):
    """Run ``step_fn`` again after a *transient* collective fault.

    Collective timeouts and detected payload corruption abort a step
    attempt before any optimizer state changed (gradients are re-zeroed
    on entry), so re-running the whole step is exact.  Retry ``k`` (from
    0) backs off ``backoff_envelope(BACKOFF_BASE_S, k)``, charged to the
    simulated clock via the installed fault injector, if any.  After
    ``MAX_RETRIES`` failed retries the last error propagates; rank
    failures are not transient and propagate immediately (the resilience
    layer rolls back instead).  Whichever way an aborted attempt is left
    (retried here or propagated), its saved activations are dropped from
    the installed memory tracker.
    """
    attempt = 0
    tracker = execution_context().memory
    mark = None if tracker is None else tracker.mark()
    while True:
        try:
            return step_fn()
        except Exception as error:
            if tracker is not None:
                tracker.rollback(mark)
            if (not isinstance(error, (CollectiveTimeout, CorruptionDetected))
                    or attempt >= MAX_RETRIES):
                raise
            # imported here: repro.resilience imports this module
            from ..resilience.backoff import backoff_envelope
            backoff = backoff_envelope(BACKOFF_BASE_S, attempt)
            attempt += 1
            injector = active_fault_injector()
            if injector is not None:
                injector.on_retry(getattr(injector, "step", -1), error, backoff)


class Trainer:
    """Gradient-accumulation training of a (serial or parallel) GPT.

    The step is stated once (:meth:`train_step`).  ``compiled=True``
    runs its microbatch loop under a :mod:`repro.compiler` capture the
    first time a plan key is seen and replays the static plan on every
    later step — bitwise-identical losses, gradients, tracked memory and
    trace, the host bytes an eager step holds between steps, and no
    per-step tape construction.  The memory profiler needs the live
    tape's op frames, so steps taken while a memprof is installed run
    the loop eagerly.  Constructing one sets the process's
    host-memory policy (:func:`keep_heap_resident`).
    """

    def __init__(self, model: GPTModel, optimizer: Optional[Adam] = None,
                 lr: float = 1e-3, compiled: bool = False):
        keep_heap_resident()
        self.model = model
        self.optimizer = optimizer or Adam(model.parameters(), lr=lr)
        self.world = model.group.size
        self.steps_completed = 0
        self.compiled = compiled
        self.plans = PlanCache()
        #: per-microbatch losses of the step being run (the holder the
        #: loss-read effect appends to, eagerly and at replay)
        self._losses: List[float] = []

    def train_step(self, ids: np.ndarray, targets: np.ndarray,
                   num_microbatches: int = 1) -> float:
        """One iteration: accumulate grads over microbatches, then step."""
        tracer = active_tracer()
        self.optimizer.zero_grad()
        inputs = {}
        vocab = self.model.config.vocab_size
        for mb, (mb_ids, mb_targets) in enumerate(
                split_microbatches(ids, targets, num_microbatches)):
            inputs["ids", mb] = token_tensor(mb_ids, vocab, world=self.world)
            inputs["targets", mb] = token_tensor(mb_targets, vocab, world=self.world)
        losses = self._losses
        losses.clear()

        def accumulate() -> None:
            for mb in range(num_microbatches):
                with _span("forward", microbatch=mb):
                    loss = self.model(inputs["ids", mb], inputs["targets", mb])
                seed = [np.asarray(1.0 / num_microbatches)] * loss.world
                with _span("backward", microbatch=mb):
                    loss.backward(seed)
                effect(_read_loss, losses, loss)

        with span_or_null(tracer, "step", step=self.steps_completed):
            if self.compiled and execution_context().memprof is None:
                # A replay cut short by a fault never reaches its recorded
                # end-spans; the ``step`` span closes them on its way out.
                self.plans.run(self._plan_key(ids, targets, num_microbatches),
                               "train_step", inputs, accumulate)
            else:
                accumulate()
            with span_or_null(tracer, "grad_sync"):
                self.model.finish_grad_sync()
            with span_or_null(tracer, "optimizer.step"):
                self.optimizer.step()
        self.steps_completed += 1
        if tracer is not None and tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_train_steps_total", "completed optimizer steps").inc()
        return sum(losses, 0.0) / num_microbatches

    def _plan_key(self, ids: np.ndarray, targets: np.ndarray,
                  num_microbatches: int):
        """What decides the op stream of a step of this trainer: the
        shapes, the microbatch count, and the two model attributes the
        public API mutates between steps — train/eval mode and each
        layer's ``recompute``.  ``Dropout.p`` is fixed at construction
        (``eval()`` is the one public way to change what it does), so it
        is not keyed."""
        model = self.model
        return (getattr(model, "config", None), type(model).__name__,
                ids.shape, targets.shape, num_microbatches, model.training,
                tuple(layer.recompute for layer in model.layers))


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
    completes — the moving window of Figure 10.b.  Constructing one sets
    the process's host-memory policy (:func:`keep_heap_resident`).
    """

    def __init__(self, model: GPTModel, pipeline_parallel: int,
                 interleave_stages: int = 1):
        keep_heap_resident()
        L = len(model.layers)
        self.num_groups = pipeline_parallel * interleave_stages
        if L % self.num_groups != 0:
            raise ConfigError(
                f"{L} layers not divisible by p*m={self.num_groups}")
        if interleave_stages > 1 and pipeline_parallel == 1:
            raise ConfigError("interleave_stages > 1 needs pipeline_parallel > 1")
        self.model = model
        self.p = pipeline_parallel
        self.m = interleave_stages
        per = L // self.num_groups
        self.group_layers = [
            model.layers[g * per:(g + 1) * per] for g in range(self.num_groups)
        ]

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
        if trackers is None:
            trackers = [MemoryTracker() for _ in range(self.p)]
        world, vocab = self.model.group.size, self.model.config.vocab_size
        # Every microbatch's tokens pass the id rule before any op runs.
        microbatches = [(token_tensor(i, vocab, world=world), token_tensor(t, vocab, world=world))
                        for i, t in split_microbatches(ids, targets, num_microbatches)]
        schedule = schedule_table(self.p, num_microbatches, self.m)
        window = StorageWindow(full_storage_slots or [0] * self.p, schedule)
        # A schedule that cannot finish fails here, before any op has
        # accumulated a gradient.
        validate_schedule(schedule, num_microbatches)

        outputs: Dict[Tuple[int, int], Tensor] = {}      # (mb, group) -> output
        inputs: Dict[Tuple[int, int], Tensor] = {}       # (mb, group) -> boundary leaf
        losses: List[float] = []
        last = self.num_groups - 1

        def run_op(rank: int, letter: str, mb: int, group: int) -> None:
            with instrument(memory=trackers[rank]):
                if letter == "F":
                    store_full = window.forward(rank, mb)
                    if group == 0:
                        x = microbatches[mb][0]
                    else:
                        prev = outputs[(mb, group - 1)]
                        x = Tensor([np.asarray(s).copy() for s in prev.shards],
                                   dtype=prev.dtype, requires_grad=True,
                                   layout=prev.layout)
                        inputs[(mb, group)] = x
                    tgt = microbatches[mb][1] if group == last else None
                    out = self._run_group(group, x, tgt, store_full=store_full)
                    outputs[(mb, group)] = out
                    if group == last:
                        losses.append(out.item())
                else:
                    out = outputs.pop((mb, group))
                    if group == last:
                        grad = [np.asarray(1.0 / num_microbatches)] * out.world
                    else:
                        downstream = inputs.pop((mb, group + 1))
                        if downstream.grad is None:
                            raise ScheduleError(
                                "gradient missing at stage boundary")
                        grad = downstream.grad
                    out.backward(grad)
                    window.backward(rank, mb)

        tracer = active_tracer()
        for rank, (letter, mb, group) in schedule.issued():
            if tracer is None:
                run_op(rank, letter, mb, group)
            else:
                kind = "forward" if letter == "F" else "backward"
                with tracer.rank_scope(rank), tracer.span(
                        f"{kind} mb{mb} g{group}", rank=rank,
                        microbatch=mb, group=group):
                    run_op(rank, letter, mb, group)

        self.model.finish_grad_sync()
        if tracer is not None and tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_train_steps_total", "completed optimizer steps").inc()
        return PipelineStepResult(
            loss=float(np.mean(losses)),
            peak_stage_bytes=[t.peak_bytes() for t in trackers],
            microbatches_stored_full=window.stored_full,
        )

    def fit_step(self, optimizer: Adam, ids: np.ndarray, targets: np.ndarray,
                 num_microbatches: int) -> float:
        optimizer.zero_grad()
        result = self.train_step(ids, targets, num_microbatches)
        optimizer.step()
        return result.loss
