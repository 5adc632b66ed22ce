"""Elastic recovery: retry, rollback-and-replay, shrink-and-replan.

:class:`ResilientTrainer` drives a
:class:`~repro.training.data_parallel.DataParallelTrainer` through a
fault plan with the recovery ladder a production job runs.  Each rung
and its policy is stated once:

1. **retry with exponential backoff** — transient collective faults
   (timeouts, detected corruption) abort the step attempt before any
   optimizer state changed, so re-running the step from its start is
   exact (the trainers re-zero gradients on entry).  The rung is
   :func:`repro.training.trainer.run_step_with_retries`: at most
   ``MAX_RETRIES`` retries, ``backoff_envelope(BACKOFF_BASE_S, attempt)``
   simulated seconds apart;
2. **rollback and replay** — a rank crash, or a transient fault that
   outlived every retry, restarts training from the last periodic
   checkpoint (written every ``checkpoint_interval`` steps through
   :mod:`repro.training.serialization`, checksummed) and replays the
   intervening steps; batches are keyed by step index and dropout masks
   come from a stateless tag-keyed source, so the replay is
   bit-identical to a run that never crashed.  A run takes at most
   :data:`MAX_ROLLBACKS` rollbacks, then raises;
3. **shrink and replan** — a *permanent* rank loss removes the dead
   replica from the data-parallel group, re-invokes the recomputation
   planner (:func:`repro.planner.replan_after_shrink`) to re-fit the
   plan to the surviving configuration, then rolls back and replays.
   Because dp-way gradient averaging over a fixed global batch is exact
   (the repository's verified data-parallel property), the shrunken
   group continues on the same trajectory.

Each action is recorded once, through :meth:`ResilienceReport.recover`.
The determinism standard is the repository's usual one: for any fault
plan, the final weights must be bitwise-identical to the fault-free run
at the same seed (asserted in ``tests/test_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..comm.collectives import fault_scope
from ..config import ExperimentConfig
from ..errors import CommError, ConfigError, RankFailure, ReproError
from ..flops_model import hardware_flops_per_iteration
from ..layers.transformer import Recompute
from ..planner.planner import PlanOption, replan_after_shrink
from ..training.data_parallel import DataParallelTrainer
from ..training.trainer import run_step_with_retries
from ..training.serialization import load_training_state, save_training_state
from .faults import FaultPlan
from .injector import FaultInjector
from .report import RecoveryRecord, ResilienceReport

#: ``batch_fn(step) -> (ids, targets)`` — must be a pure function of the
#: step index so rollback-and-replay reproduces the exact token stream.
BatchFn = Callable[[int], Tuple[np.ndarray, np.ndarray]]


def make_step_batches(vocab_size: int, seq_length: int, batch_size: int,
                      seed: int = 0) -> BatchFn:
    """A step-keyed deterministic batch function (uniform tokens).

    Each step draws from a generator seeded by ``seed + step``, so the
    batch for step ``k`` is the same whether it is reached directly or
    replayed after a rollback.
    """
    from ..training.data import UniformTokens

    def batch_fn(step: int) -> Tuple[np.ndarray, np.ndarray]:
        return UniformTokens(vocab_size, seq_length,
                             seed=seed + 7919 * step).batch(batch_size)

    return batch_fn


#: Rollbacks one run may take before it gives up: the hard stop against a
#: fault plan that keeps killing recovery.
MAX_ROLLBACKS = 16


@dataclass
class RunResult:
    """Outcome of :meth:`ResilientTrainer.run`."""

    losses: List[float]
    report: ResilienceReport


class ResilientTrainer:
    """Fault-tolerant training loop over a :class:`DataParallelTrainer`.

    A checkpoint is written every ``checkpoint_interval`` completed steps;
    a rollback replays from the last one.
    """

    def __init__(self, trainer: DataParallelTrainer, batch_fn: BatchFn,
                 checkpoint_path: str,
                 plan: Optional[FaultPlan] = None,
                 checkpoint_interval: int = 2,
                 microbatches_per_replica: int = 1,
                 experiment_config: Optional[ExperimentConfig] = None):
        if checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        self.trainer = trainer
        self.batch_fn = batch_fn
        self.checkpoint_path = checkpoint_path
        self.plan = plan or FaultPlan()
        self.checkpoint_interval = checkpoint_interval
        self.report = ResilienceReport()
        self.injector = FaultInjector(self.plan, self.report)
        self.injector.set_world(trainer.dp)
        self.microbatches_per_replica = microbatches_per_replica
        self.experiment_config = experiment_config
        # Keep total microbatch count constant across elastic shrinks so
        # the global batch's microbatch boundaries (and hence numerics)
        # never move.
        self._total_microbatches = trainer.dp * microbatches_per_replica
        self._ckpt_step = 0
        # Hardware FLOPs of one global-batch step, for goodput.  Useful
        # work is model FLOPs: recompute overhead is a strategy choice,
        # not fault waste.
        self._step_flops = hardware_flops_per_iteration(
            trainer.model.config, batch_fn(0)[0].shape[1], Recompute.NONE)

    # -- checkpointing --------------------------------------------------------
    def _save_checkpoint(self, step: int) -> None:
        save_training_state(self.trainer.model, self.trainer.optimizers[0],
                            self.checkpoint_path)
        self._ckpt_step = step
        self.report.checkpoints_saved += 1

    def _restore_checkpoint(self) -> None:
        for replica, optimizer in zip(self.trainer.replicas,
                                      self.trainer.optimizers):
            load_training_state(replica, optimizer, self.checkpoint_path)

    # -- recovery actions -----------------------------------------------------
    def _rollback(self, step: int, error: Exception) -> int:
        """Restore the last checkpoint; returns the step to resume from."""
        wasted_steps = step - self._ckpt_step
        wasted = (wasted_steps + 1) * self._step_flops
        self.report.rollbacks += 1
        self.report.steps_replayed += wasted_steps
        self.report.wasted_flops += wasted
        self.report.recover(
            RecoveryRecord(
                step=step, action="rollback",
                detail=(f"{type(error).__name__} -> restored step "
                        f"{self._ckpt_step} checkpoint, replaying "
                        f"{wasted_steps} step(s)"),
                wasted_flops=wasted),
            restored_step=self._ckpt_step, replayed_steps=wasted_steps,
            error=type(error).__name__)
        self._restore_checkpoint()
        return self._ckpt_step

    def _shrink(self, step: int, failure: RankFailure) -> None:
        """Remove the permanently dead replica and re-fit the plan."""
        self.trainer.drop_replica(failure.rank)
        self.injector.remove_rank(failure.rank)
        new_dp = self.trainer.dp
        self.injector.set_world(new_dp)
        if self._total_microbatches % new_dp != 0:
            raise ConfigError(
                f"cannot redistribute {self._total_microbatches} microbatches "
                f"over {new_dp} surviving replicas")
        self.microbatches_per_replica = self._total_microbatches // new_dp
        self.report.shrinks += 1
        self.report.recover(
            RecoveryRecord(
                step=step, action="shrink",
                detail=(f"rank {failure.rank} lost permanently; data-parallel "
                        f"group {new_dp + 1} -> {new_dp}, "
                        f"{self.microbatches_per_replica} microbatch(es)/replica")),
            dead_rank=failure.rank, new_world=new_dp)
        if self.experiment_config is not None:
            option = replan_after_shrink(self.experiment_config, new_dp)
            self._apply_plan(option)
            self.report.recoveries.append(RecoveryRecord(
                step=step, action="replan",
                detail=f"refit recompute plan: {option.description}"))

    def _apply_plan(self, option: PlanOption) -> None:
        """Retarget the surviving replicas' recompute strategy.

        Only the recompute knob is retrofittable at runtime (all modes
        are verified bit-identical, so this cannot perturb numerics);
        the sequence-parallel layout is fixed at construction.
        """
        for replica in self.trainer.replicas:
            for layer in replica.layers:
                layer.recompute = option.recompute

    # -- the loop -------------------------------------------------------------
    def run(self, num_steps: int) -> RunResult:
        """Train ``num_steps`` steps under the fault plan; returns losses
        and the filled-in :class:`ResilienceReport`."""
        if num_steps < 1:
            raise ConfigError(f"steps must be >= 1, got {num_steps}")
        losses: List[float] = []
        rollbacks_left = MAX_ROLLBACKS
        self._save_checkpoint(step=0)
        with fault_scope(self.injector):
            step = 0
            while step < num_steps:
                ids, targets = self.batch_fn(step)
                self.injector.begin_step(step)
                retries_before = self.report.retries
                try:
                    loss = run_step_with_retries(
                        lambda: self.trainer.train_step(
                            ids, targets, self.microbatches_per_replica))
                except CommError as error:
                    # A rank failure, or transient faults that survived
                    # every in-place retry: escalate to a rollback (after
                    # a shrink, if the rank is gone for good).
                    if rollbacks_left == 0:
                        raise ReproError(
                            "resilience: exceeded max_rollbacks; the fault "
                            "plan keeps killing recovery") from error
                    rollbacks_left -= 1
                    if isinstance(error, RankFailure) and error.permanent:
                        self._shrink(step, error)
                    step = self._rollback(step, error)
                    del losses[step:]
                    continue
                # Each failed in-place attempt re-ran (part of) the step.
                failed_attempts = self.report.retries - retries_before
                self.report.wasted_flops += failed_attempts * self._step_flops
                self.report.useful_flops += self._step_flops
                losses.append(loss)
                self.report.steps_completed += 1
                step += 1
                if step % self.checkpoint_interval == 0 and step < num_steps:
                    self._save_checkpoint(step)
        self.report.simulated_seconds = self.injector.watchdog.clock_s
        self.report.final_world_size = self.trainer.dp
        return RunResult(losses=losses, report=self.report)
