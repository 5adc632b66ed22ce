"""Deterministic fault injection and elastic recovery for the simulated
training cluster.

The subsystem has four pieces:

* :mod:`~repro.resilience.faults` — the seeded, reproducible
  :class:`FaultPlan` (what goes wrong, and exactly when);
* :mod:`~repro.resilience.watchdog` — NCCL-style timeout detection on the
  collective cost model's simulated clock;
* :mod:`~repro.resilience.injector` — the runtime installed into
  :mod:`repro.comm.collectives` that turns planned faults into typed
  :class:`~repro.errors.CommError` subclasses;
* :mod:`~repro.resilience.recovery` — the
  :class:`ResilientTrainer` loop: retry with backoff, checkpoint
  rollback-and-replay, and shrink-and-replan on permanent rank loss,
  with every fault and action recorded in a :class:`ResilienceReport`.

The headline guarantee: a run interrupted by *any* fault plan finishes
with weights bitwise-identical to the uninterrupted run at the same
seed.  See ``docs/resilience.md``.
"""

from .backoff import backoff_delay, backoff_jitter
from .faults import FLEET_KINDS, TRAINING_KINDS, FaultKind, FaultPlan, FaultSpec
from .injector import FaultInjector
from .recovery import ResilientTrainer, RunResult, make_step_batches
from .report import FaultRecord, RecoveryRecord, ResilienceReport
from .watchdog import Watchdog

__all__ = [
    "FLEET_KINDS", "FaultInjector", "FaultKind", "FaultPlan", "FaultRecord",
    "FaultSpec", "RecoveryRecord", "ResilienceReport",
    "ResilientTrainer", "RunResult", "TRAINING_KINDS", "Watchdog",
    "backoff_delay", "backoff_jitter", "make_step_batches",
]
