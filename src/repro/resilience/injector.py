"""The runtime that turns a :class:`FaultPlan` into live faults.

A :class:`FaultInjector` is installed into the collective layer with
:func:`repro.comm.collectives.fault_scope`; every simulated collective
then flows through :meth:`on_collective`, which prices it on the
watchdog clock and, when a scheduled fault matches the current (step,
call, rank) coordinates, injects it:

* crashes and dropped collectives hang until the watchdog timeout, then
  raise :class:`~repro.errors.RankFailure` /
  :class:`~repro.errors.CollectiveTimeout` (detection latency =
  ``timeout_s``);
* bit flips corrupt one bit of an in-flight payload copy; the
  receiver-side checksum catches the mismatch when the collective
  completes (detection latency = the collective's expected time) and
  raises :class:`~repro.errors.CorruptionDetected` — the corrupt data
  never reaches the model, so a retry of the step is exact;
* stragglers slow the collective multiplicatively; mild ones are flagged
  (observed > threshold x expected), extreme ones become timeouts.

Every fault fires exactly once, so retry / rollback-and-replay converge.
A *permanent* crash additionally marks the rank dead: every later
collective it participates in fails until the trainer shrinks the group
(:meth:`remove_rank`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..comm.cost_model import logged_nbytes
from ..errors import (
    CollectiveTimeout,
    CorruptionDetected,
    RankFailure,
)
from ..observability.tracer import active_tracer
from ..tensor import backend as bk
from .faults import FaultKind, FaultPlan, FaultSpec
from .report import FaultRecord, RecoveryRecord, ResilienceReport
from .watchdog import Watchdog


def _flip_one_bit(arr: np.ndarray, seed: int) -> np.ndarray:
    """A copy of ``arr`` with one deterministic bit flipped."""
    rng = np.random.default_rng(seed)
    corrupted = np.array(arr, copy=True)
    flat = corrupted.reshape(-1).view(np.uint8)
    byte = int(rng.integers(flat.size))
    flat[byte] ^= np.uint8(1 << int(rng.integers(8)))
    return corrupted


class FaultInjector:
    """Arms a :class:`FaultPlan` step by step and injects matching faults."""

    def __init__(self, plan: FaultPlan,
                 report: Optional[ResilienceReport] = None):
        self.plan = plan
        self.watchdog = Watchdog()
        self.report = report or ResilienceReport()
        self.step = -1
        self.calls = 0
        self.active_rank: Optional[int] = None
        self.world: Optional[int] = None
        self.dead_ranks: set = set()
        self._fired: set = set()       # indices into plan.faults
        self._armed: List[int] = []    # indices armed for the current step

    # -- trainer-facing hooks -------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Arm the faults scheduled for ``step`` (already-fired ones stay
        fired, so a replayed or retried step runs clean)."""
        self.step = step
        self.calls = 0
        self._armed = [i for i, f in enumerate(self.plan.faults)
                       if f.step == step and i not in self._fired]

    def set_active_rank(self, rank: Optional[int]) -> None:
        """Which data-parallel replica is executing (``None`` between
        replicas and during group-wide phases like the grad all-reduce)."""
        self.active_rank = rank

    def set_world(self, world: int) -> None:
        """Current data-parallel world size; crash faults aimed at ranks
        that no longer exist are skipped after an elastic shrink."""
        self.world = world

    def remove_rank(self, rank: int) -> None:
        """The trainer dropped ``rank`` from the group; clear its death
        mark (survivor indices shift down by one)."""
        self.dead_ranks = {r - 1 if r > rank else r
                           for r in self.dead_ranks if r != rank}

    def on_retry(self, step: int, error: Exception, backoff_s: float) -> None:
        """A trainer is backing off before retrying a transient fault."""
        self.watchdog.sleep(backoff_s)
        self.report.retries += 1
        self.report.recover(
            RecoveryRecord(step=step, action="retry",
                           detail=type(error).__name__, backoff_s=backoff_s),
            error=type(error).__name__, backoff_s=backoff_s)

    # -- the collective hook --------------------------------------------------
    def on_collective(self, op: str, shards: Sequence) -> Sequence:
        if bk.is_abstract(shards[0]):
            return shards  # abstract (shape-only) mode: nothing to fault
        n = len(shards)
        nbytes = logged_nbytes(op, int(np.asarray(shards[0]).nbytes), n)
        call = self.calls
        self.calls += 1
        self.report.collectives_observed += 1

        if self.active_rank is not None and self.active_rank in self.dead_ranks:
            self.watchdog.hang(op)
            raise RankFailure(self.active_rank, permanent=True)

        index = self._match(op, call, n)
        if index is None:
            self.watchdog.observe(op, nbytes, n)
            return shards

        spec = self.plan.faults[index]
        self._fired.add(index)
        self._armed.remove(index)

        if spec.kind == FaultKind.RANK_CRASH:
            if spec.permanent:
                self.dead_ranks.add(spec.rank)
            latency = self.watchdog.hang(op)
            self._record(spec, op, "RankFailure", latency)
            raise RankFailure(spec.rank, permanent=spec.permanent)

        if spec.kind == FaultKind.DROPPED_COLLECTIVE:
            latency = self.watchdog.hang(op)
            self._record(spec, op, "CollectiveTimeout", latency)
            raise CollectiveTimeout(op, latency)

        if spec.kind == FaultKind.BIT_FLIP:
            rank = spec.rank % n
            original = np.asarray(shards[rank])
            corrupted = _flip_one_bit(
                original, seed=(spec.step + 1) * 1000003 + spec.call_index)
            # Receiver-side checksum over the transported payload: the
            # flipped copy never byte-compares equal to what was sent.
            detected = corrupted.tobytes() != original.tobytes()
            expected = self.watchdog.expected_time(op, nbytes, n)
            self.watchdog.sleep(expected)
            self._record(spec, op, "CorruptionDetected", expected,
                         detected=detected)
            raise CorruptionDetected(op, rank)

        # STRAGGLER: the collective completes, slowly.  Extreme slowdowns
        # trip the timeout inside observe(); record them as timeouts.
        try:
            expected, observed = self.watchdog.observe(
                op, nbytes, n, slowdown=spec.slowdown)
        except CollectiveTimeout:
            self._record(spec, op, "CollectiveTimeout", self.watchdog.timeout_s)
            raise
        self._record(spec, op, "", observed,
                     detected=self.watchdog.is_straggling(expected, observed))
        return shards

    # -- internals ------------------------------------------------------------
    def _match(self, op: str, call: int, n: int) -> Optional[int]:
        for index in self._armed:
            spec = self.plan.faults[index]
            if call < spec.call_index:
                continue
            if spec.kind != FaultKind.RANK_CRASH and n < 2:
                continue  # network faults need a real communicator; a
                # single-participant "collective" has no wire to fault
            if spec.kind == FaultKind.RANK_CRASH:
                if self.world is not None and spec.rank >= self.world:
                    continue  # target rank already removed by a shrink
                if self.active_rank is not None and self.active_rank != spec.rank:
                    continue  # crash fires inside its own replica's work
            return index
        return None

    def _record(self, spec: FaultSpec, op: str, error: str, latency: float,
                detected: bool = True) -> None:
        self.report.faults.append(FaultRecord(
            step=spec.step, kind=spec.kind.value, rank=spec.rank,
            error=error, detected=detected, detection_latency_s=latency,
            op=op))
        tracer = active_tracer()
        if tracer is not None:
            # Mirror the watchdog: simulated time passed while the fault
            # was being detected.
            tracer.advance(latency)
            tracer.instant(f"fault.{spec.kind.value}", subsystem="resilience",
                           rank=spec.rank, step=spec.step, op=op,
                           error=error or "flagged", detected=detected,
                           detection_latency_s=latency)
            if tracer.metrics is not None:
                tracer.metrics.counter(
                    "repro_faults_total",
                    "injected faults by kind").inc(kind=spec.kind.value)

    @property
    def faults_fired(self) -> int:
        return len(self._fired)
