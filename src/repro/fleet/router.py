"""Fault-tolerant multi-replica serving: the :class:`FleetRouter`.

The router drives N independent replicas — each a full
:class:`~repro.serving.DecodeEngine` +
:class:`~repro.serving.ContinuousBatchingScheduler` stack over its own
paged KV pool — in deterministic lockstep *rounds*: arrivals are drawn
from the seeded open-loop generator, queued requests are dispatched to
the least-loaded healthy replica (priority tier first, FCFS within a
tier), every replica advances one decode iteration, and the router
clock moves by the slowest replica's round time.

Faults come from the same seeded :class:`~repro.resilience.FaultPlan`
machinery the trainer uses, with ``step`` read as the fleet round and
``rank`` as the replica id:

* ``REPLICA_CRASH`` fires at the round boundary *before* the replica
  decodes, so no token is ever decoded for work the crash would
  discard.  Device KV pages die with the replica; host-side swap
  copies survive.  Every resident request is recovered onto
  survivors: a request with a host-side
  :class:`~repro.serving.SwappedKV` is either **migrated** (p2p wire
  transfer over the ``fleet`` link + bit-exact swap-in) or **recomputed
  from its prompt + streamed tokens**, whichever the
  :class:`~repro.serving.ServingPerfModel` roofline prices cheaper
  (the Adacc tradeoff); a request that was mid-decode lost its device
  state and must recompute.
* ``SLOW_REPLICA`` multiplies the replica's round time; the
  :class:`~repro.resilience.Watchdog` straggler check flags it after
  one slowed round, after which the router drains its residents to
  healthy replicas and stops dispatching to it.
* ``DISPATCH_LOSS`` swallows one router->replica dispatch; the router
  notices after the watchdog timeout and re-dispatches under the
  seeded-jitter exponential backoff ladder
  (:func:`~repro.resilience.backoff_delay`).

Determinism contract: every decision above is a pure function of the
seed, the fault plan and the workload, so equal seeds produce
byte-identical :class:`FleetReport` JSON — and because decoding is
greedy (no per-request sampling stream) and the engine's decode math is
per-request independent, the tokens every request streams are
**identical to the fault-free run** (asserted by
``tests/test_fleet.py``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..comm.cost_model import CollectiveCostModel
from ..comm.process_group import ProcessGroup
from ..config import ModelConfig
from ..errors import ConfigError, PlanningError
from ..layers.transformer import GPTModel
from ..observability.metrics import MetricsRegistry
from ..observability.monitor import check_slo
from ..observability.tracer import Tracer, span_or_null
from ..parallel.transformer import ParallelGPTModel
from ..planner import FleetCapacity, plan_fleet_capacity
from ..resilience.backoff import backoff_delay
from ..resilience.faults import FLEET_KINDS, FaultKind, FaultPlan, FaultSpec
from ..resilience.report import FaultRecord, RecoveryRecord
from ..resilience.watchdog import Watchdog
from ..serving.engine import DecodeEngine
from ..serving.kv_cache import KVAdmissionFull, PagedKVCache, SwappedKV
from ..serving.perf import ServingPerfModel
from ..serving.scheduler import (
    ContinuousBatchingScheduler,
    RequestSpec,
    RequestState,
)
from .report import FleetReport

#: Livelock guard: a run still unfinished after this many rounds raises.
MAX_ROUNDS = 100_000


class ReplicaHealth(str, Enum):
    HEALTHY = "healthy"       # dispatchable
    DEGRADED = "degraded"     # flagged straggler: drained, no new work
    DOWN = "down"             # crashed this round; restarts empty if transient
    RETIRED = "retired"       # permanent loss: never returns


class Replica:
    """One serving replica: a private KV pool + scheduler over a shared
    (read-only at decode time) model.

    ``reset`` rebuilds the cache/engine/scheduler stack — what a crashed
    replica's restart looks like: the weights survive (they are
    re-loadable state), the device KV pool comes back empty.
    """

    def __init__(self, replica_id: int, model, perf: ServingPerfModel, *,
                 block_size: int, num_blocks: int, max_batch: int,
                 policy: str = "swap", seed: int = 0,
                 tracer: Optional[Tracer] = None):
        self.replica_id = replica_id
        self.model = model
        self.perf = perf
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.max_batch = max_batch
        self.policy = policy
        self.seed = seed
        self.tracer = tracer
        self.health = ReplicaHealth.HEALTHY
        self.slowdown = 1.0
        self.restart_pending = False
        # ledger carried across restarts (a crash discards the scheduler
        # object but not the ledger)
        self.max_drift = 0.0
        self.max_fragmentation = 0.0
        self.reset()

    @property
    def subsystem(self) -> str:
        return f"replica{self.replica_id}"

    @property
    def world(self) -> int:
        return self.model.group.size

    @property
    def dispatchable(self) -> bool:
        return self.health == ReplicaHealth.HEALTHY

    @property
    def live(self) -> bool:
        return self.health in (ReplicaHealth.HEALTHY, ReplicaHealth.DEGRADED)

    def reset(self) -> None:
        cache = PagedKVCache(self.model.config, tensor_parallel=self.world,
                             block_size=self.block_size,
                             num_blocks=self.num_blocks)
        self.engine = DecodeEngine(self.model, cache)
        self.scheduler = ContinuousBatchingScheduler(
            self.engine, self.perf, policy=self.policy,
            max_batch=self.max_batch, seed=self.seed, tracer=self.tracer,
            subsystem=self.subsystem)

    def retire_counters(self) -> None:
        """Fold the current scheduler's ledger into the replica totals
        (called before the scheduler object is discarded)."""
        self.max_drift = self.drift_bytes
        self.max_fragmentation = self.kv_fragmentation

    @property
    def drift_bytes(self) -> float:
        return max(self.max_drift, self.scheduler.max_drift)

    @property
    def kv_fragmentation(self) -> float:
        """Worst paged-KV pool fragmentation across this replica's life
        (restarts discard the arena but not this ledger)."""
        return max(self.max_fragmentation,
                   self.engine.cache.arena.stats.fragmentation)


@dataclass
class _Queued:
    """One request waiting for dispatch (admission control state)."""

    spec: RequestSpec
    tier: int
    attempts: int = 0
    next_try_s: float = 0.0


class FleetRouter:
    """Deterministic round-based router over a homogeneous replica set."""

    def __init__(self, replicas: Sequence[Replica],
                 plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None, seed: int = 0,
                 num_tiers: int = 1, slo_ttft_s: Optional[float] = None,
                 monitor=None, recorder=None, request_tracker=None):
        if not replicas:
            raise ConfigError("a fleet needs at least one replica")
        if num_tiers < 1:
            raise ConfigError("num_tiers must be >= 1")
        self.replicas = list(replicas)
        self.plan = plan or FaultPlan()
        for fault in self.plan:
            if fault.kind not in FLEET_KINDS:
                raise ConfigError(
                    f"{fault.kind.value!r} is a training fault; fleet plans "
                    f"use {[k.value for k in FLEET_KINDS]}")
        check_slo("slo_ttft_s", slo_ttft_s)
        self.cost = CollectiveCostModel()
        # The serving-scale watchdog: decode rounds are microseconds, so
        # the timeout is derived from the roofline — a dispatch is
        # declared lost after ~8 unloaded decode steps, not after the
        # trainer's 0.5 s NCCL window.
        step_s = self.replicas[0].perf.decode_step_time(1, [8])
        self.watchdog = Watchdog(cost=self.cost, timeout_s=8.0 * step_s,
                                 recorder=recorder)
        self.backoff_base_s = 2.0 * step_s
        self.tracer = tracer
        # Telemetry companions (all optional, all one-``is None``-check
        # cheap when off): the SLO monitor consumes the router's
        # heartbeat/decode/dispatch stream, the flight recorder rings up
        # every decision, the request tracker partitions each request's
        # wall time into causal spans on the router clock.
        self.monitor = monitor
        self.recorder = recorder
        self.tracker = request_tracker
        # Perfetto flow ids, one per router->replica delivery.
        self._flows = itertools.count()
        self.seed = seed
        self.num_tiers = num_tiers
        self.slo_ttft_s = slo_ttft_s
        self.group = ProcessGroup(len(self.replicas), "fleet")
        first = self.replicas[0]
        self.capacity: FleetCapacity = plan_fleet_capacity(
            len(self.replicas), first.num_blocks, first.block_size,
            first.max_batch)
        self.clock = 0.0
        self.report = FleetReport(replicas=len(self.replicas))
        self.metrics = MetricsRegistry()
        self._ttft = self.metrics.histogram(
            "fleet_ttft_seconds", "time to first token (simulated)")
        self._tpot = self.metrics.histogram(
            "fleet_tpot_seconds", "time per output token (simulated)")
        self._armed: List[int] = []      # plan indices due but not fired
        self._fired: set = set()         # plan indices that already fired
        self._outcomes: Dict[str, dict] = {}
        self._final: Dict[str, RequestState] = {}
        self._drained_queue: List[Tuple[RequestState,
                                        Optional[SwappedKV]]] = []

    # -- helpers -----------------------------------------------------------
    def _span(self, name: str, phase: str, **args):
        return span_or_null(self.tracer, name, subsystem="fleet",
                            phase=phase, **args)

    def _instant(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, subsystem="fleet", **args)

    def _advance(self, seconds: float, traced: bool = False) -> None:
        """Advance the fleet lockstep clock.  ``traced`` additionally
        advances the tracer for router-side costs (timeout stalls, wire
        transfers) that no replica scheduler accounts for."""
        self.clock += seconds
        if traced and self.tracer is not None:
            self.tracer.advance(seconds)

    def _mark(self, request_id: str, phase: str, **kw) -> None:
        if self.tracker is not None:
            self.tracker.mark(request_id, phase, self.clock, **kw)

    def _record(self, kind: str, **fields) -> None:
        if self.recorder is not None:
            self.recorder.record(kind, self.clock, **fields)

    def _postmortem(self, trigger: str, **context) -> None:
        if self.recorder is not None:
            self.recorder.postmortem(trigger, self.clock, **context)

    def _fault(self, kind: str, postmortem_extra: dict, **fields) -> None:
        """One injected fault's three records: a ``fault.<kind>`` trace
        instant, a ``fault_injected`` flight event and a postmortem."""
        self._instant(f"fault.{kind}", **fields)
        self._record("fault_injected", fault=kind, **fields)
        self._postmortem(kind, **fields, **postmortem_extra)

    def _end_round(self, round_idx: int) -> None:
        """Heartbeat sweep: called once per round on *every* exit path
        (decode, idle advance, final drain) so monitor detection rounds
        line up with the fault ledger's ``step``."""
        if self.monitor is not None:
            self.monitor.end_round(
                round_idx, [r.replica_id for r in self.replicas if r.live])

    def _tier(self, spec: RequestSpec) -> int:
        """Priority tier of a request (0 = highest).  Deterministic
        round-robin over the arrival index, so tiers interleave in time
        and shedding decisions are seed-stable."""
        return spec.index % self.num_tiers

    def _targets(self) -> List[Replica]:
        """Dispatch order: least-loaded healthy replica, id tie-break.

        When *no* healthy replica remains (every survivor was flagged as
        a straggler), dispatch falls back to the degraded ones: slow
        service beats a deadlocked queue, the excess decode time is
        already billed as waste, and the straggler check never re-flags
        a DEGRADED replica so the drain does not loop.
        """
        pool = [r for r in self.replicas if r.dispatchable]
        if not pool:
            pool = [r for r in self.replicas
                    if r.live and not r.restart_pending]
        if self.monitor is not None:
            # Health-aware tie-break: equal load goes to the replica
            # whose rolling decode p50 sits lowest against the fleet
            # median (scores are pure functions of the seeded telemetry,
            # so the ordering stays deterministic).
            return sorted(pool, key=lambda r: (
                r.scheduler.num_resident,
                self.monitor.health_score(r.replica_id), r.replica_id))
        return sorted(pool, key=lambda r: (r.scheduler.num_resident,
                                           r.replica_id))

    def _any_resident(self) -> bool:
        return any(r.scheduler.num_resident for r in self.replicas if r.live)

    def _resident_tokens(self) -> int:
        return sum(state.resident_tokens
                   for r in self.replicas if r.live
                   for state, _ in r.scheduler.resident_requests())

    def _backoff(self, entry: _Queued) -> float:
        delay = backoff_delay(self.seed, entry.attempts, entry.spec.request_id,
                              base_s=self.backoff_base_s,
                              cap_s=64.0 * self.backoff_base_s)
        entry.attempts += 1
        entry.next_try_s = self.clock + delay
        return delay

    # -- fault handling ----------------------------------------------------
    def _begin_round(self, round_idx: int,
                     recovery: List[Tuple[RequestState,
                                          Optional[SwappedKV]]]) -> None:
        # Transient crashes restart with an empty KV pool one round later.
        for replica in self.replicas:
            if replica.restart_pending:
                replica.restart_pending = False
                replica.reset()
                replica.health = ReplicaHealth.HEALTHY
                self._instant("fleet.replica_restart",
                              replica=replica.replica_id, round=round_idx)
                self._record("replica_restart", replica=replica.replica_id,
                             round=round_idx)
                if self.monitor is not None:
                    self.monitor.heartbeat(replica.replica_id)
        for index, fault in enumerate(self.plan.faults):
            if (index in self._armed or index in self._fired
                    or fault.step > round_idx):
                continue
            self._armed.append(index)
        for index in list(self._armed):
            fault = self.plan.faults[index]
            if fault.kind == FaultKind.DISPATCH_LOSS:
                continue  # fires at dispatch time
            self._armed.remove(index)
            self._fired.add(index)
            if fault.rank >= len(self.replicas):
                continue
            replica = self.replicas[fault.rank]
            if not replica.live:
                continue
            if fault.kind == FaultKind.REPLICA_CRASH:
                self._crash(replica, fault, round_idx, recovery)
            elif fault.kind == FaultKind.SLOW_REPLICA:
                replica.slowdown = fault.slowdown
                self._fault(fault.kind.value, {}, replica=replica.replica_id,
                            round=round_idx, slowdown=fault.slowdown)

    def _crash(self, replica: Replica, fault: FaultSpec, round_idx: int,
               recovery: List[Tuple[RequestState,
                                    Optional[SwappedKV]]]) -> None:
        """A replica dies at the round boundary, before it decodes.

        Detection is heartbeat-shaped: the router notices after the
        watchdog timeout.  Device KV is lost (running requests carry no
        swap record and must recompute); host-side swap copies survive
        and keep the migrate-vs-recompute choice open.
        """
        latency = self.watchdog.hang("replica")
        with self._span("fleet.detect_crash", "recover",
                        replica=replica.replica_id):
            self._advance(latency, traced=True)
        self.report.wasted_s += latency
        self.report.faults.append(FaultRecord(
            step=round_idx, kind=fault.kind.value, rank=replica.replica_id,
            error="ReplicaCrash", detected=True,
            detection_latency_s=latency, op="decode"))
        residents = replica.scheduler.resident_requests()
        self._fault(fault.kind.value, {"residents": len(residents)},
                    replica=replica.replica_id, round=round_idx,
                    permanent=fault.permanent)
        for state, _ in residents:
            # Detection stall attributed to the crashed replica; the
            # re-placement wait lands on the coming migrate/recover
            # mark.  No ``tokens`` here: first-token credit belongs to
            # decode rounds only (keeps TTFT reconciliation exact).
            self._mark(state.spec.request_id, "recover",
                       replica=replica.replica_id, round_idx=round_idx)
        recovery.extend(residents)
        replica.retire_counters()
        if fault.permanent:
            replica.health = ReplicaHealth.RETIRED
            self.group = self.group.shrink(1)
            self.capacity = self.capacity.shrink(1)
            self.report.shrinks += 1
            self.report.recoveries.append(RecoveryRecord(
                step=round_idx, action="replan",
                detail=(f"replica {replica.replica_id} retired; fleet "
                        f"capacity now {self.capacity.token_capacity} "
                        f"KV tokens on {self.capacity.num_replicas} "
                        f"replica(s)")))
        else:
            replica.health = ReplicaHealth.DOWN
            replica.restart_pending = True
        if residents:
            self.report.recoveries.append(RecoveryRecord(
                step=round_idx, action="recover",
                detail=(f"{len(residents)} request(s) recovered off "
                        f"replica {replica.replica_id}")))

    def _loss_fault(self, round_idx: int) -> Optional[FaultSpec]:
        """The armed DISPATCH_LOSS that swallows the next dispatch, if
        any.  Rank is recorded, not matched: the loss strikes whatever
        dispatch the router issues next once its round has come."""
        for index in self._armed:
            fault = self.plan.faults[index]
            if fault.kind == FaultKind.DISPATCH_LOSS \
                    and fault.step <= round_idx:
                self._armed.remove(index)
                self._fired.add(index)
                return fault
        return None

    # -- recovery / dispatch / shed ---------------------------------------
    def _place(self, replica: Replica, state: RequestState,
               swapped: Optional[SwappedKV]) -> None:
        """Resume one recovered request on ``replica``, choosing the
        cheaper of bit-exact migration and recompute-from-prompt."""
        request_id = state.spec.request_id
        before = replica.scheduler.clock
        fid = next(self._flows)
        migrate = False
        if swapped is not None:
            nbytes = swapped.nbytes * replica.world
            wire = self.cost.p2p_time(int(nbytes), scope="fleet")
            migrate = (wire + replica.perf.swap_time(nbytes)
                       <= replica.perf.prefill_time(state.resident_tokens))
        action = "migrate" if migrate else "recover"
        with self._span(f"fleet.{action}", action, request=request_id,
                        replica=replica.replica_id, flow_out=fid):
            if migrate:
                self._advance(wire, traced=True)
            replica.scheduler.inject(state, swapped if migrate else None,
                                     flow=fid)
        self._mark(request_id, action, replica=replica.replica_id)
        if migrate:
            self.report.wasted_s += wire
            self.report.migrations += 1
        else:
            self.report.recomputes += 1
        self._record("placement", request=request_id,
                     replica=replica.replica_id, action=action)
        self.report.wasted_s += replica.scheduler.clock - before
        self._outcomes[request_id]["replica"] = replica.replica_id
        self._outcomes[request_id]["recoveries"] = \
            self._outcomes[request_id].get("recoveries", 0) + 1

    def _drain_recovery(self, recovery: List[Tuple[RequestState,
                                                   Optional[SwappedKV]]]
                        ) -> None:
        """In-flight work outranks new admissions: recovered requests are
        re-placed (FCFS) before the dispatch queue is looked at."""
        remaining: List[Tuple[RequestState, Optional[SwappedKV]]] = []
        for state, swapped in recovery:
            target = next((r for r in self._targets()
                           if r.scheduler.can_accept(state)), None)
            if target is None:
                remaining.append((state, swapped))
            else:
                self._place(target, state, swapped)
        recovery[:] = remaining

    def _shed(self, queue: List[_Queued]) -> None:
        """SLO-aware degradation: when the fleet is saturated and queued
        requests have blown their TTFT budget, shed the *lowest* tier
        first — higher tiers are only shed once they are the lowest tier
        left waiting."""
        if self.slo_ttft_s is None or not queue:
            return
        offered = self._resident_tokens() + sum(
            len(e.spec.prompt) + e.spec.max_new_tokens for e in queue)
        # Saturation is the structural trigger; a sustained multi-window
        # TTFT burn (both the fast and slow windows above threshold) is
        # the SLO monitor's early trigger — the budget is being spent
        # faster than capacity math alone would predict.
        burning = self.monitor is not None and self.monitor.ttft_burn_alert()
        if not self.capacity.saturated_by(offered) and not burning:
            return
        lowest = max(e.tier for e in queue)
        for entry in [e for e in queue
                      if e.tier == lowest
                      and self.clock - e.spec.arrival_s > self.slo_ttft_s]:
            queue.remove(entry)
            request_id = entry.spec.request_id
            with self._span("fleet.shed", "shed", request=request_id,
                            tier=entry.tier):
                pass
            self._instant("fleet.shed", request=request_id, tier=entry.tier)
            self._mark(request_id, "queue_wait")
            self._mark(request_id, "shed", tier=entry.tier)
            if self.tracker is not None:
                self.tracker.finish(request_id, self.clock, "shed")
            self._record("shed", request=request_id, tier=entry.tier,
                         burn_alert=burning)
            self.report.shed += 1
            self.report.recoveries.append(RecoveryRecord(
                step=self.report.rounds, action="shed",
                detail=f"{request_id} (tier {entry.tier})"))
            self._outcomes[request_id]["shed"] = True

    def _dispatch(self, queue: List[_Queued], round_idx: int) -> None:
        for entry in sorted(queue, key=lambda e: (e.tier, e.spec.index)):
            if entry.next_try_s > self.clock:
                continue
            request_id = entry.spec.request_id
            loss = self._loss_fault(round_idx)
            if loss is not None:
                # The send went on the wire (the monitor sees an issue
                # with no ack) and vanished; the router stalls for the
                # watchdog window, then backs off.
                self._mark(request_id, "queue_wait")
                if self.monitor is not None:
                    self.monitor.dispatch_issued(request_id, round_idx)
                latency = self.watchdog.hang("dispatch")
                with self._span("fleet.dispatch", "dispatch",
                                request=request_id, lost=True):
                    self._advance(latency, traced=True)
                delay = self._backoff(entry)
                self.watchdog.sleep(delay)
                self._mark(request_id, "dispatch_lost",
                           attempt=entry.attempts)
                self.report.wasted_s += latency + delay
                self.report.retries += 1
                self.report.redispatches += 1
                self.report.faults.append(FaultRecord(
                    step=round_idx, kind=loss.kind.value, rank=loss.rank,
                    error="DispatchTimeout", detected=True,
                    detection_latency_s=latency, op="dispatch"))
                self.report.recoveries.append(RecoveryRecord(
                    step=round_idx, action="retry",
                    detail=f"dispatch of {request_id} lost",
                    backoff_s=delay))
                self._fault(loss.kind.value, {"backoff_s": delay},
                            request=request_id, round=round_idx)
                continue
            placed = False
            if self.monitor is not None:
                self.monitor.dispatch_issued(request_id, round_idx)
            for replica in self._targets():
                before = replica.scheduler.clock
                fid = next(self._flows)
                try:
                    with self._span("fleet.dispatch", "dispatch",
                                    request=request_id,
                                    replica=replica.replica_id,
                                    attempt=entry.attempts, flow_out=fid):
                        replica.scheduler.submit(entry.spec, flow=fid)
                except KVAdmissionFull:
                    self._record("kv_admission", request=request_id,
                                 replica=replica.replica_id, admitted=False)
                    continue
                self._record("kv_admission", request=request_id,
                             replica=replica.replica_id, admitted=True)
                self.report.useful_s += replica.scheduler.clock - before
                self.report.dispatches += 1
                if entry.attempts:
                    self.report.redispatches += 1
                outcome = self._outcomes[request_id]
                outcome["replica"] = replica.replica_id
                outcome["attempts"] = entry.attempts + 1
                self._mark(request_id, "queue_wait")
                self._mark(request_id, "prefill",
                           replica=replica.replica_id)
                placed = True
                break
            if self.monitor is not None:
                # Nacks are acks: every issued dispatch that reached a
                # replica loop is answered within the round, so only a
                # genuinely lost send survives to the heartbeat sweep.
                self.monitor.dispatch_delivered(request_id)
            if placed:
                queue.remove(entry)
            else:
                targets = self._targets()
                if targets and all(r.scheduler.num_resident == 0
                                   for r in targets):
                    raise PlanningError(
                        f"request {request_id!r} does not fit an *empty* "
                        f"replica; raise num_blocks or max_batch")
                # Fleet full right now: back off (seeded jitter) and let
                # the decode rounds free KV blocks.  Queueing delay is
                # not wasted work — the replicas kept decoding.
                self._backoff(entry)

    # -- the decode round --------------------------------------------------
    def _decode_round(self, round_idx: int) -> None:
        durations: List[float] = []
        finished_now: List[RequestState] = []
        for replica in self.replicas:
            if not replica.live or not replica.scheduler.num_resident:
                continue
            before = replica.scheduler.clock
            finished = replica.scheduler.step()
            expected = replica.scheduler.clock - before
            observed = expected * replica.slowdown
            if self.monitor is not None:
                self.monitor.observe_decode(replica.replica_id, round_idx,
                                            expected, observed)
            self.report.useful_s += expected
            if replica.slowdown > 1.0:
                self.report.wasted_s += observed - expected
            durations.append(observed)
            finished_now.extend(finished)
            for state in finished:
                self._final[state.spec.request_id] = state
            if replica.slowdown > 1.0 \
                    and replica.health == ReplicaHealth.HEALTHY \
                    and self.watchdog.is_straggling(expected, observed):
                self._flag_straggler(replica, round_idx, expected, observed)
        if durations:
            self._advance(max(durations))
        self.report.rounds += 1
        # Latency ledger: first tokens (TTFT) and completions (TPOT).
        for replica in self.replicas:
            if not replica.live:
                continue
            for state, _ in replica.scheduler.resident_requests():
                rid = state.spec.request_id
                # Mark-at-close on the lockstep clock: the round that
                # just ended was decode time for batch slots, preempt
                # time for queued victims.  ``tokens`` rides along so
                # the first token-bearing span's end *is* the TTFT
                # instant the ledger records below.
                self._mark(rid, "decode" if replica.scheduler.is_running(rid)
                           else "preempt", replica=replica.replica_id,
                           round_idx=round_idx, tokens=len(state.tokens))
                self._note_first_token(state)
        for state in finished_now:
            rid = state.spec.request_id
            self._mark(rid, "decode",
                       replica=self._outcomes[rid].get("replica", -1),
                       round_idx=round_idx, tokens=len(state.tokens))
            if self.tracker is not None:
                self.tracker.finish(rid, self.clock, "completed")
            self._note_first_token(state)
            outcome = self._outcomes[rid]
            outcome["finished_s"] = self.clock
            decode_span = self.clock - outcome["first_token_s"]
            tpot = decode_span / max(1, len(state.tokens) - 1)
            self._tpot.observe(tpot)
            if self.monitor is not None:
                self.monitor.observe_tpot(tpot)
            self.report.completed += 1
            self.report.tokens_generated += len(state.tokens)

    def _note_first_token(self, state: RequestState) -> None:
        outcome = self._outcomes[state.spec.request_id]
        if "first_token_s" not in outcome and state.tokens:
            outcome["first_token_s"] = self.clock
            ttft = self.clock - state.spec.arrival_s
            self._ttft.observe(ttft)
            if self.monitor is not None:
                self.monitor.observe_ttft(ttft)

    def _flag_straggler(self, replica: Replica, round_idx: int,
                        expected: float, observed: float) -> None:
        """The watchdog's profiling check caught a slow replica: record
        the fault, mark it degraded and drain its residents so healthy
        replicas finish the work at full speed."""
        replica.health = ReplicaHealth.DEGRADED
        self.report.faults.append(FaultRecord(
            step=round_idx, kind=FaultKind.SLOW_REPLICA.value,
            rank=replica.replica_id, error="", detected=True,
            detection_latency_s=observed, op="decode"))
        self._record("straggler_flagged", replica=replica.replica_id,
                     round=round_idx,
                     ratio=observed / max(expected, 1e-30))
        # A watchdog trip snapshots the ring, like every fault path:
        # a straggler re-flagged after a transient restart is a ledger
        # fault of its own and must leave its own postmortem.
        self._postmortem("straggler_flagged", replica=replica.replica_id,
                         round=round_idx,
                         ratio=observed / max(expected, 1e-30))
        drained = 0
        before = replica.scheduler.clock
        for state, _ in list(replica.scheduler.resident_requests()):
            self._drained_queue.append(
                replica.scheduler.extract(state.spec.request_id))
            drained += 1
        self.report.wasted_s += replica.scheduler.clock - before
        if drained:
            self.report.recoveries.append(RecoveryRecord(
                step=round_idx, action="drain",
                detail=(f"{drained} request(s) drained off straggling "
                        f"replica {replica.replica_id} "
                        f"({observed / max(expected, 1e-30):.1f}x slow)")))

    # -- the loop ----------------------------------------------------------
    def run(self, specs: Sequence[RequestSpec]) -> FleetReport:
        pending: Deque[RequestSpec] = deque(
            sorted(specs, key=lambda s: (s.arrival_s, s.index)))
        queue: List[_Queued] = []
        recovery: List[Tuple[RequestState, Optional[SwappedKV]]] = []
        self._drained_queue = []
        self._outcomes = {
            spec.request_id: {"tier": self._tier(spec)} for spec in specs}
        self.report.requests = len(specs)
        if self.tracker is not None:
            for spec in pending:
                self.tracker.begin(spec.request_id, spec.index,
                                   spec.arrival_s)
        if self.monitor is not None:
            self.monitor.start_run(
                [r.replica_id for r in self.replicas if r.live])
        round_idx = 0
        while True:
            if round_idx > MAX_ROUNDS:
                raise PlanningError(
                    f"fleet did not converge within {MAX_ROUNDS} "
                    f"rounds; requests are stuck")
            self._begin_round(round_idx, recovery)
            recovery.extend(self._drained_queue)
            self._drained_queue = []
            while pending and pending[0].arrival_s <= self.clock:
                spec = pending.popleft()
                queue.append(_Queued(spec, tier=self._tier(spec)))
            self._drain_recovery(recovery)
            self._shed(queue)
            self._dispatch(queue, round_idx)
            if not self._any_resident():
                waits = [e.next_try_s for e in queue]
                if pending:
                    waits.append(pending[0].arrival_s)
                if not queue and not recovery and not pending:
                    self._end_round(round_idx)
                    break
                future = [w for w in waits if w > self.clock]
                if future:
                    self._advance(min(future) - self.clock)
                    self._end_round(round_idx)
                    round_idx += 1
                    continue
                if not any(r.dispatchable for r in self.replicas):
                    raise PlanningError(
                        "fleet deadlock: requests remain but no replica "
                        "is dispatchable")
                raise PlanningError(
                    "fleet deadlock: requests remain but none fit any "
                    "replica's KV pool; raise num_blocks")
            self._decode_round(round_idx)
            self._end_round(round_idx)
            round_idx += 1
        return self._finalize(specs)

    def _finalize(self, specs: Sequence[RequestSpec]) -> FleetReport:
        report = self.report
        report.steps_completed = report.rounds
        report.simulated_seconds = self.clock
        report.final_replicas = sum(1 for r in self.replicas
                                    if r.health != ReplicaHealth.RETIRED)
        report.final_world_size = report.final_replicas
        report.kv_drift_bytes = max(
            (r.drift_bytes for r in self.replicas), default=0.0)
        report.kv_fragmentation = max(
            (r.kv_fragmentation for r in self.replicas), default=0.0)
        report.ttft_p50_s = self._ttft.quantile(0.50)
        report.ttft_p95_s = self._ttft.quantile(0.95)
        report.ttft_p99_s = self._ttft.quantile(0.99)
        report.tpot_p50_s = self._tpot.quantile(0.50)
        report.tpot_p95_s = self._tpot.quantile(0.95)
        report.tpot_p99_s = self._tpot.quantile(0.99)
        per_request = []
        for spec in sorted(specs, key=lambda s: s.index):
            outcome = self._outcomes[spec.request_id]
            state = self._final.get(spec.request_id)
            per_request.append({
                "request_id": spec.request_id,
                "tier": outcome["tier"],
                "arrival_s": spec.arrival_s,
                "shed": bool(outcome.get("shed", False)),
                "replica": outcome.get("replica", -1),
                "attempts": outcome.get("attempts", 0),
                "recoveries": outcome.get("recoveries", 0),
                "first_token_s": outcome.get("first_token_s", -1.0),
                "finished_s": outcome.get("finished_s", -1.0),
                "generated_tokens": list(state.tokens) if state else [],
            })
        report.per_request = per_request
        return report

    def tokens_by_request(self) -> Dict[str, List[int]]:
        """The streamed tokens per completed request — the object the
        token-identity tests compare across fault plans."""
        return {rid: list(state.tokens)
                for rid, state in sorted(self._final.items())}


def build_fleet(config: ModelConfig, num_replicas: int, *,
                tensor_parallel: int = 1, sequence_parallel: bool = False,
                block_size: int = 4, num_blocks: int = 24,
                max_batch: int = 8, policy: str = "swap", seed: int = 0,
                plan: Optional[FaultPlan] = None,
                tracer: Optional[Tracer] = None, num_tiers: int = 1,
                slo_ttft_s: Optional[float] = None, monitor=None,
                recorder=None, request_tracker=None) -> FleetRouter:
    """A homogeneous fleet over one shared set of model weights.

    The serial reference weights are built once (model seed 3) and
    shared by every replica — decode is read-only, and sharing mirrors
    production fleets loading one checkpoint.  Each replica still owns a
    private KV pool, engine and scheduler.
    """
    if num_replicas < 1:
        raise ConfigError("num_replicas must be >= 1")
    serial = GPTModel(config, seed=3)
    if tensor_parallel > 1 or sequence_parallel:
        model = ParallelGPTModel(
            config, tensor_parallel=tensor_parallel,
            sequence_parallel=sequence_parallel,
            attention_dropout=0.0, hidden_dropout=0.0, serial=serial)
    else:
        model = serial
    perf = ServingPerfModel(config, tensor_parallel=tensor_parallel)
    replicas = [
        Replica(i, model, perf, block_size=block_size,
                num_blocks=num_blocks, max_batch=max_batch, policy=policy,
                seed=seed, tracer=tracer)
        for i in range(num_replicas)
    ]
    return FleetRouter(replicas, plan=plan, tracer=tracer, seed=seed,
                       num_tiers=num_tiers, slo_ttft_s=slo_ttft_s,
                       monitor=monitor, recorder=recorder,
                       request_tracker=request_tracker)
