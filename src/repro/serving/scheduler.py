"""Continuous-batching scheduler: iteration-level join/leave, block-based
admission, and preemption with swap or recompute-from-prompt resume.

The scheduler owns the single simulated clock: every prefill, decode,
preempt and resume advances it by the :class:`ServingPerfModel` duration
of the work, inside a tracer span tagged with the matching serving phase
(``prefill`` / ``decode`` / ``preempt`` / ``resume``), so `repro trace`
renders a serving run exactly like a training run.

Determinism contract (asserted in tests): request workloads come from a
seeded open-loop generator, decoding is greedy (the argmax of each
request's logits; there is no per-request sampling stream), and all
durations are pure functions of the workload — so equal seeds produce
byte-identical reports, and a request's token sequence is invariant
under preemption (swap restores K/V bit-exactly; recompute replays the
identical engine math).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ModelConfig
from ..errors import ConfigError, PlanningError
from ..observability.serialize import to_jsonable
from ..observability.tracer import Tracer, span_or_null
from ..reporting.tables import pct
from .engine import DecodeEngine
from .kv_cache import KVAdmissionFull, SwappedKV
from .perf import ServingPerfModel

POLICIES = ("swap", "recompute")


@dataclass(frozen=True)
class RequestSpec:
    """One open-loop request: arrival time, prompt, generation budget."""

    index: int
    request_id: str
    arrival_s: float
    prompt: np.ndarray
    max_new_tokens: int


def generate_requests(config: ModelConfig, num_requests: int, seed: int,
                      arrival_rate: float = 200.0,
                      prompt_lengths: Tuple[int, int] = (2, 8),
                      new_tokens: Tuple[int, int] = (2, 12)) -> List[RequestSpec]:
    """Seeded open-loop workload: exponential interarrivals, uniform
    prompt lengths and generation budgets (clamped to the model window)."""
    if num_requests < 1 or arrival_rate <= 0:
        raise ConfigError("need num_requests >= 1 and arrival_rate > 0")
    rng = np.random.default_rng(seed)
    clock = 0.0
    specs: List[RequestSpec] = []
    for i in range(num_requests):
        clock += float(rng.exponential(1.0 / arrival_rate))
        plen = int(rng.integers(prompt_lengths[0], prompt_lengths[1] + 1))
        plen = min(plen, config.seq_length - 1)
        budget = int(rng.integers(new_tokens[0], new_tokens[1] + 1))
        budget = min(budget, config.seq_length - plen)
        prompt = rng.integers(0, config.vocab_size, size=plen).astype(np.int64)
        specs.append(RequestSpec(index=i, request_id=f"req{i}",
                                 arrival_s=clock, prompt=prompt,
                                 max_new_tokens=budget))
    return specs


@dataclass
class RequestState:
    """One admitted request's live decode state.

    This is the *control-plane* record: the logits the next token is
    read from, and the tokens generated so far.  It is what a
    fleet router carries across replicas when it migrates or recovers a
    request — the KV pages are device state and may be lost, but this
    record (conceptually held by the router, which already streamed the
    tokens to the client) survives any replica fault.
    """

    spec: RequestSpec
    logits: np.ndarray
    order: int
    admitted_s: float
    tokens: List[int] = field(default_factory=list)
    token_latencies: List[float] = field(default_factory=list)
    preemptions: int = 0

    @property
    def resident_tokens(self) -> int:
        """Tokens a replay (prompt + generated so far) must prefill."""
        return len(self.spec.prompt) + len(self.tokens)


@dataclass
class ServeReport:
    """Canonical, seed-deterministic summary of one serving run."""

    policy: str
    seed: int
    num_requests: int
    completed: int
    preemptions: int
    resumes: int
    tokens_generated: int
    elapsed_s: float
    tokens_per_s: float
    p50_token_latency_s: float
    p95_token_latency_s: float
    kv_drift_bytes: float
    peak_kv_occupancy: float
    per_request: List[dict]
    timeline: List[dict]
    #: ``FirstFitAllocator.stats.fragmentation`` of the paged-KV arena at
    #: end of run: 1 - peak_live/peak_reserved (0.0 = no pool waste).
    kv_fragmentation: float = 0.0

    def to_json(self) -> dict:
        return to_jsonable(self)

    def summary(self, tp: int) -> str:
        """The ``repro serve`` text; ``tp`` is the engine's
        tensor-parallel size, which the report does not record."""
        return (
            f"served {self.num_requests} request(s), policy {self.policy}, "
            f"tp={tp}: {self.tokens_generated} token(s) in "
            f"{1e3 * self.elapsed_s:.2f} ms simulated "
            f"({self.tokens_per_s:.0f} tok/s)\n"
            f"  preemptions {self.preemptions}, resumes {self.resumes}, "
            f"peak KV occupancy {pct(self.peak_kv_occupancy)}, "
            f"KV drift {self.kv_drift_bytes:.0f} B, "
            f"KV fragmentation {pct(self.kv_fragmentation)}\n"
            f"  token latency p50 {1e3 * self.p50_token_latency_s:.3f} ms, "
            f"p95 {1e3 * self.p95_token_latency_s:.3f} ms")


class ContinuousBatchingScheduler:
    """Iteration-level scheduler over one :class:`DecodeEngine`.

    Each loop iteration: resume preempted requests (FCFS), admit arrived
    requests while KV blocks allow, preempt the youngest running request
    while the coming decode step is short of blocks, then advance every
    running request by one token.  ``policy`` picks what preemption does
    with the victim's KV state: ``"swap"`` copies it to the host and
    restores it bit-exactly; ``"recompute"`` drops it and replays the
    prompt + generated tokens on resume.
    """

    def __init__(self, engine: DecodeEngine, perf: ServingPerfModel,
                 policy: str = "swap", max_batch: int = 8, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 subsystem: str = "serving", request_tracker=None):
        if policy not in POLICIES:
            raise ConfigError(f"unknown preemption policy {policy!r}")
        if max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        self.engine = engine
        self.perf = perf
        self.policy = policy
        self.subsystem = subsystem
        self.max_batch = max_batch
        self.seed = seed  # echoed into the report; decoding is greedy
        self.tracer = tracer
        # Optional per-request span tracking for the closed-loop ``run``
        # path (a fleet router tracks requests on its own clock instead
        # and leaves this unset on replica schedulers).
        self.request_tracker = request_tracker
        self.clock = 0.0
        self.preemptions = 0
        self.resumes = 0
        self.max_drift = 0.0
        self._order = 0
        self._running: Dict[str, RequestState] = {}
        self._preempted: Deque[Tuple[RequestState,
                                     Optional[SwappedKV]]] = deque()
        self._timeline: List[dict] = []
        self._finished: List[RequestState] = []
        self._finish_times: Dict[str, float] = {}

    # -- clock/trace helpers ----------------------------------------------
    def _advance(self, seconds: float) -> None:
        self.clock += seconds
        if self.tracer is not None:
            self.tracer.advance(seconds)

    def _span(self, name: str, phase: str, **args):
        return span_or_null(self.tracer, name, subsystem=self.subsystem,
                            phase=phase, **args)

    def _event(self, event: str, **fields) -> None:
        entry = {"t": self.clock, "event": event}
        entry.update(fields)
        self._timeline.append(entry)

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    def _mark(self, request_id: str, phase: str, **kw) -> None:
        if self.request_tracker is not None:
            self.request_tracker.mark(request_id, phase, self.clock, **kw)

    # -- scheduling steps --------------------------------------------------
    def _fits(self, tokens: int) -> bool:
        """Room in the batch, and KV blocks for ``tokens`` of context plus
        the token the next decode step writes."""
        return (len(self._running) < self.max_batch
                and self.engine.cache.can_admit(tokens + 1))

    def _admit(self, spec: RequestSpec, flow: Optional[int] = None) -> None:
        self._mark(spec.request_id, "queue_wait")
        args = {"request": spec.request_id, "tokens": len(spec.prompt)}
        if flow is not None:
            args["flow_in"] = flow
        with self._span("serve.prefill", "prefill", **args):
            logits = self.engine.prefill(spec.request_id, spec.prompt)
            self._advance(self.perf.prefill_time(len(spec.prompt)))
        self._mark(spec.request_id, "prefill")
        self._running[spec.request_id] = RequestState(
            spec=spec, logits=logits, order=self._next_order(),
            admitted_s=self.clock)
        self._event("admit", request=spec.request_id)

    def _evict(self, request_id: str) -> Tuple[RequestState,
                                               Optional[SwappedKV]]:
        """Take a running request off the device under ``policy``: swap
        copies its KV pages to the host, recompute frees them."""
        state = self._running.pop(request_id)
        state.preemptions += 1
        self.preemptions += 1
        with self._span("serve.preempt", "preempt", request=request_id,
                        policy=self.policy):
            if self.policy == "swap":
                swapped = self.engine.swap_out(request_id)
                self._advance(self.perf.swap_time(swapped.nbytes
                                                  * self.engine.world))
            else:
                swapped = None
                self.engine.finish(request_id)
        return state, swapped

    def _resume(self, state: RequestState, swapped: Optional[SwappedKV],
                flow: Optional[int] = None) -> None:
        """Put an evicted request back in the batch: bit-exact swap-in of
        its host KV pages, or a replay of prompt + generated tokens when
        ``swapped`` is None."""
        spec = state.spec
        args = {"request": spec.request_id,
                "policy": "swap" if swapped is not None else "recompute"}
        if flow is not None:
            args["flow_in"] = flow
        with self._span("serve.resume", "resume", **args):
            if swapped is not None:
                self.engine.swap_in(swapped)
                self._advance(self.perf.swap_time(swapped.nbytes
                                                  * self.engine.world))
            else:
                replay = np.concatenate(
                    [spec.prompt, np.asarray(state.tokens, dtype=np.int64)])
                state.logits = self.engine.prefill(spec.request_id, replay)
                self._advance(self.perf.prefill_time(len(replay)))
        state.order = self._next_order()
        self._running[spec.request_id] = state
        self.resumes += 1

    def _preempt_youngest(self) -> None:
        if len(self._running) <= 1:
            raise PlanningError(
                "KV pool cannot hold a single request's context; "
                "raise num_blocks or block_size")
        request_id = max(self._running.values(),
                         key=lambda s: s.order).spec.request_id
        state, swapped = self._evict(request_id)
        self._preempted.append((state, swapped))
        self._mark(request_id, "preempt", tokens=len(state.tokens))
        self._event("preempt", request=request_id, policy=self.policy)

    def _resume_preempted(self) -> None:
        while self._preempted:
            state, swapped = self._preempted[0]
            if not self._fits(state.resident_tokens):
                return  # FCFS: do not let younger work jump the queue
            self._preempted.popleft()
            self._resume(state, swapped)
            self._mark(state.spec.request_id, "preempt",
                       tokens=len(state.tokens))
            self._event("resume", request=state.spec.request_id,
                        policy=self.policy)

    def _finish(self, state: RequestState) -> None:
        self.engine.finish(state.spec.request_id)
        self._finished.append(state)
        self._finish_times[state.spec.request_id] = self.clock
        if self.request_tracker is not None:
            self.request_tracker.finish(state.spec.request_id, self.clock,
                                        "completed")
        self._event("finish", request=state.spec.request_id,
                    tokens=len(state.tokens))

    def _decode_iteration(self) -> None:
        while sum(1 for r in self._running
                  if self.engine.cache.needs_block(r)) \
                > self.engine.cache.free_blocks:
            self._preempt_youngest()
        batch = sorted(self._running.values(), key=lambda s: s.order)
        request_ids = [s.spec.request_id for s in batch]
        tokens = [int(np.argmax(s.logits)) for s in batch]
        contexts = [self.engine.context_length(r) + 1 for r in request_ids]
        step = self.perf.decode_step_time(len(batch), contexts)
        with self._span("serve.decode", "decode", batch=len(batch)):
            logits = self.engine.decode(request_ids, tokens)
            self._advance(step)
        self._event("decode", requests=request_ids, tokens=tokens)
        self.max_drift = max(self.max_drift, self.engine.cache.drift_bytes())
        for j, state in enumerate(batch):
            state.tokens.append(tokens[j])
            state.logits = logits[j]
            state.token_latencies.append(step)
            self._mark(state.spec.request_id, "decode",
                       tokens=len(state.tokens))
            done = (len(state.tokens) >= state.spec.max_new_tokens
                    or self.engine.context_length(state.spec.request_id)
                    >= self.engine.max_context)
            if done:
                del self._running[state.spec.request_id]
                self._finish(state)

    # -- fleet hooks -------------------------------------------------------
    # ``run`` drives a closed loop over one engine; a fleet router
    # (:mod:`repro.fleet`) instead drives N schedulers round by round
    # through the four hooks below.  They reuse the exact admission /
    # span / clock machinery above, so a request decoded through the
    # hooks decodes the same tokens as one decoded by ``run``.

    def submit(self, spec: RequestSpec, flow: Optional[int] = None) -> None:
        """Admit one externally-dispatched request, or raise
        :class:`KVAdmissionFull` (retryable on another replica).

        Refuses while preempted work is queued: resumed requests hold
        FCFS priority over new admissions, exactly as in ``run``.

        ``flow`` is the router-allocated Perfetto flow id linking this
        admission back to the dispatch span that caused it.  A refusal
        still answers the dispatch — it emits a zero-duration
        ``serve.reject`` span consuming the same flow id, so the
        router->replica link is never left dangling.
        """
        reason = None
        if self._preempted:
            reason = (f"replica has preempted work queued ahead of "
                      f"{spec.request_id!r}")
        elif not self._fits(len(spec.prompt)):
            reason = (f"batch ({self.max_batch}) or KV pool too full to "
                      f"admit {spec.request_id!r}")
        if reason is not None:
            args = {"request": spec.request_id}
            if flow is not None:
                args["flow_in"] = flow
            with self._span("serve.reject", "prefill", **args):
                pass
            raise KVAdmissionFull(reason)
        self._admit(spec, flow=flow)

    def step(self) -> List[RequestState]:
        """Advance every resident request one decode round; returns the
        requests that finished this round."""
        self._resume_preempted()
        before = len(self._finished)
        if self._running:
            self._decode_iteration()
        return self._finished[before:]

    def extract(self, request_id: str) -> Tuple[RequestState,
                                                Optional[SwappedKV]]:
        """Remove a request from this replica so the router can migrate
        it.  A running request leaves under this replica's preemption
        policy (``swap`` hands back host-resident KV pages for a
        bit-exact restore elsewhere; ``recompute`` hands back only the
        control record); an already-preempted request leaves as queued.
        """
        if request_id in self._running:
            entry = self._evict(request_id)
        else:
            for i, entry in enumerate(self._preempted):
                if entry[0].spec.request_id == request_id:
                    del self._preempted[i]
                    break
            else:
                raise ConfigError(
                    f"request {request_id!r} is not on this replica")
        self._event("extract", request=request_id, policy=self.policy)
        return entry

    def can_accept(self, state: RequestState) -> bool:
        """Would :meth:`inject` of ``state`` succeed right now?  Lets a
        router pick a target *before* paying migration wire time."""
        return self._fits(state.resident_tokens)

    def inject(self, state: RequestState,
               swapped: Optional[SwappedKV] = None,
               flow: Optional[int] = None) -> None:
        """Resume a migrated request here: bit-exact swap-in of its host
        KV pages, or recompute-from-prompt replay when ``swapped`` is
        None.  Raises :class:`KVAdmissionFull` if it does not fit.
        ``flow`` links the resume span back to the router's migrate /
        recover span, exactly as in :meth:`submit`."""
        if not self.can_accept(state):
            raise KVAdmissionFull(
                f"batch ({self.max_batch}) or KV pool too full to inject "
                f"{state.spec.request_id!r}")
        self._resume(state, swapped, flow)
        self._event("inject", request=state.spec.request_id)

    def is_running(self, request_id: str) -> bool:
        """True while the request occupies a slot in the decode batch
        (as opposed to sitting in the preempted queue)."""
        return request_id in self._running

    def resident_requests(self) -> List[Tuple[RequestState,
                                              Optional[SwappedKV]]]:
        """Every request this replica owns: running requests first in
        batch order (device KV, no swap record), then the preempted
        queue FCFS (with any host-side KV copies)."""
        batch = sorted(self._running.values(), key=lambda s: s.order)
        return [(state, None) for state in batch] + list(self._preempted)

    @property
    def num_resident(self) -> int:
        return len(self._running) + len(self._preempted)

    # -- the loop ----------------------------------------------------------
    def run(self, specs: Sequence[RequestSpec]) -> ServeReport:
        pending: Deque[RequestSpec] = deque(
            sorted(specs, key=lambda s: (s.arrival_s, s.index)))
        if self.request_tracker is not None:
            for spec in pending:
                self.request_tracker.begin(spec.request_id, spec.index,
                                           spec.arrival_s)
        waiting: Deque[RequestSpec] = deque()
        while pending or waiting or self._preempted or self._running:
            while pending and pending[0].arrival_s <= self.clock:
                spec = pending.popleft()
                waiting.append(spec)
                self._event("arrive", request=spec.request_id)
            self._resume_preempted()
            while (waiting and not self._preempted  # preempted work first
                   and self._fits(len(waiting[0].prompt))):
                self._admit(waiting.popleft())
            if not self._running:
                if pending:
                    self._advance(pending[0].arrival_s - self.clock)
                    continue
                raise PlanningError(
                    "serving deadlock: requests remain but none fit the KV "
                    "pool; raise num_blocks")
            self._decode_iteration()
        return self._report(list(specs))

    def _report(self, specs: List[RequestSpec]) -> ServeReport:
        states = {s.spec.request_id: s for s in self._finished}
        latencies = [lat for s in self._finished for lat in s.token_latencies]
        total_tokens = sum(len(s.tokens) for s in self._finished)
        per_request = []
        for spec in sorted(specs, key=lambda s: s.index):
            state = states[spec.request_id]
            per_request.append({
                "request_id": spec.request_id,
                "arrival_s": spec.arrival_s,
                "admitted_s": state.admitted_s,
                "finished_s": self._finish_times[spec.request_id],
                "prompt_tokens": int(len(spec.prompt)),
                "generated_tokens": state.tokens,
                "preemptions": state.preemptions,
            })
        return ServeReport(
            policy=self.policy,
            seed=self.seed,
            num_requests=len(specs),
            completed=len(self._finished),
            preemptions=self.preemptions,
            resumes=self.resumes,
            tokens_generated=total_tokens,
            elapsed_s=self.clock,
            tokens_per_s=total_tokens / self.clock if self.clock > 0 else 0.0,
            p50_token_latency_s=float(np.percentile(latencies, 50))
            if latencies else 0.0,
            p95_token_latency_s=float(np.percentile(latencies, 95))
            if latencies else 0.0,
            kv_drift_bytes=self.max_drift,
            peak_kv_occupancy=self.engine.cache.peak_blocks_in_use
            / self.engine.cache.num_blocks,
            per_request=per_request,
            timeline=self._timeline,
            kv_fragmentation=self.engine.cache.arena.stats.fragmentation,
        )
