"""Property-based fuzzing across the substrate: random op chains under
checkpointing, random-duration pipeline simulations, random allocator
traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocator import FirstFitAllocator
from repro.errors import PlanningError
from repro.pipeline_sim.schedule import level_plan
from repro.pipeline_sim.simulator import price
from repro.tensor import checkpoint, from_numpy, parameter, seed
from repro.tensor import functions as F


OPS = {
    "gelu": lambda t, rng: F.gelu(t),
    "softmax": lambda t, rng: F.softmax(t),
    "layernorm": lambda t, rng: F.layernorm(
        t, parameter([np.ones(t.shape[-1])]), parameter([np.zeros(t.shape[-1])])),
    "dropout": lambda t, rng: F.dropout(t, 0.3, tag="fuzz"),
    "scale": lambda t, rng: F.scale(t, 1.7),
    "matmul": lambda t, rng: F.matmul(
        t, from_numpy(rng.normal(size=(t.shape[-1], t.shape[-1])))),
    "residual": lambda t, rng: F.add(F.gelu(t), t),
}


class TestCheckpointFuzz:
    @given(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=5),
           st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_chain_checkpoint_equals_direct(self, chain, seed_value):
        """checkpoint(f) == f for arbitrary compositions of library ops,
        including stateful dropout (RNG replay)."""
        rng = np.random.default_rng(seed_value)
        x_arr = rng.normal(size=(4, 6))

        def body(t):
            local = np.random.default_rng(seed_value + 1)
            for name in chain:
                t = OPS[name](t, local)
            return t

        seed(seed_value)
        x1 = from_numpy(x_arr, requires_grad=True)
        l1 = F.sum_all(body(x1))
        l1.backward()

        seed(seed_value)
        x2 = from_numpy(x_arr, requires_grad=True)
        l2 = F.sum_all(checkpoint(body, x2))
        l2.backward()

        assert l2.item() == pytest.approx(l1.item(), abs=1e-10)
        np.testing.assert_allclose(np.asarray(x2.grad[0]),
                                   np.asarray(x1.grad[0]), atol=1e-10)

    @given(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=4),
           st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_memory_always_released_after_backward(self, chain, seed_value):
        from repro.tensor import MemoryTracker, instrument
        rng = np.random.default_rng(seed_value)
        tracker = MemoryTracker()
        with instrument(memory=tracker):
            seed(seed_value)
            x = from_numpy(rng.normal(size=(3, 4)), requires_grad=True)

            def body(t):
                local = np.random.default_rng(seed_value)
                for name in chain:
                    t = OPS[name](t, local)
                return t

            F.sum_all(checkpoint(body, x)).backward()
        assert tracker.live_bytes(0) == 0


class TestSimulatorFuzz:
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_durations_never_deadlock(self, p, n, seed_value):
        rng = np.random.default_rng(seed_value)
        fwd = rng.uniform(0.1, 2.0, size=p).tolist()
        bwd = rng.uniform(0.1, 4.0, size=p).tolist()
        makespan, busy, _ = price(level_plan(p, n), fwd, bwd,
                                  rng.uniform(0, 0.5))
        # Makespan can never beat the busiest rank's serial work.
        for rank in range(p):
            assert makespan >= n * (fwd[rank] + bwd[rank]) - 1e-9
        assert 0.0 <= 1.0 - sum(busy) / (p * makespan) < 1.0

    @given(st.integers(2, 4), st.integers(1, 3), st.sampled_from([2, 3]),
           st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_interleaved_random_durations(self, p, rounds, m, seed_value):
        n = p * rounds
        rng = np.random.default_rng(seed_value)
        groups = p * m
        fwd = rng.uniform(0.1, 1.0, size=groups).tolist()
        bwd = rng.uniform(0.1, 2.0, size=groups).tolist()
        makespan, busy, _ = price(level_plan(p, n, m), fwd, bwd)
        assert makespan > 0
        # every rank executed all its work
        for rank in range(p):
            work = n * sum(fwd[g] + bwd[g] for g in range(groups) if g % p == rank)
            assert busy[rank] == pytest.approx(work)


class TestAllocatorFuzz:
    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=60),
           st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_alloc_free_invariants(self, sizes, seed_value):
        rng = np.random.default_rng(seed_value)
        allocator = FirstFitAllocator(alignment=64)
        live = {}
        expected_live = 0
        for size in sizes:
            if live and rng.random() < 0.4:
                key = list(live)[int(rng.integers(len(live)))]
                allocator.free(live.pop(key))
                expected_live -= key[1]
            rounded = (size + 63) // 64 * 64
            handle = allocator.alloc(size)
            live[(handle, rounded)] = handle
            expected_live += rounded
            assert allocator.live_bytes == expected_live
            assert allocator.reserved_bytes >= allocator.live_bytes
        for (handle, rounded), h in list(live.items()):
            allocator.free(h)
            expected_live -= rounded
        assert allocator.live_bytes == 0
        assert allocator.reserved_bytes == 0  # full coalesce + arena shrink


class TestFleetFuzz:
    """Randomized fault plans against the chaos-serving fleet
    (:mod:`repro.fleet`): whatever the plan throws — transient replica
    crashes, stragglers, dropped dispatches, in any mix — no request is
    lost, no token stream diverges from the fault-free run, the waste
    ledger never exceeds the useful work, and the report is byte-stable
    under a re-run."""

    CFG = None  # built lazily so collection stays import-cheap
    _clean_cache = None

    @classmethod
    def _config(cls):
        if cls.CFG is None:
            from repro.config import ModelConfig
            cls.CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                                  seq_length=24, vocab_size=16,
                                  name="fleet-fuzz")
        return cls.CFG

    @classmethod
    def _specs(cls):
        from repro.serving import generate_requests
        return generate_requests(cls._config(), num_requests=6, seed=3,
                                 arrival_rate=5000.0, prompt_lengths=(1, 3),
                                 new_tokens=(2, 8))

    @classmethod
    def _run(cls, plan):
        from repro.fleet import build_fleet
        fleet = build_fleet(cls._config(), 3, block_size=2, num_blocks=10,
                            max_batch=3, seed=3, plan=plan)
        report = fleet.run(cls._specs())
        return fleet, report

    @classmethod
    def _clean_tokens(cls):
        if cls._clean_cache is None:
            from repro.resilience import FaultPlan
            fleet, _ = cls._run(FaultPlan())
            cls._clean_cache = fleet.tokens_by_request()
        return cls._clean_cache

    @given(st.integers(0, 10_000), st.floats(0.0, 0.5))
    @settings(max_examples=8, deadline=None)
    def test_random_fault_plans_preserve_every_request(self, seed_value,
                                                       fault_rate):
        from repro.observability.serialize import dumps_json
        from repro.resilience import FLEET_KINDS, FaultPlan

        plan = FaultPlan.random(seed=seed_value, num_steps=16,
                                fault_rate=fault_rate, world_size=3,
                                kinds=FLEET_KINDS)
        fleet, report = self._run(plan)
        # no request lost: everything completes (no SLO -> no shedding)
        assert report.completed == report.requests
        assert report.shed == 0
        # no token divergence from the fault-free run at the same seed
        assert fleet.tokens_by_request() == self._clean_tokens()
        # the ledger never claims more than it spent
        assert 0.0 < report.goodput() <= 1.0
        assert report.wasted_s >= 0.0
        assert report.kv_drift_bytes == 0.0
        # byte-stable: the same plan re-run emits the same report
        _, again = self._run(plan)
        assert dumps_json(report.to_json()) == dumps_json(again.to_json())


class TestTelemetryFuzz:
    """Randomized fault plans with the full telemetry stack attached:
    whatever mix of crashes, stragglers and dispatch losses the plan
    throws, the request-span partition stays exactly zero-gap and
    zero-overlap, the SLO monitor's detections score precision = recall
    = 1.0 against the injected plan, and the flight recorder's
    postmortem dump is byte-identical when the run repeats."""

    CFG = None

    @classmethod
    def _config(cls):
        if cls.CFG is None:
            from repro.config import ModelConfig
            cls.CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                                  seq_length=24, vocab_size=16,
                                  name="telemetry-fuzz")
        return cls.CFG

    @classmethod
    def _run(cls, plan, tp=1, sp=False):
        from repro.fleet import build_fleet
        from repro.observability import (
            FlightRecorder,
            RequestTracker,
            SLOMonitor,
        )
        from repro.serving import generate_requests

        recorder = FlightRecorder(capacity=32)
        tracker = RequestTracker()
        monitor = SLOMonitor(slo_ttft_s=0.05, slo_tpot_s=0.005,
                             recorder=recorder)
        fleet = build_fleet(cls._config(), 3, tensor_parallel=tp,
                            sequence_parallel=sp, block_size=2,
                            num_blocks=10, max_batch=3, seed=3, plan=plan,
                            monitor=monitor, recorder=recorder,
                            request_tracker=tracker)
        specs = generate_requests(cls._config(), num_requests=6, seed=3,
                                  arrival_rate=5000.0, prompt_lengths=(1, 3),
                                  new_tokens=(2, 8))
        report = fleet.run(specs)
        return report, monitor, recorder, tracker

    @given(st.integers(0, 10_000), st.floats(0.0, 0.5))
    @settings(max_examples=8, deadline=None)
    def test_partition_and_detection_exact_under_random_plans(
            self, seed_value, fault_rate):
        from repro.observability import reconcile_quantiles, verify_partition
        from repro.resilience import FLEET_KINDS, FaultPlan

        plan = FaultPlan.random(seed=seed_value, num_steps=16,
                                fault_rate=fault_rate, world_size=3,
                                kinds=FLEET_KINDS)
        report, monitor, recorder, tracker = self._run(plan)
        partition = verify_partition(tracker)
        assert partition["exact"], partition
        score = monitor.score_against(report)
        assert score["precision"] == 1.0, score
        assert score["recall"] == 1.0, score
        reconciled = reconcile_quantiles(tracker, report)
        assert reconciled["ttft_match"] and reconciled["tpot_match"]
        # every ledger fault leaves a postmortem (faults that fired
        # without touching a tracked request can add extra ones)
        assert len(recorder.postmortems) >= score["injected"]

    @given(st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_postmortems_and_traces_byte_identical_at_equal_seeds(
            self, seed_value):
        from repro.resilience import FLEET_KINDS, FaultPlan

        plan = FaultPlan.random(seed=seed_value, num_steps=16,
                                fault_rate=0.4, world_size=3,
                                kinds=FLEET_KINDS)
        _, _, rec_a, trk_a = self._run(plan)
        _, _, rec_b, trk_b = self._run(plan)
        assert rec_a.dumps() == rec_b.dumps()
        assert trk_a.to_json() == trk_b.to_json()

    @pytest.mark.parametrize("tp,sp", [(1, False), (2, False), (2, True)])
    def test_exactness_holds_across_parallel_layouts(self, tp, sp):
        from repro.observability import verify_partition
        from repro.resilience import FaultKind, FaultPlan, FaultSpec

        plan = FaultPlan([
            FaultSpec(step=4, kind=FaultKind.REPLICA_CRASH, rank=1),
            FaultSpec(step=6, kind=FaultKind.SLOW_REPLICA, rank=2,
                      slowdown=6.0),
            FaultSpec(step=1, kind=FaultKind.DISPATCH_LOSS),
        ])
        report, monitor, _, tracker = self._run(plan, tp=tp, sp=sp)
        assert verify_partition(tracker)["exact"]
        score = monitor.score_against(report)
        assert score["precision"] == 1.0 and score["recall"] == 1.0

    def test_every_fleet_fault_kind_is_detected(self):
        """One of each kind, far apart, so each detection is attributable."""
        from repro.resilience import FaultKind, FaultPlan, FaultSpec

        kinds = {
            FaultKind.REPLICA_CRASH: FaultSpec(
                step=4, kind=FaultKind.REPLICA_CRASH, rank=1),
            FaultKind.SLOW_REPLICA: FaultSpec(
                step=6, kind=FaultKind.SLOW_REPLICA, rank=2, slowdown=6.0),
            FaultKind.DISPATCH_LOSS: FaultSpec(
                step=1, kind=FaultKind.DISPATCH_LOSS),
        }
        for kind, spec in kinds.items():
            report, monitor, _, _ = self._run(FaultPlan([spec]))
            score = monitor.score_against(report)
            assert score["injected"] >= 1, kind
            assert score["precision"] == 1.0, (kind, score)
            assert score["recall"] == 1.0, (kind, score)


class TestCompilerFuzz:
    """Random op chains captured through :mod:`repro.compiler` must
    replay bitwise-identical to their eager execution — same loss, same
    input gradient — including stateful dropout (the replayed forward
    redraws from the same reseeded RNG) and checkpointed segments
    (composites re-execute natively under the recorded RNG snapshot)."""

    @given(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=5),
           st.integers(0, 10_000), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_random_chain_replays_bitwise(self, chain, seed_value,
                                          checkpointed):
        from repro.compiler import CaptureRecorder, capture_scope

        rng = np.random.default_rng(seed_value)
        x_arr = rng.normal(size=(4, 6))

        def body(t):
            local = np.random.default_rng(seed_value + 1)
            for name in chain:
                t = OPS[name](t, local)
            return t

        def loss_of(t):
            if checkpointed:
                return F.sum_all(checkpoint(body, t))
            return F.sum_all(body(t))

        seed(seed_value)
        x1 = from_numpy(x_arr, requires_grad=True)
        l1 = loss_of(x1)
        l1.backward()
        want_loss = l1.item()
        want_grad = np.asarray(x1.grad[0]).copy()

        recorder = CaptureRecorder("fuzz_chain")
        x2 = from_numpy(x_arr, requires_grad=True)
        seed(seed_value)
        with capture_scope(recorder):
            recorder.bind_input("x", x2)
            l2 = loss_of(x2)
            l2.backward()
        plan = recorder.finalize()
        # The capture step IS a correct step.
        assert l2.item() == want_loss
        np.testing.assert_array_equal(np.asarray(x2.grad[0]), want_grad)

        # Two replays under the same reseed: bitwise-stable every time.
        for _ in range(2):
            x2.grad = None
            seed(seed_value)
            plan.replay()
            assert l2.item() == want_loss
            np.testing.assert_array_equal(np.asarray(x2.grad[0]), want_grad)

    @given(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=4),
           st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_replay_accepts_fresh_inputs(self, chain, seed_value):
        """Rebinding the input register and replaying equals a fresh
        eager run on the new data (dropout-free chains, where the output
        is a pure function of the input)."""
        from repro.compiler import CaptureRecorder, capture_scope

        chain = [name for name in chain if name != "dropout"] or ["gelu"]
        rng = np.random.default_rng(seed_value)

        def body(t):
            local = np.random.default_rng(seed_value + 1)
            for name in chain:
                t = OPS[name](t, local)
            return t

        x = from_numpy(rng.normal(size=(4, 6)))
        recorder = CaptureRecorder("fuzz_rebind")
        with capture_scope(recorder):
            recorder.bind_input("x", x)
            out = body(x)
        plan = recorder.finalize()

        fresh = rng.normal(size=(4, 6))
        plan.bind("x", [fresh])
        plan.replay()
        from repro.tensor import no_grad
        with no_grad():
            want = body(from_numpy(fresh))
        np.testing.assert_array_equal(np.asarray(out.shards[0]),
                                      np.asarray(want.shards[0]))
