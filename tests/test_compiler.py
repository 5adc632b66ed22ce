"""Static-graph step compiler: capture one step, replay bitwise-identical.

The anchor tests are the eager-vs-replay equivalence matrices — every
loss, gradient, weight and tracked byte a replayed plan produces
must equal the eager tape exactly (``assert_array_equal``, not
``allclose``) across serial, tensor-parallel and sequence-parallel
configurations — plus the plan-cache semantics.
"""

import numpy as np
import pytest

from helpers import count_calls
from repro.allocator import TracingMemoryTracker
from repro.comm import fault_scope
from repro.compiler import (
    CaptureRecorder,
    PlanCache,
    capture_scope,
)
from repro.config import ModelConfig
from repro.errors import CollectiveTimeout, CompilerError, RankFailure
from repro.layers import GPTModel, Recompute
from repro.observability.memprof import MemoryLedger
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer, trace_scope
from repro.parallel import ParallelGPTModel
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.serving import DecodeEngine, PagedKVCache
from repro.tensor import MemoryTracker, from_numpy, instrument, seed
from repro.tensor import functions as F
from repro.tensor import tensor as tape
from repro.training import PipelinedGPT, Trainer, run_step_with_retries
from repro.training.trainer import MAX_RETRIES

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=32, name="compiler-tiny")
rng = np.random.default_rng(23)


def _batch(cfg=CFG, b=4):
    return (rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_length)),
            rng.integers(0, cfg.vocab_size, size=(b, cfg.seq_length)))


def _model(layout, recompute=Recompute.NONE, fused=False, cfg=CFG):
    seed(0)
    if layout == "serial":
        return GPTModel(cfg, recompute=recompute, seed=0, fused=fused)
    return ParallelGPTModel(cfg, tensor_parallel=2,
                            sequence_parallel=(layout == "tp+sp"),
                            recompute=recompute, seed=0, fused=fused)


def _assert_params_equal(a, b):
    for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
        assert n1 == n2
        for r in range(p1.world):
            np.testing.assert_array_equal(
                np.asarray(p1.shards[r]), np.asarray(p2.shards[r]),
                err_msg=n1)


class TestTrainerReplay:
    """Replayed Trainer steps are bitwise-equal to eager steps: both
    twins see identical per-step RNG, so dropout masks, losses, Adam
    updates and final weights must all match exactly."""

    @pytest.mark.parametrize("layout,recompute,fused", [
        ("serial", Recompute.NONE, False),
        ("serial", Recompute.NONE, True),
        ("serial", Recompute.SELECTIVE, False),
        ("serial", Recompute.SELECTIVE, True),
        ("tp", Recompute.NONE, False),
        ("tp+sp", Recompute.NONE, False),
        ("tp+sp", Recompute.SELECTIVE, False),
    ])
    def test_bitwise_matrix(self, layout, recompute, fused):
        compiled = Trainer(_model(layout, recompute, fused), lr=1e-3,
                           compiled=True)
        eager = Trainer(_model(layout, recompute, fused), lr=1e-3)
        ids, targets = _batch()
        for step in range(3):
            seed(1000 + step)
            loss_c = compiled.train_step(ids, targets, num_microbatches=2)
            seed(1000 + step)
            loss_e = eager.train_step(ids, targets, num_microbatches=2)
            assert loss_c == loss_e, (step, loss_c, loss_e)
        _assert_params_equal(compiled.model, eager.model)
        # one capture (miss), then pure replays
        assert compiled.plans.stats() == {"plans": 1, "hits": 2, "misses": 1}

    def test_memory_tracking_is_identical_under_replay(self):
        """A replayed step re-saves and re-releases through the same
        FnCtx objects, so a tracing tracker sees the exact alloc/free
        stream the eager tape produced — sizes, categories and order."""
        def _trace(trainer, reseed):
            tracker = TracingMemoryTracker(rank=0)
            seed(reseed)
            with instrument(memory=tracker):
                trainer.train_step(*_pair)
            return [(e.kind, e.nbytes, e.category) for e in tracker.trace]

        _pair = _batch()
        compiled = Trainer(_model("serial", Recompute.SELECTIVE), lr=1e-3,
                           compiled=True)
        eager = Trainer(_model("serial", Recompute.SELECTIVE), lr=1e-3)
        _trace(compiled, 7)   # capture step
        _trace(eager, 7)
        replayed = _trace(compiled, 8)   # replay step
        eagered = _trace(eager, 8)
        assert replayed == eagered


class TestPlanCacheSemantics:
    def test_shape_and_microbatch_changes_miss(self):
        trainer = Trainer(_model("serial"), lr=1e-3, compiled=True)
        ids, targets = _batch()
        seed(1)
        trainer.train_step(ids, targets)                       # miss
        seed(2)
        trainer.train_step(ids, targets)                       # hit
        seed(3)
        trainer.train_step(ids, targets, num_microbatches=2)   # miss
        seed(4)
        trainer.train_step(ids[:2], targets[:2])               # miss
        seed(5)
        trainer.train_step(ids, targets)                       # hit
        assert trainer.plans.stats() == {"plans": 3, "hits": 2, "misses": 3}

    def test_cache_clear_and_contains(self):
        cache = PlanCache()
        assert cache.get("k") is None
        cache.put("k", object())
        assert "k" in cache and cache.get("k") is not None
        assert cache.stats() == {"plans": 1, "hits": 1, "misses": 1}
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"plans": 0, "hits": 0, "misses": 0}

    def test_bind_unknown_input_raises(self):
        trainer = Trainer(_model("serial"), lr=1e-3, compiled=True)
        seed(1)
        trainer.train_step(*_batch())
        plan = trainer.plans.plans()[0]
        with pytest.raises(CompilerError, match="no input"):
            plan.bind(("ids", 99), [np.zeros((1,))])

    def test_plan_stats_are_canonical(self):
        trainer = Trainer(_model("tp+sp"), lr=1e-3, compiled=True)
        seed(1)
        trainer.train_step(*_batch())
        plan = trainer.plans.plans()[0]
        stats = plan.stats()
        assert stats["ops"] == plan.num_ops > 0
        assert stats["forward_ops"] > 0 and stats["backward_ops"] > 0
        assert stats["collectives"] == len(plan.collective_schedule()) > 0
        assert stats["arena_bytes"] > 0 and stats["planned_buffers"] > 0
        # collective schedule rows are (op_index, kind, fn_name), ordered
        indices = [row[0] for row in plan.collective_schedule()]
        assert indices == sorted(indices)


class TestOneStepBody:
    """Each driver states its step once: the capture is the eager body
    under a recorder, a replay is that body's effects without the tape."""

    def test_trace_stream_is_identical_eager_capture_replay(self):
        """Spans, instants and counters of an eager step, a capture step,
        a replay step, and a replay step whose plan was captured with no
        tracer installed."""
        ids, targets = _batch()

        def stream(trainer, reseed):
            tracer = Tracer(metrics=MetricsRegistry())
            seed(reseed)
            with trace_scope(tracer):
                trainer.train_step(ids, targets, num_microbatches=2)
            return ([(s.name, s.subsystem, s.rank, s.ts, s.dur, s.args,
                      s.parent) for s in tracer.spans],
                    [(i.name, i.ts, i.args) for i in tracer.instants],
                    tracer.metrics.snapshot())

        def trainer(compiled):
            return Trainer(_model("tp+sp", Recompute.SELECTIVE), lr=1e-3,
                           compiled=compiled)

        eager, compiled, untraced = trainer(False), trainer(True), trainer(True)
        seed(5)
        untraced.train_step(ids, targets, num_microbatches=2)   # capture, no tracer
        want = stream(eager, 5)
        assert stream(compiled, 5) == want                      # capture step
        assert len(want[0]) > 10 and want[2]
        want = stream(eager, 6)
        assert stream(compiled, 6) == want                      # replay step
        assert stream(untraced, 6) == want
        assert untraced.plans.stats() == {"plans": 1, "hits": 1, "misses": 1}

    def test_pipeline_has_no_compiled_arm(self):
        with pytest.raises(TypeError):
            PipelinedGPT(_model("serial"), 2, compiled=True)

    def test_decode_engine_has_no_compiled_arm(self):
        cache = PagedKVCache(CFG, tensor_parallel=1, block_size=4,
                             num_blocks=16)
        with pytest.raises(TypeError):
            DecodeEngine(_model("serial"), cache, compiled=True)


class TestStaleReplay:
    """Whatever the public API can change between two steps is in the
    plan key: the changed step captures afresh and equals eager."""

    @pytest.mark.parametrize("mutate", [
        lambda model: model.eval(),
        lambda model: [setattr(layer, "recompute", Recompute.FULL)
                       for layer in model.layers],
    ], ids=["eval", "recompute"])
    def test_model_mutation_between_steps_misses(self, mutate):
        compiled = Trainer(_model("serial"), lr=1e-3, compiled=True)
        eager = Trainer(_model("serial"), lr=1e-3)
        ids, targets = _batch()

        def step(trainer, reseed):
            tracker = MemoryTracker()
            seed(reseed)
            with instrument(memory=tracker):
                loss = trainer.train_step(ids, targets)
            return loss, tracker.peak_bytes(0)

        for index in range(4):
            if index == 1:
                mutate(compiled.model)
                mutate(eager.model)
            assert step(compiled, 3000 + index) == step(eager, 3000 + index)
        _assert_params_equal(compiled.model, eager.model)
        assert compiled.plans.stats() == {"plans": 2, "hits": 2, "misses": 2}


class TestFaultedStepTrace:
    """A collective fault aborts an attempt mid-forward; the retried run's
    span stream and the tracer's final stack depth equal the eager
    twin's, whether the fault hit the capture step or a replay."""

    @pytest.mark.parametrize("fault_step", [0, 1], ids=["capture", "replay"])
    def test_aborted_attempt_leaves_tracer_balanced(self, fault_step):
        ids, targets = _batch()

        def run(compiled):
            trainer = Trainer(_model("tp"), lr=1e-3, compiled=compiled)
            injector = FaultInjector(FaultPlan([FaultSpec(
                step=fault_step, kind=FaultKind.DROPPED_COLLECTIVE,
                call_index=3)]))
            tracer, losses = Tracer(), []
            with trace_scope(tracer), fault_scope(injector):
                for step in range(3):
                    injector.begin_step(step)
                    seed(4000 + step)
                    losses.append(run_step_with_retries(
                        lambda: trainer.train_step(ids, targets)))
                depth = len(tracer._stack)
            assert injector.report.retries == 1
            return ([s.name for s in tracer.spans], depth, losses), trainer

        (got, compiled), (want, eager) = run(True), run(False)
        assert got == want
        assert want[1] == 0 and want[0].count("step") == 4
        _assert_params_equal(compiled.model, eager.model)


    _DROP = FaultSpec(step=1, kind=FaultKind.DROPPED_COLLECTIVE, call_index=3)

    @pytest.mark.parametrize("compiled, specs, retries", [
        (False, [_DROP], 1),
        (True, [_DROP], 1),
        # The two ways an attempt's error leaves the retry loop: a rank
        # failure is never retried in place, and one drop more than
        # ``MAX_RETRIES`` re-raises.  The caller replays the step.
        (False, [FaultSpec(step=1, kind=FaultKind.RANK_CRASH, call_index=3)], 0),
        (False, [_DROP] * (MAX_RETRIES + 1), MAX_RETRIES),
    ], ids=["eager", "compiled", "crash", "exhausted"])
    def test_aborted_attempt_leaves_tracker_clean(self, compiled, specs,
                                                  retries):
        """Whichever way an aborted attempt is left — retried in place or
        propagated — what it charged is dropped: live bytes return to
        zero after every step and the peak is the fault-free twin's (the
        next attempt used to run on top of the abandoned saves)."""
        ids, targets = _batch()

        def run(specs):
            trainer = Trainer(_model("tp"), lr=1e-3, compiled=compiled)
            injector = FaultInjector(FaultPlan(specs))
            ledger, rows = MemoryLedger(), []
            with instrument(memory=ledger), fault_scope(injector):
                for step in range(4):
                    injector.begin_step(step)
                    for _replay in range(2):
                        seed(4000 + step)
                        try:
                            run_step_with_retries(
                                lambda: trainer.train_step(ids, targets))
                            break
                        except (RankFailure, CollectiveTimeout):
                            assert ledger.live_bytes() == 0
                    rows.append((ledger.live_bytes(0), ledger.peak_bytes(0)))
                    assert ledger.live_entry_bytes() == ledger.live_bytes()
            assert len(injector.report.faults) == len(specs)
            return rows, injector.report.retries

        want, _ = run([])
        assert [live for live, _ in want] == [0] * 4 and want[0][1] > 0
        assert run(specs) == (want, retries)


class TestCaptureErrors:
    def test_nested_capture_raises(self):
        with capture_scope(CaptureRecorder("outer")):
            with pytest.raises(CompilerError, match="capture"):
                with capture_scope(CaptureRecorder("inner")):
                    pass  # pragma: no cover

    def test_duplicate_input_binding_raises(self):
        recorder = CaptureRecorder("dup")
        x = from_numpy(np.zeros((2, 2)))
        with capture_scope(recorder):
            recorder.bind_input("x", x)
            with pytest.raises(CompilerError):
                recorder.bind_input("x", x)

    def test_memprof_falls_back_to_eager(self):
        """The memory profiler needs live tape frames, so compiled
        trainers run eagerly (and capture nothing) under a memprof."""
        from repro.observability.memprof import MemProfiler, memprof_scope

        trainer = Trainer(_model("serial"), lr=1e-3, compiled=True)
        ids, targets = _batch()
        seed(1)
        with memprof_scope(MemProfiler()):
            trainer.train_step(ids, targets)
        assert trainer.plans.stats()["plans"] == 0


class TestStandaloneCapture:
    def test_forward_chain_replays_on_new_input(self):
        x = from_numpy(rng.standard_normal((4, 4)))
        w = from_numpy(rng.standard_normal((4, 4)))
        recorder = CaptureRecorder("chain")
        with capture_scope(recorder):
            recorder.bind_input("x", x)
            y = F.scale(F.add(F.mul(x, w), w), 0.5)
        plan = recorder.finalize()
        first = np.asarray(y.shards[0]).copy()
        fresh = rng.standard_normal((4, 4))
        plan.bind("x", [fresh])
        plan.replay()
        np.testing.assert_array_equal(
            np.asarray(y.shards[0]), (fresh * np.asarray(w.shards[0])
                                      + np.asarray(w.shards[0])) * 0.5)
        assert not np.array_equal(np.asarray(y.shards[0]), first)
        assert plan.replays == 1

    def test_backward_grads_replay_bitwise(self):
        x_arr = rng.standard_normal((3, 5))

        def run_eager():
            x = from_numpy(x_arr, requires_grad=True)
            loss = F.sum_all(F.gelu(F.scale(x, 1.3)))
            loss.backward()
            return loss.item(), np.asarray(x.grad[0]).copy()

        want_loss, want_grad = run_eager()
        x = from_numpy(x_arr, requires_grad=True)
        recorder = CaptureRecorder("bwd")
        with capture_scope(recorder):
            recorder.bind_input("x", x)
            loss = F.sum_all(F.gelu(F.scale(x, 1.3)))
            loss.backward()
        plan = recorder.finalize()
        assert loss.item() == want_loss
        np.testing.assert_array_equal(np.asarray(x.grad[0]), want_grad)
        x.grad = None
        plan.replay()
        assert loss.item() == want_loss
        np.testing.assert_array_equal(np.asarray(x.grad[0]), want_grad)


    def test_chain_replay_runs_the_program_and_no_tape(self, monkeypatch):
        """What the retired wall-clock chain ratio stood for, stated
        exactly: replaying the 600-op elementwise chain applies nothing
        to the tape, builds no ``Node``, runs each program entry once and
        leaves the eager chain's bits in the output register."""
        x = from_numpy(rng.standard_normal((4, 4)), requires_grad=True)
        w = from_numpy(rng.standard_normal((4, 4)))
        b = from_numpy(rng.standard_normal((4, 4)))

        def chain(y):
            for _ in range(200):
                y = F.scale(F.add(F.mul(y, w), b), 0.999)
            return y

        recorder = CaptureRecorder("chain")
        with capture_scope(recorder):
            recorder.bind_input("x", x)
            out = chain(x)
        plan = recorder.finalize()
        assert plan.op_counts()["forward"] == 600
        fresh = rng.standard_normal((4, 4))
        want = np.asarray(
            chain(from_numpy(fresh, requires_grad=True)).shards[0]).copy()

        runs = [0] * plan.num_ops

        def counted(index, closure):
            def run():
                runs[index] += 1
                closure()
            return run

        plan._program = tuple(counted(i, c)
                              for i, c in enumerate(plan._program))
        applies = count_calls(monkeypatch, F, "apply")
        nodes = count_calls(monkeypatch, tape, "Node")
        plan.bind("x", [fresh])
        plan.replay()
        assert applies == [] and nodes == []
        assert runs == [1] * plan.num_ops
        np.testing.assert_array_equal(np.asarray(out.shards[0]), want)
        chain(from_numpy(fresh, requires_grad=True))   # the counters do count
        assert len(applies) == len(nodes) == 600
