"""Fault injection and elastic recovery (the resilience subsystem).

The headline property under test: a training run interrupted by any
fault plan — crashes, stragglers, dropped collectives, bit flips —
recovers to weights **bitwise-identical** to the uninterrupted run at
the same seed (elastic shrink, which changes the dp group size, is held
to the repo's data-parallel exactness standard of 1e-12 instead).
"""

import numpy as np
import pytest

import repro
from repro.config import (
    ExperimentConfig,
    ModelConfig,
    ParallelConfig,
    TrainingConfig,
)
from repro.errors import (
    CheckpointCorruptError,
    CollectiveTimeout,
    CommError,
    ConfigError,
    CorruptionDetected,
    RankFailure,
    ReproError,
)
from repro.layers import GPTModel
from repro.parallel import ParallelGPTModel
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Watchdog,
    make_step_batches,
)
from repro.resilience import recovery
from repro.tensor.functions import MaskSource
from repro.training import DataParallelTrainer, checkpoint_exists
from repro.training.trainer import MAX_RETRIES
from repro.training.serialization import (
    load_training_state,
    save_training_state,
)

from helpers import assert_weights_bitwise_equal, run_resilient

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=16)
MS = MaskSource(seed=3, keep_prob=0.95)


@pytest.fixture()
def factory():
    serial = GPTModel(CFG, seed=5, mask_source=MS)
    return lambda: ParallelGPTModel(CFG, tensor_parallel=2,
                                    sequence_parallel=True,
                                    mask_source=MS, serial=serial)


def experiment_config(dp: int = 2) -> ExperimentConfig:
    return ExperimentConfig(
        model=CFG,
        parallel=ParallelConfig(tensor_parallel=2, data_parallel=dp,
                                sequence_parallel=True),
        training=TrainingConfig(micro_batch_size=1, global_batch_size=4),
    )


class TestFaultPlan:
    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(seed=7, num_steps=20, fault_rate=0.5)
        b = FaultPlan.random(seed=7, num_steps=20, fault_rate=0.5)
        assert a.faults == b.faults
        assert len(a) > 0

    def test_zero_rate_plan_is_empty(self):
        assert FaultPlan.random(seed=7, num_steps=20, fault_rate=0.0).is_empty

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(step=-1, kind=FaultKind.STRAGGLER)
        with pytest.raises(ConfigError):
            FaultSpec(step=0, kind=FaultKind.STRAGGLER, slowdown=0.5)
        with pytest.raises(ConfigError):
            FaultPlan.random(seed=0, num_steps=5, fault_rate=1.5)


class TestWatchdog:
    def test_hang_detected_at_timeout(self):
        wd = Watchdog(timeout_s=0.25)
        assert wd.hang("all_reduce") == 0.25
        assert wd.clock_s == 0.25

    def test_extreme_straggler_times_out(self):
        wd = Watchdog(timeout_s=1e-9)
        with pytest.raises(CollectiveTimeout):
            wd.observe("all_reduce", nbytes=1 << 20, world=2, slowdown=8.0)

    def test_mild_straggler_flagged_not_fatal(self):
        wd = Watchdog()
        expected, observed = wd.observe("all_reduce", nbytes=1 << 20,
                                        world=2, slowdown=8.0)
        assert observed > expected
        assert wd.is_straggling(expected, observed)
        expected, observed = wd.observe("all_reduce", nbytes=1 << 20, world=2)
        assert not wd.is_straggling(expected, observed)


class TestCleanPath:
    def test_empty_plan_fires_nothing(self, factory, tmp_path):
        trainer, result = run_resilient(factory, FaultPlan(),
                                        tmp_path / "ckpt.npz", num_steps=4)
        report = result.report
        assert report.faults == [] and report.recoveries == []
        assert report.retries == report.rollbacks == report.shrinks == 0
        assert report.goodput() == 1.0
        assert report.all_faults_detected  # vacuously: nothing undetected

    def test_empty_plan_matches_plain_loop_bitwise(self, factory, tmp_path):
        """The harness itself must not perturb training: an empty-plan
        resilient run equals a plain loop with no harness installed."""
        trainer, result = run_resilient(factory, FaultPlan(),
                                        tmp_path / "ckpt.npz", num_steps=4)

        plain = DataParallelTrainer(factory, data_parallel=2, lr=1e-2)
        batch_fn = make_step_batches(CFG.vocab_size, CFG.seq_length,
                                     batch_size=4, seed=5)
        plain_losses = [plain.train_step(*batch_fn(step)) for step in range(4)]

        assert plain_losses == result.losses
        assert_weights_bitwise_equal(plain.model, trainer.model)


class TestRecoveryDeterminism:
    """Kill/perturb a run mid-step, recover, compare against fault-free."""

    def _clean(self, factory, tmp_path, **kw):
        return run_resilient(factory, FaultPlan(),
                             tmp_path / "clean.npz", **kw)

    @pytest.mark.parametrize("spec", [
        FaultSpec(step=2, kind=FaultKind.RANK_CRASH, rank=1, call_index=4),
        FaultSpec(step=1, kind=FaultKind.DROPPED_COLLECTIVE, call_index=2),
        FaultSpec(step=3, kind=FaultKind.BIT_FLIP, rank=0, call_index=5),
    ], ids=["transient-crash", "dropped-collective", "bit-flip"])
    def test_single_fault_recovery_is_bitwise_identical(
            self, factory, tmp_path, spec):
        clean_trainer, clean = self._clean(factory, tmp_path)
        faulty_trainer, faulty = run_resilient(
            factory, FaultPlan([spec]), tmp_path / "faulty.npz")

        assert len(faulty.report.faults) == 1
        assert faulty.report.all_faults_detected
        assert faulty.losses == clean.losses
        assert_weights_bitwise_equal(clean_trainer.model, faulty_trainer.model)

    def test_crash_recovery_rolls_back_to_checkpoint(self, factory, tmp_path):
        spec = FaultSpec(step=3, kind=FaultKind.RANK_CRASH, rank=0)
        _, result = run_resilient(factory, FaultPlan([spec]),
                                  tmp_path / "c.npz",
                                  checkpoint_interval=2)
        report = result.report
        assert report.rollbacks == 1
        assert report.steps_replayed == 1      # step 3 restored from step 2
        assert report.wasted_flops > 0
        actions = [r.action for r in report.recoveries]
        assert "rollback" in actions

    def test_transient_faults_retry_in_place(self, factory, tmp_path):
        plan = FaultPlan([
            FaultSpec(step=1, kind=FaultKind.DROPPED_COLLECTIVE),
            FaultSpec(step=2, kind=FaultKind.BIT_FLIP, rank=1),
        ])
        _, result = run_resilient(factory, plan, tmp_path / "r.npz")
        report = result.report
        assert report.retries == 2 and report.rollbacks == 0
        backoffs = [r.backoff_s for r in report.recoveries
                    if r.action == "retry"]
        assert all(b > 0 for b in backoffs)
        errors = {f.error for f in report.faults}
        assert errors == {"CollectiveTimeout", "CorruptionDetected"}

    def test_straggler_flagged_without_recovery(self, factory, tmp_path):
        spec = FaultSpec(step=1, kind=FaultKind.STRAGGLER, rank=0, slowdown=9.0)
        clean_trainer, clean = self._clean(factory, tmp_path)
        faulty_trainer, faulty = run_resilient(
            factory, FaultPlan([spec]), tmp_path / "s.npz")
        report = faulty.report
        assert [f.kind for f in report.faults] == [FaultKind.STRAGGLER.value]
        assert report.all_faults_detected
        assert report.retries == report.rollbacks == 0
        assert faulty.losses == clean.losses
        assert_weights_bitwise_equal(clean_trainer.model, faulty_trainer.model)

    def test_detection_latency_is_watchdog_timeout_for_hangs(
            self, factory, tmp_path):
        spec = FaultSpec(step=1, kind=FaultKind.DROPPED_COLLECTIVE)
        _, result = run_resilient(factory, FaultPlan([spec]),
                                  tmp_path / "d.npz")
        (fault,) = result.report.faults
        assert fault.detection_latency_s == Watchdog().timeout_s
        assert result.report.simulated_seconds > fault.detection_latency_s


class TestElasticShrink:
    def test_permanent_loss_shrinks_group_and_replans(self, factory, tmp_path):
        spec = FaultSpec(step=2, kind=FaultKind.RANK_CRASH, rank=1,
                         call_index=3, permanent=True)
        clean_trainer, clean = run_resilient(factory, FaultPlan(),
                                             tmp_path / "clean.npz")
        trainer, result = run_resilient(
            factory, FaultPlan([spec]), tmp_path / "shrink.npz",
            experiment_config=experiment_config())

        report = result.report
        assert trainer.dp == 1 and report.final_world_size == 1
        assert report.shrinks == 1
        actions = [r.action for r in report.recoveries]
        assert actions.index("shrink") < actions.index("rollback")
        assert "replan" in actions
        assert trainer.replicas_synchronized()
        assert len(result.losses) == len(clean.losses)
        # dp-way averaging over the same global batch is exact, so the
        # shrunken group stays on the clean trajectory (repo standard).
        np.testing.assert_allclose(result.losses, clean.losses, atol=1e-12)
        for p, q in zip(clean_trainer.model.parameters(),
                        trainer.model.parameters()):
            for r in range(p.world):
                np.testing.assert_allclose(np.asarray(p.shards[r]),
                                           np.asarray(q.shards[r]),
                                           atol=1e-12)

    def test_process_group_shrink(self):
        from repro.comm import ProcessGroup
        group = ProcessGroup(4, scope="dp")
        smaller = group.shrink()
        assert smaller.size == 3 and smaller.scope == "dp"
        with pytest.raises(CommError):
            ProcessGroup(2).shrink(by=2)   # would leave an empty group

    def test_cost_model_slowdown_scales_wire_time(self):
        from repro.comm.cost_model import CollectiveCostModel
        from repro.tensor.oplog import CommInfo
        cost = CollectiveCostModel()
        info = CommInfo("all_reduce", 1 << 20, 4, "tp")
        base, slowed = cost.time(info), cost.time(info, slowdown=8.0)
        assert slowed > base            # wire time scales, overhead doesn't
        assert slowed < 8.0 * base + 1e-12
        with pytest.raises(CommError):
            cost.time(info, slowdown=0.5)

    def test_drop_replica_validation(self, factory):
        trainer = DataParallelTrainer(factory, data_parallel=2)
        with pytest.raises(ConfigError):
            trainer.drop_replica(5)
        trainer.drop_replica(1)
        assert trainer.dp == 1
        with pytest.raises(ConfigError):
            trainer.drop_replica(0)   # never drop the last survivor


class TestChaos:
    """Randomized (but seeded) multi-fault campaigns: every fault
    detected, recovery bitwise-exact."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_chaos_campaign_recovers_bitwise(self, factory, tmp_path, seed):
        plan = FaultPlan.random(seed=seed, num_steps=6, fault_rate=0.6,
                                world_size=2)
        assert not plan.is_empty     # these seeds all schedule faults
        clean_trainer, clean = run_resilient(
            factory, FaultPlan(), tmp_path / "clean.npz", batch_seed=seed)
        trainer, result = run_resilient(
            factory, plan, tmp_path / "chaos.npz", batch_seed=seed)

        report = result.report
        assert len(report.faults) >= len(plan) - report.rollbacks
        assert report.all_faults_detected
        assert report.goodput() < 1.0
        assert result.losses == clean.losses
        assert_weights_bitwise_equal(clean_trainer.model, trainer.model)

    def test_report_json_round_trips(self, factory, tmp_path):
        import json
        plan = FaultPlan.random(seed=11, num_steps=4, fault_rate=0.8)
        _, result = run_resilient(factory, plan, tmp_path / "j.npz",
                                  num_steps=4)
        blob = json.loads(json.dumps(result.report.to_json()))
        assert blob["all_faults_detected"] is True
        assert len(blob["faults"]) == len(result.report.faults)
        assert 0.0 < blob["goodput"] <= 1.0


class TestGoodputSweeps:
    """What the resilience layer costs, swept on a dropout-free TP=1
    model: goodput falls as faults get more frequent and as checkpoints
    get sparser."""

    TINY = ModelConfig(num_layers=1, hidden_size=16, num_heads=2,
                       seq_length=16, vocab_size=32)

    def _report(self, plan, path, checkpoint_interval=2):
        def factory():
            return ParallelGPTModel(self.TINY, tensor_parallel=1,
                                    attention_dropout=0.0, hidden_dropout=0.0)
        _, result = run_resilient(factory, plan, path, num_steps=8,
                                  batch_seed=0,
                                  checkpoint_interval=checkpoint_interval)
        return result.report

    def test_goodput_falls_as_fault_rate_rises(self, tmp_path):
        reports = [self._report(FaultPlan.random(seed=11, num_steps=8,
                                                 fault_rate=rate,
                                                 world_size=2),
                                tmp_path / f"rate{rate}.npz")
                   for rate in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert reports[0].goodput() == 1.0      # clean path: zero overhead
        assert all(r.all_faults_detected for r in reports)
        assert reports[-1].goodput() < reports[0].goodput()

    def test_sparser_checkpoints_replay_more(self, tmp_path):
        crashes = FaultPlan([
            FaultSpec(step=3, kind=FaultKind.RANK_CRASH, rank=0),
            FaultSpec(step=6, kind=FaultKind.RANK_CRASH, rank=1),
        ])
        reports = [self._report(crashes, tmp_path / f"every{n}.npz",
                                checkpoint_interval=n)
                   for n in (1, 2, 4, 8)]
        replayed = [r.steps_replayed for r in reports]
        assert replayed == sorted(replayed)
        goodputs = [r.goodput() for r in reports]
        assert goodputs == sorted(goodputs, reverse=True)


class TestCheckpointChecksum:
    def _state(self, factory, tmp_path):
        trainer = DataParallelTrainer(factory, data_parallel=1, lr=1e-2)
        path = str(tmp_path / "state.npz")
        save_training_state(trainer.model, trainer.optimizers[0], path)
        return trainer, path

    def test_roundtrip_verifies(self, factory, tmp_path):
        trainer, path = self._state(factory, tmp_path)
        assert checkpoint_exists(path)
        load_training_state(trainer.model, trainer.optimizers[0], path)

    def test_corruption_raises_and_invalidates(self, factory, tmp_path):
        trainer, path = self._state(factory, tmp_path)
        # Rewrite the archive with one weight element bit-flipped but the
        # original (now stale) checksum entry — a silent content change.
        with np.load(path) as archive:
            data = {name: archive[name] for name in archive.files}
        name = next(n for n in data if not n.startswith("__"))
        flipped = data[name].copy()
        flat = flipped.reshape(-1).view(np.uint8)
        flat[0] ^= 1
        data[name] = flipped
        np.savez(path, **data)
        with pytest.raises(CheckpointCorruptError):
            load_training_state(trainer.model, trainer.optimizers[0], path)
        assert not checkpoint_exists(path)
        assert checkpoint_exists(path, validate=False)

    def test_missing_and_garbage_paths(self, tmp_path):
        assert not checkpoint_exists(str(tmp_path / "nope.npz"))
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"not a zip archive at all")
        assert not checkpoint_exists(str(garbage))


class TestErrorHierarchy:
    def test_fault_errors_are_comm_errors(self):
        for err in (RankFailure(0), CollectiveTimeout("all_reduce", 0.5),
                    CorruptionDetected("all_gather", 1)):
            assert isinstance(err, CommError)
            assert isinstance(err, repro.ReproError)

    def test_top_level_exports(self):
        for name in ("ReproError", "CommError", "ConfigError", "ShapeError",
                     "AutogradError", "PlanningError", "ScheduleError",
                     "CheckpointCorruptError", "RankFailure",
                     "CollectiveTimeout", "CorruptionDetected"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_typed_fault_errors_carry_context(self):
        failure = RankFailure(3, permanent=True)
        assert failure.rank == 3 and failure.permanent
        timeout = CollectiveTimeout("reduce_scatter", 0.5)
        assert timeout.op == "reduce_scatter" and timeout.timeout_s == 0.5
        corrupt = CorruptionDetected("broadcast", 2)
        assert corrupt.op == "broadcast" and corrupt.rank == 2


class TestRetryExhaustion:
    """The ladder's two budgets, at their constants: ``MAX_RETRIES``
    in-place retries per step attempt, then a rollback; at most
    ``MAX_ROLLBACKS`` rollbacks per run, then the run fails loudly
    rather than looping forever."""

    @staticmethod
    def _drops(step, count):
        return [FaultSpec(step=step, kind=FaultKind.DROPPED_COLLECTIVE,
                          call_index=i) for i in range(count)]

    def test_unrecoverable_plan_escalates(self, factory, tmp_path):
        """One drop more than the retries absorb escalates to a rollback;
        the replay meets the last drop and retries it in place."""
        plan = FaultPlan(self._drops(1, MAX_RETRIES + 2))
        _, result = run_resilient(factory, plan, tmp_path / "x.npz",
                                  num_steps=3)
        report = result.report
        assert report.rollbacks == 1
        assert report.retries == MAX_RETRIES + 1
        assert len(result.losses) == 3

    def test_rollback_budget_exhausted_raises(self, factory, tmp_path,
                                               monkeypatch):
        """Two escalations (exhausted retries, then a crash) against a
        budget of one rollback."""
        monkeypatch.setattr(recovery, "MAX_ROLLBACKS", 1)
        plan = FaultPlan(self._drops(1, MAX_RETRIES + 1) + [
            FaultSpec(step=2, kind=FaultKind.RANK_CRASH, rank=0)])
        with pytest.raises(ReproError, match="max_rollbacks"):
            run_resilient(factory, plan, tmp_path / "x.npz", num_steps=3)


class TestSeededBackoff:
    """The fleet's retry spacing: jittered exponential backoff that is a
    pure function of ``(seed, attempt, request_id)`` — deterministic at
    equal seeds yet decorrelated across requests."""

    def test_envelope_grows_exponentially_to_the_cap(self):
        from repro.resilience.backoff import backoff_envelope

        assert backoff_envelope(0.01, 0, 0.5) == pytest.approx(0.01)
        assert backoff_envelope(0.01, 3, 0.5) == pytest.approx(0.08)
        assert backoff_envelope(0.01, 9, 0.5) == pytest.approx(0.5)
        # huge attempt counts must clamp, not overflow factor**attempt
        assert backoff_envelope(0.01, 10**6, 0.5) == pytest.approx(0.5)
        # the training retry ladder's envelope is uncapped
        assert backoff_envelope(0.05, 2) == pytest.approx(0.2)

    def test_jitter_window_and_decorrelation(self):
        from repro.resilience import backoff_delay, backoff_jitter

        delays = {backoff_delay(7, 2, f"req{i}") for i in range(16)}
        assert len(delays) == 16  # distinct requests spread out
        for i in range(16):
            d = backoff_delay(7, 2, f"req{i}", base_s=0.01, cap_s=1.0)
            assert 0.02 <= d <= 0.04  # [envelope/2, envelope]
        assert 0.0 <= backoff_jitter(7, 2, "req0") < 1.0

    def test_deterministic_across_process_restarts(self):
        """The delay must survive a process restart unchanged — and be
        independent of PYTHONHASHSEED, which would silently vary if the
        implementation leaned on ``hash()``."""
        import os
        import subprocess
        import sys

        from repro.resilience import backoff_delay

        expected = backoff_delay(7, 3, "req-1")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("from repro.resilience import backoff_delay; "
                "print(repr(backoff_delay(7, 3, 'req-1')))")
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=src_dir,
                       PYTHONHASHSEED=hashseed)
            out = subprocess.check_output([sys.executable, "-c", code],
                                          env=env)
            assert float(out) == expected

    def test_validation(self):
        from repro.resilience import backoff_delay

        with pytest.raises(ConfigError):
            backoff_delay(0, -1, "r")
        with pytest.raises(ConfigError):
            backoff_delay(0, 0, "r", base_s=0.0)
        with pytest.raises(ConfigError):
            backoff_delay(0, 0, "r", cap_s=0.0)
