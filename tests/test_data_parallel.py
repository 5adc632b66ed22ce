"""Executable data parallelism: gradient averaging across replicas."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.layers import GPTModel, Recompute
from repro.parallel import ParallelGPTModel
from repro.tensor import OpLog, instrument
from repro.tensor.functions import MaskSource
from repro.training import Adam, MarkovTokens, Trainer
from repro.training.data_parallel import DataParallelTrainer

from helpers import assert_replicas_synchronized

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=16)
MS = MaskSource(seed=3, keep_prob=0.95)


def factory(serial):
    return lambda: ParallelGPTModel(CFG, tensor_parallel=2,
                                    sequence_parallel=True,
                                    mask_source=MS, serial=serial)


@pytest.fixture()
def serial():
    return GPTModel(CFG, seed=5, mask_source=MS)


class TestDataParallel:
    def test_dp_step_equals_single_replica_big_batch(self, serial):
        """Gradient averaging across dp replicas is exact: after one step
        the weights equal a single replica trained on the whole batch."""
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=1)
        ids, targets = data.batch(4)

        dp = DataParallelTrainer(factory(serial), data_parallel=2, lr=1e-3)
        dp.train_step(ids, targets)

        single_model = factory(serial)()
        single = Trainer(single_model, Adam(single_model.parameters(), lr=1e-3))
        single.train_step(ids, targets, num_microbatches=2)

        for p_dp, p_single in zip(dp.model.parameters(),
                                  single_model.parameters()):
            for r in range(p_dp.world):
                np.testing.assert_allclose(np.asarray(p_dp.shards[r]),
                                           np.asarray(p_single.shards[r]),
                                           atol=1e-12)

    def test_replicas_stay_synchronized_over_steps(self, serial):
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=2)
        dp = DataParallelTrainer(factory(serial), data_parallel=2, lr=1e-3)
        for _ in range(3):
            ids, targets = data.batch(4)
            dp.train_step(ids, targets, microbatches_per_replica=2)
            assert_replicas_synchronized(dp)

    def test_loss_decreases(self, serial):
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=3)
        dp = DataParallelTrainer(factory(serial), data_parallel=2, lr=3e-3)
        losses = [dp.train_step(*data.batch(4)) for _ in range(12)]
        assert losses[-1] < losses[0]

    def test_grad_allreduce_logged_on_dp_scope(self, serial):
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=4)
        ids, targets = data.batch(2)
        dp = DataParallelTrainer(factory(serial), data_parallel=2)
        log = OpLog()
        with instrument(oplog=log):
            dp.train_step(ids, targets)
        recs = [r for r in log.comm_records() if r.name == "dp.grad_allreduce"]
        assert len(recs) == len(dp.model.parameters())
        assert all(r.comm.scope == "dp" and r.comm.group_size == 2 for r in recs)

    def test_mismatched_factories_rejected(self, serial):
        calls = {"n": 0}

        def bad_factory():
            calls["n"] += 1
            return ParallelGPTModel(CFG, tensor_parallel=2, seed=calls["n"])

        with pytest.raises(ConfigError):
            DataParallelTrainer(bad_factory, data_parallel=2)

    def test_dp1_degenerates_to_plain_training(self, serial):
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=5)
        ids, targets = data.batch(2)
        dp = DataParallelTrainer(factory(serial), data_parallel=1)
        loss = dp.train_step(ids, targets)
        assert np.isfinite(loss)


class Test3DParallelism:
    """The full Megatron stack — data x pipeline x tensor (x sequence)
    parallelism with selective recomputation — executed end to end and
    exactly equal to single-device big-batch training."""

    def test_3d_step_equals_single_replica(self, serial):
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=9)
        ids, targets = data.batch(8)

        def make():
            return ParallelGPTModel(CFG, tensor_parallel=2,
                                    sequence_parallel=True,
                                    recompute=Recompute.SELECTIVE,
                                    mask_source=MS, serial=serial)

        dp = DataParallelTrainer(make, data_parallel=2, lr=1e-3,
                                 pipeline_parallel=2)
        dp.train_step(ids, targets, microbatches_per_replica=2)
        assert_replicas_synchronized(dp)

        single_model = make()
        single = Trainer(single_model, Adam(single_model.parameters(), lr=1e-3))
        single.train_step(ids, targets, num_microbatches=4)

        for p_dp, p_single in zip(dp.model.parameters(),
                                  single_model.parameters()):
            for r in range(p_dp.world):
                np.testing.assert_allclose(np.asarray(p_dp.shards[r]),
                                           np.asarray(p_single.shards[r]),
                                           atol=1e-12)

    def test_3d_trains(self, serial):
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=10)

        def make():
            return ParallelGPTModel(CFG, tensor_parallel=2,
                                    sequence_parallel=True,
                                    recompute=Recompute.FULL,
                                    mask_source=MS, serial=serial)

        dp = DataParallelTrainer(make, data_parallel=2, lr=3e-3,
                                 pipeline_parallel=2)
        losses = [dp.train_step(*data.batch(8), microbatches_per_replica=2)
                  for _ in range(8)]
        assert losses[-1] < losses[0]
        assert_replicas_synchronized(dp)
