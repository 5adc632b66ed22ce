"""Real 1F1B pipelined execution: numerics and measured per-stage memory."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.layers import GPTModel, Recompute, token_tensor
from repro.memory_model import per_layer_activation_bytes
from repro.parallel import ParallelGPTModel
from repro.tensor import MemoryTracker
from repro.tensor.functions import MaskSource
from repro.training import Adam, PipelinedGPT, Trainer, split_microbatches

from helpers import random_tokens

CFG = ModelConfig(num_layers=4, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=32)
V = CFG.vocab_size  # token ids lie in [0, V)
MS = MaskSource(seed=8, keep_prob=0.9)
rng = np.random.default_rng(17)


def make_models(t=2, recompute=Recompute.NONE, sp=True):
    serial = GPTModel(CFG, seed=6, mask_source=MS)
    a = ParallelGPTModel(CFG, tensor_parallel=t, sequence_parallel=sp,
                         recompute=recompute, mask_source=MS, serial=serial)
    b = ParallelGPTModel(CFG, tensor_parallel=t, sequence_parallel=sp,
                         recompute=recompute, mask_source=MS, serial=serial)
    return a, b


def batch(b=4):
    return (random_tokens(rng, CFG.vocab_size, CFG.seq_length, b),
            random_tokens(rng, CFG.vocab_size, CFG.seq_length, b))


class TestNumerics:
    @pytest.mark.parametrize("p,n_mb", [(2, 2), (2, 4), (4, 4)])
    def test_pipelined_matches_grad_accumulation(self, p, n_mb):
        ref_model, pipe_model = make_models()
        ids, tgt = batch(n_mb)
        # reference: plain accumulation
        for mb_ids, mb_tgt in split_microbatches(ids, tgt, n_mb):
            loss = ref_model(token_tensor(mb_ids, V, world=2),
                             token_tensor(mb_tgt, V, world=2))
            loss.backward([np.asarray(1.0 / n_mb)] * 2)
        ref_model.finish_grad_sync()

        pipe = PipelinedGPT(pipe_model, pipeline_parallel=p)
        pipe.train_step(ids, tgt, num_microbatches=n_mb)

        for (n1, p1), (n2, p2) in zip(ref_model.named_parameters(),
                                      pipe_model.named_parameters()):
            assert n1 == n2
            for r in range(p1.world):
                np.testing.assert_allclose(
                    np.asarray(p1.grad[r]), np.asarray(p2.grad[r]),
                    atol=1e-9, err_msg=n1)

    @pytest.mark.parametrize("recompute", [Recompute.SELECTIVE, Recompute.FULL])
    def test_pipelining_composes_with_recomputation(self, recompute):
        base_model, pipe_model = make_models(recompute=Recompute.NONE)
        _, rc_model = make_models(recompute=recompute)
        ids, tgt = batch(4)
        base = PipelinedGPT(base_model, 2).train_step(ids, tgt, 4)
        rc = PipelinedGPT(rc_model, 2).train_step(ids, tgt, 4)
        assert rc.loss == pytest.approx(base.loss, abs=1e-10)

    def test_fit_step_reduces_loss(self):
        serial = GPTModel(CFG, seed=6, attention_dropout=0.0, hidden_dropout=0.0)
        model = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                                 attention_dropout=0.0, hidden_dropout=0.0,
                                 serial=serial)
        pipe = PipelinedGPT(model, 2)
        opt = Adam(model.parameters(), lr=3e-3)
        from repro.training import MarkovTokens
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=3)
        losses = [pipe.fit_step(opt, *data.batch(4), num_microbatches=2)
                  for _ in range(15)]
        assert losses[-1] < losses[0] - 0.1

    def test_layer_count_must_divide(self):
        model, _ = make_models()
        with pytest.raises(ConfigError):
            PipelinedGPT(model, 3)


    @pytest.mark.parametrize("slots", [[1], [1, 1, 1], [1, -3]])
    def test_full_storage_slots_validated_before_any_op(self, slots):
        """One count >= 0 per pipeline rank, or ConfigError up front (not an
        IndexError mid-schedule, a silently ignored entry or a negative
        count)."""
        model, _ = make_models()
        with pytest.raises(ConfigError):
            PipelinedGPT(model, 2).train_step(*batch(), num_microbatches=2,
                                              full_storage_slots=slots)
        assert all(p.grad is None for p in model.parameters())


class TestMeasuredStageMemory:
    def test_stage_peaks_decrease_along_pipeline(self):
        """The toy-scale, concretely *measured* Figure 9 shape."""
        _, model = make_models(recompute=Recompute.SELECTIVE)
        pipe = PipelinedGPT(model, pipeline_parallel=4)
        ids, tgt = batch(8)
        result = pipe.train_step(ids, tgt, num_microbatches=8)
        peaks = result.peak_stage_bytes
        assert len(peaks) == 4
        for earlier, later in zip(peaks[:3], peaks[3:]):
            assert earlier > later

    def test_first_stage_holds_p_microbatches_of_layers(self):
        """Peak(stage 0) ~= p x (L/p) x per-layer bytes + embedding terms:
        the measured counterpart of Equation 5."""
        _, model = make_models(t=2, recompute=Recompute.SELECTIVE)
        p, n_mb, b_mb = 4, 8, 2
        pipe = PipelinedGPT(model, pipeline_parallel=p)
        ids, tgt = batch(n_mb * b_mb)
        result = pipe.train_step(ids, tgt, num_microbatches=n_mb)
        per_layer = per_layer_activation_bytes(
            CFG, b_mb, tensor_parallel=2, sequence_parallel=True,
            recompute=Recompute.SELECTIVE)
        layers_worth = CFG.num_layers  # p * L/p
        lower = layers_worth * per_layer
        assert result.peak_stage_bytes[0] >= lower
        # embedding extras are small: within 40% above the layer bound
        assert result.peak_stage_bytes[0] < 1.4 * lower
