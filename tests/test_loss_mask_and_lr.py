"""Loss masking (padding-aware CE), LR schedules, repro.testing utils."""

import math

import numpy as np
import pytest

from repro.comm.process_group import ProcessGroup
from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.fusion.ops import softmax_cross_entropy
from repro.layers import GPTModel, token_tensor
from repro.parallel import ParallelGPTModel, vocab_parallel_cross_entropy
from repro.parallel.loss import VocabParallelCrossEntropy
from repro.tensor import FP32, Tensor, from_numpy, parameter
from repro.tensor import functions as F
from repro.training import Adam
from repro.training.lr_scheduler import WarmupDecayLR

rng = np.random.default_rng(61)
CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=16, vocab_size=16)
V = CFG.vocab_size  # token ids lie in [0, V)


def mask_tensor(mask: np.ndarray, world: int = 1) -> Tensor:
    return Tensor([mask.astype(np.float64)] * world, dtype=FP32,
                  requires_grad=False, layout="replicated", name="loss_mask")


class TestSerialLossMask:
    def test_masked_loss_equals_subset_mean(self):
        logits = rng.normal(size=(6, 2, 5))
        targets = rng.integers(0, 5, size=(6, 2))
        mask = (rng.random((6, 2)) > 0.4).astype(float)
        lt = F.cast(from_numpy(logits), FP32)
        loss = F.cross_entropy(lt, token_tensor(targets, 5),
                               loss_mask=mask_tensor(mask)).item()
        # reference: per-token CE averaged over kept tokens
        from scipy.special import logsumexp
        logp = logits - logsumexp(logits, axis=-1, keepdims=True)
        per_token = -np.take_along_axis(logp, targets[..., None], -1)[..., 0]
        expected = (per_token * mask).sum() / mask.sum()
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_masked_positions_get_zero_gradient(self):
        logits = rng.normal(size=(4, 2, 5))
        targets = rng.integers(0, 5, size=(4, 2))
        mask = np.ones((4, 2))
        mask[0, 0] = 0.0
        lt = from_numpy(logits, requires_grad=True)
        loss = F.cross_entropy(F.cast(lt, FP32), token_tensor(targets, 5),
                               loss_mask=mask_tensor(mask))
        loss.backward()
        grad = np.asarray(lt.grad[0])
        np.testing.assert_array_equal(grad[0, 0], 0.0)
        assert np.abs(grad[1, 0]).sum() > 0

    def test_all_ones_mask_equals_unmasked(self):
        logits = rng.normal(size=(4, 2, 5))
        targets = rng.integers(0, 5, size=(4, 2))
        lt = F.cast(from_numpy(logits), FP32)
        unmasked = F.cross_entropy(lt, token_tensor(targets, 5)).item()
        lt2 = F.cast(from_numpy(logits), FP32)
        masked = F.cross_entropy(lt2, token_tensor(targets, 5),
                                 loss_mask=mask_tensor(np.ones((4, 2)))).item()
        assert masked == pytest.approx(unmasked, abs=1e-12)

    @pytest.mark.parametrize("world,loss", [
        (1, F.cross_entropy),
        (1, lambda lt, tgt, loss_mask: softmax_cross_entropy(
            lt, tgt, loss_mask=loss_mask)),
        (2, lambda lt, tgt, loss_mask: vocab_parallel_cross_entropy(
            lt, tgt, ProcessGroup(2), loss_mask=loss_mask)),
    ], ids=["serial", "fused", "vocab_parallel"])
    def test_all_zero_mask_rejected(self, world, loss):
        """One condition, one typed error, under every loss."""
        from repro.errors import ShapeError
        shards = [rng.normal(size=(2, 1, 4)) for _ in range(world)]
        lt = Tensor(shards, dtype=FP32, requires_grad=True)
        with pytest.raises(ShapeError, match="masks out every token"):
            loss(lt, token_tensor(np.zeros((2, 1), dtype=int), 4, world=world),
                 loss_mask=mask_tensor(np.zeros((2, 1)), world=world))


class TestParallelLossMask:
    def test_matches_serial_masked(self):
        logits = rng.normal(size=(6, 2, 8))
        targets = rng.integers(0, 8, size=(6, 2))
        mask = (rng.random((6, 2)) > 0.3).astype(float)
        # serial
        ls = from_numpy(logits, requires_grad=True)
        loss_s = F.cross_entropy(F.cast(ls, FP32), token_tensor(targets, 8),
                                 loss_mask=mask_tensor(mask))
        loss_s.backward()
        # vocab-parallel (t=2)
        shards = [np.ascontiguousarray(p).copy()
                  for p in np.split(logits, 2, axis=-1)]
        lp = Tensor(shards, dtype=FP32, requires_grad=True)
        loss_p = vocab_parallel_cross_entropy(
            lp, token_tensor(targets, 8, world=2), ProcessGroup(2),
            loss_mask=mask_tensor(mask, world=2))
        loss_p.backward()
        assert loss_p.item() == pytest.approx(loss_s.item(), abs=1e-10)
        grad_p = np.concatenate([np.asarray(g) for g in lp.grad], axis=-1)
        np.testing.assert_allclose(grad_p, np.asarray(ls.grad[0]), atol=1e-10)

    def test_end_to_end_model_with_padding(self):
        serial = GPTModel(CFG, seed=4, attention_dropout=0.0, hidden_dropout=0.0)
        par = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                               attention_dropout=0.0, hidden_dropout=0.0,
                               serial=serial)
        ids = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length, 2))
        tgt = np.roll(ids, -1, axis=0)
        mask = np.ones((CFG.seq_length, 2))
        mask[-4:] = 0.0  # ignore the trailing "padding"
        loss_s = serial(token_tensor(ids, V), token_tensor(tgt, V),
                        loss_mask=mask_tensor(mask)).item()
        loss_p = par(token_tensor(ids, V, world=2), token_tensor(tgt, V, world=2),
                     loss_mask=mask_tensor(mask, world=2)).item()
        assert loss_p == pytest.approx(loss_s, abs=1e-10)
        # and masking changes the value vs unmasked
        unmasked = serial(token_tensor(ids, V), token_tensor(tgt, V)).item()
        assert abs(unmasked - loss_s) > 1e-9


class TestWarmupDecayLR:
    def _opt(self):
        return Adam([parameter([np.zeros(1)])], lr=1.0)

    def test_linear_warmup(self):
        sched = WarmupDecayLR(self._opt(), max_lr=1.0, total_steps=100,
                              warmup_steps=10)
        lrs = [sched.lr_at(i) for i in range(10)]
        np.testing.assert_allclose(lrs, [(i + 1) / 10 for i in range(10)])

    def test_cosine_decay_hits_min(self):
        sched = WarmupDecayLR(self._opt(), max_lr=1.0, total_steps=100,
                              warmup_steps=10, min_lr=0.1)
        assert sched.lr_at(10) == pytest.approx(1.0)
        mid = sched.lr_at(55)
        assert 0.1 < mid < 1.0
        assert sched.lr_at(100) == pytest.approx(0.1)
        assert sched.lr_at(10_000) == pytest.approx(0.1)

    def test_cosine_midpoint(self):
        sched = WarmupDecayLR(self._opt(), max_lr=2.0, total_steps=100,
                              warmup_steps=0, min_lr=0.0)
        assert sched.lr_at(50) == pytest.approx(1.0)  # cos(pi/2) midpoint

    def test_linear_decay(self):
        sched = WarmupDecayLR(self._opt(), max_lr=1.0, total_steps=10,
                              warmup_steps=0, decay="linear")
        assert sched.lr_at(5) == pytest.approx(0.5)

    def test_step_drives_optimizer(self):
        opt = self._opt()
        sched = WarmupDecayLR(opt, max_lr=1.0, total_steps=4, warmup_steps=2)
        applied = [sched.step() for _ in range(4)]
        assert applied[0] == pytest.approx(0.5)
        assert opt.lr == applied[-1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            WarmupDecayLR(self._opt(), max_lr=0.0, total_steps=10)
        with pytest.raises(ConfigError):
            WarmupDecayLR(self._opt(), max_lr=1.0, total_steps=10,
                          warmup_steps=20)
        with pytest.raises(ConfigError):
            WarmupDecayLR(self._opt(), max_lr=1.0, total_steps=10,
                          decay="polynomial")


class TestPublicTestingUtils:
    def test_check_gradients(self):
        from repro.testing import check_gradients
        check_gradients(F.gelu, rng.normal(size=(3, 4)))

    def test_check_gradients_catches_wrong_backward(self):
        from repro.tensor import apply
        from repro.tensor.tensor import Function
        from repro.testing import check_gradients

        class BrokenSquare(Function):
            name = "broken_square"

            def forward(self, fctx, x):
                fctx.misc["x_slot"] = fctx.save_input(0)
                return [xi * xi for xi in x]

            def backward(self, fctx, grad):
                x = fctx.saved(fctx.misc["x_slot"])
                return ([g * xi for g, xi in zip(grad, x)],)  # missing the 2

        with pytest.raises(AssertionError):
            check_gradients(lambda t: apply(BrokenSquare(), t),
                            rng.normal(size=(2, 2)) + 3.0)

    def test_assert_parallel_equivalent(self):
        from repro.testing import assert_parallel_equivalent
        serial = GPTModel(CFG, seed=8, attention_dropout=0.0, hidden_dropout=0.0)
        par = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                               attention_dropout=0.0, hidden_dropout=0.0,
                               serial=serial)
        ids = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length, 2))
        assert_parallel_equivalent(serial, par, ids, np.roll(ids, -1, 0))

    @pytest.mark.parametrize("layout,name,delta,error", [
        # a fused-QKV shard, laid out from the serial wq/wk/wv gradients
        ("tp", "layers.1.attn.qkv.bias", 1e-6, "differs from serial"),
        # a replicated parameter: every rank must hold the serial gradient,
        # and rank 0's bits even inside the bound
        ("ulysses", "head.ln_f.gamma", 1e-6, "differs from serial"),
        ("ulysses", "head.ln_f.gamma", 1e-12, "differs from rank 0"),
    ])
    def test_assert_parallel_equivalent_names_the_rank(
            self, monkeypatch, layout, name, delta, error):
        from repro.longctx import LongContextGPTModel
        from repro.testing import assert_parallel_equivalent
        kw = dict(attention_dropout=0.0, hidden_dropout=0.0)
        serial = GPTModel(CFG, seed=8, **kw)
        par = (ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                                serial=serial, **kw) if layout == "tp"
               else LongContextGPTModel(CFG, 2, layout=layout, serial=serial,
                                        **kw))
        param, sync = dict(par.named_parameters())[name], par.finish_grad_sync

        def finish_grad_sync():  # then move rank 1's gradient by delta
            sync()
            param.grad[1] = param.grad[1] + delta

        monkeypatch.setattr(par, "finish_grad_sync", finish_grad_sync)
        ids = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length, 2))
        with pytest.raises(AssertionError,
                           match=rf"^{name} rank 1: gradient {error}"):
            assert_parallel_equivalent(serial, par, ids, np.roll(ids, -1, 0))

    def test_assert_parallel_equivalent_rejects_an_unmapped_parameter(self):
        from repro.testing import assert_parallel_equivalent
        kw = dict(attention_dropout=0.0, hidden_dropout=0.0)
        serial = GPTModel(CFG, seed=8, **kw)
        par = ParallelGPTModel(CFG, tensor_parallel=2, serial=serial, **kw)
        par.layers[0].mlp.fc1.bias.name = "layer0.mlp.extra.bias"
        ids = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length, 2))
        with pytest.raises(AssertionError, match="cannot map"):
            assert_parallel_equivalent(serial, par, ids, np.roll(ids, -1, 0))

    def test_assert_memory_matches(self):
        from repro.testing import assert_memory_matches

        def run():
            x = from_numpy(rng.normal(size=(4, 8)), requires_grad=True)
            F.gelu(x)

        assert_memory_matches(run, expected_bytes=4 * 8 * 2)
        with pytest.raises(AssertionError):
            assert_memory_matches(run, expected_bytes=999)

    def test_gather_full(self):
        from repro.testing import gather_full
        w = parameter([np.ones((2, 3)), 2 * np.ones((2, 3))],
                      layout="shard(dim=1)")
        full = gather_full(w)
        assert full.shape == (2, 6)
        np.testing.assert_array_equal(full[:, 3:], 2.0)
