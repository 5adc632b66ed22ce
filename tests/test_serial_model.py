"""Serial reference GPT: structure, recompute equivalence, memory terms."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.layers import (
    GPTModel, LayerNorm, Linear, MLP, Recompute, SelfAttention,
    TransformerLayer, token_tensor,
)
from repro.tensor import MemoryTracker, from_numpy, instrument, seed
from repro.tensor import functions as F

from helpers import TINY, random_tokens

rng = np.random.default_rng(0)


def tiny_model(recompute=Recompute.NONE, **kw):
    return GPTModel(TINY, recompute=recompute, seed=1, **kw)


def batch(b=2):
    return (token_tensor(random_tokens(rng, TINY.vocab_size, TINY.seq_length, b)),
            token_tensor(random_tokens(rng, TINY.vocab_size, TINY.seq_length, b)))


class TestStructure:
    def test_forward_scalar_loss(self):
        ids, tgt = batch()
        loss = tiny_model()(ids, tgt)
        assert loss.shape == ()
        assert np.isfinite(loss.item())

    def test_initial_loss_near_uniform(self):
        # With random init the loss should be near log(vocab).
        ids, tgt = batch(4)
        loss = tiny_model(attention_dropout=0.0, hidden_dropout=0.0)(ids, tgt)
        assert abs(loss.item() - np.log(TINY.vocab_size)) < 0.5

    def test_all_params_receive_grads(self):
        model = tiny_model()
        ids, tgt = batch()
        model(ids, tgt).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_num_parameters_matches_config(self):
        model = tiny_model()
        # The model unties the output projection (see LMHead docs), so it
        # carries v*h more than the tied-count formula.
        expected = TINY.parameter_count() + TINY.vocab_size * TINY.hidden_size
        assert model.num_parameters() == expected

    def test_logits_shape(self):
        model = tiny_model()
        ids, _ = batch(3)
        logits = model.logits(ids)
        assert logits.shape == (TINY.seq_length, 3, TINY.vocab_size)

    def test_causality(self):
        """Changing a future token must not affect earlier logits."""
        model = tiny_model(attention_dropout=0.0, hidden_dropout=0.0)
        ids_a = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 1)
        ids_b = ids_a.copy()
        ids_b[-1, 0] = (ids_b[-1, 0] + 1) % TINY.vocab_size
        la = np.asarray(model.logits(token_tensor(ids_a)).shards[0])
        lb = np.asarray(model.logits(token_tensor(ids_b)).shards[0])
        np.testing.assert_allclose(la[:-1], lb[:-1])
        assert not np.allclose(la[-1], lb[-1])

    def test_recompute_num_layers_validated(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            GPTModel(TINY, recompute=Recompute.FULL, recompute_num_layers=99)


class TestRecomputeEquivalence:
    @pytest.mark.parametrize("strategy", [Recompute.SELECTIVE, Recompute.FULL])
    def test_loss_and_grads_match_baseline(self, strategy):
        ids, tgt = batch()
        seed(5)
        base = tiny_model()
        base(ids, tgt).backward()
        seed(5)
        other = tiny_model(recompute=strategy)
        other(ids, tgt).backward()
        for (n1, p1), (n2, p2) in zip(base.named_parameters(),
                                      other.named_parameters()):
            assert n1 == n2
            np.testing.assert_allclose(
                np.asarray(p1.grad[0]), np.asarray(p2.grad[0]),
                atol=1e-10, err_msg=n1)

    def test_partial_full_recompute(self):
        ids, tgt = batch()
        seed(5)
        base = tiny_model()
        l0 = base(ids, tgt).item()
        seed(5)
        partial = GPTModel(TINY, recompute=Recompute.FULL,
                           recompute_num_layers=1, seed=1)
        assert partial.layers[0].recompute == Recompute.FULL
        assert partial.layers[1].recompute == Recompute.NONE
        assert partial(ids, tgt).item() == pytest.approx(l0, abs=1e-10)


class TestMemoryTerms:
    """The instrumented graph reproduces Section 4's accounting exactly."""

    S, B, H, A = 16, 2, 32, 4

    def _layer_bytes(self, recompute, p_drop=0.1):
        seed(2)
        layer = TransformerLayer(self.H, self.A, recompute=recompute,
                                 attention_dropout=p_drop, hidden_dropout=p_drop,
                                 rng=np.random.default_rng(3))
        x = from_numpy(rng.normal(size=(self.S, self.B, self.H)), requires_grad=True)
        mt = MemoryTracker()
        with instrument(memory=mt):
            layer(x)
        return mt.live_bytes(0)

    def test_equation_1_exact(self):
        sbh = self.S * self.B * self.H
        expected = sbh * (34 + 5 * self.A * self.S / self.H)
        assert self._layer_bytes(Recompute.NONE) == expected

    def test_selective_drops_attention_term(self):
        sbh = self.S * self.B * self.H
        # Selective keeps Q,K,V (6sbh) instead of the 5as^2b core.
        expected = sbh * 34 + 6 * sbh - 6 * sbh + sbh * 34 - sbh * 34
        measured = self._layer_bytes(Recompute.SELECTIVE)
        assert measured == sbh * 34

    def test_full_recompute_stores_input_only(self):
        sbh = self.S * self.B * self.H
        assert self._layer_bytes(Recompute.FULL) == 2 * sbh

    def test_category_breakdown_matches_section_4_1(self):
        seed(2)
        layer = TransformerLayer(self.H, self.A, rng=np.random.default_rng(3))
        x = from_numpy(rng.normal(size=(self.S, self.B, self.H)), requires_grad=True)
        mt = MemoryTracker()
        with instrument(memory=mt):
            layer(x)
        sbh = self.S * self.B * self.H
        cats = mt.category_breakdown(0)
        assert cats["layernorm_input"] == 4 * sbh            # two LNs, 2sbh each
        assert cats["attn_qkv_input"] == 2 * sbh             # shared, deduped
        assert cats["attn_qk"] == 4 * sbh                    # Q and K
        assert cats["softmax_output"] == 2 * self.A * self.S**2 * self.B
        assert cats["gelu_input"] == 8 * sbh
        assert cats["mlp_fc2_input"] == 8 * sbh
        assert cats["mlp_fc1_input"] == 2 * sbh
        assert cats["attn_proj_input"] == 2 * sbh
        # masks: softmax (as^2b) + attn out (sbh) + mlp out (sbh)
        assert cats["dropout_mask"] == self.A * self.S**2 * self.B + 2 * sbh

    def test_lm_head_terms(self):
        """Section 4.3: final LN 2sbh + projection input 2sbh + fp32 logits 4sbv."""
        from repro.layers import LMHead
        seed(2)
        head = LMHead(self.H, 64, rng=np.random.default_rng(4))
        x = from_numpy(rng.normal(size=(self.S, self.B, self.H)), requires_grad=True)
        tgt = token_tensor(random_tokens(rng, 64, self.S, self.B))
        mt = MemoryTracker()
        with instrument(memory=mt):
            head(x, tgt)
        sbh = self.S * self.B * self.H
        sbv = self.S * self.B * 64
        ids_bytes = self.S * self.B * 8  # int64 targets
        assert mt.live_bytes(0) == 2 * sbh + 2 * sbh + 4 * sbv + ids_bytes

    def test_memory_released_after_backward(self):
        model = tiny_model()
        ids, tgt = batch()
        mt = MemoryTracker()
        with instrument(memory=mt):
            model(ids, tgt).backward()
        assert mt.live_bytes(0) == 0
        assert mt.peak_bytes(0) > 0


class TestSubmodules:
    def test_linear_bias_optional(self):
        lin = Linear(4, 8, rng=np.random.default_rng(0), bias=False)
        assert lin.bias is None
        out = lin(from_numpy(rng.normal(size=(3, 4))))
        assert out.shape == (3, 8)

    def test_layernorm_normalizes(self):
        ln = LayerNorm(16)
        x = from_numpy(rng.normal(size=(5, 16)) * 3 + 2)
        y = np.asarray(ln(x).shards[0])
        np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-9)
        np.testing.assert_allclose(y.std(axis=-1), 1, atol=1e-3)

    def test_mlp_expands_4x(self):
        mlp = MLP(8, rng=np.random.default_rng(0))
        assert mlp.fc1.out_features == 32
        assert mlp.fc2.in_features == 32

    def test_attention_heads_divide_hidden(self):
        with pytest.raises(ConfigError):
            SelfAttention(10, 3, rng=np.random.default_rng(0))
