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
V = TINY.vocab_size  # token ids lie in [0, V)


def tiny_model(recompute=Recompute.NONE, **kw):
    return GPTModel(TINY, recompute=recompute, seed=1, **kw)


def batch(b=2):
    return (token_tensor(random_tokens(rng, TINY.vocab_size, TINY.seq_length, b), V),
            token_tensor(random_tokens(rng, TINY.vocab_size, TINY.seq_length, b), V))


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
        la = np.asarray(model.logits(token_tensor(ids_a, V)).shards[0])
        lb = np.asarray(model.logits(token_tensor(ids_b, V)).shards[0])
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


class TestIndependentReference:
    """The shared block against a forward that is not itself.

    Every parallel layout is verified against the serial layout of the
    *same* classes, so the serial layout needs an outside oracle: one
    pre-LN layer and the LM head written directly from the paper's
    Figure 2 in plain NumPy (einsum contractions, no ``repro`` op).
    Tolerance: both sides are fp64 and differ only in summation order, so
    1e-10 relative is ~5 decimal digits of slack over the observed
    ~1e-15 and far below any real defect.
    """

    S, B, H, A, V = 8, 2, 16, 4, 32
    RTOL = 1e-10

    @staticmethod
    def _layernorm(x, gamma, beta, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gamma + beta

    def _reference_layer(self, w, x):
        s, b, h = x.shape
        a, d = self.A, h // self.A
        y = self._layernorm(x, w["ln1.gamma"], w["ln1.beta"])
        q, k, v = (
            (y @ w[f"attn.{n}.weight"] + w[f"attn.{n}.bias"]).reshape(s, b, a, d)
            for n in ("wq", "wk", "wv"))
        scores = np.einsum("ibad,jbad->baij", q, k) / np.sqrt(d)
        scores = np.where(np.tril(np.ones((s, s), dtype=bool)), scores, -np.inf)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        ctxt = np.einsum("baij,jbad->ibad", probs, v).reshape(s, b, h)
        x = x + ctxt @ w["attn.wo.weight"] + w["attn.wo.bias"]
        y = self._layernorm(x, w["ln2.gamma"], w["ln2.beta"])
        z = y @ w["mlp.fc1.weight"] + w["mlp.fc1.bias"]
        z = 0.5 * z * (1 + np.tanh(np.sqrt(2 / np.pi) * (z + 0.044715 * z**3)))
        return x + z @ w["mlp.fc2.weight"] + w["mlp.fc2.bias"]

    def _reference_loss(self, w, x, targets):
        logits = self._layernorm(x, w["ln_f.gamma"], w["ln_f.beta"]) \
            @ w["proj.weight"]
        logits = logits - logits.max(axis=-1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        return -np.take_along_axis(logp, targets[..., None], -1).mean()

    def test_layer_and_head_match_numpy(self):
        from repro.layers import LMHead
        local = np.random.default_rng(17)
        layer = TransformerLayer(self.H, self.A, attention_dropout=0.0,
                                 hidden_dropout=0.0, rng=local)
        head = LMHead(self.H, self.V, rng=local)
        # Layer-norm parameters initialise to (1, 0); move them off the
        # identity so a dropped gain or bias would show.
        for ln in (layer.ln1, layer.ln2, head.ln_f):
            ln.gamma.shards[0][:] = local.normal(1.0, 0.2, size=self.H)
            ln.beta.shards[0][:] = local.normal(0.0, 0.2, size=self.H)
        weights = {name: np.array(p.shards[0])
                   for module in (layer, head)
                   for name, p in module.named_parameters()}
        x = local.normal(size=(self.S, self.B, self.H))
        targets = random_tokens(local, self.V, self.S, self.B)

        hidden = layer(from_numpy(x))
        expected_hidden = self._reference_layer(weights, x)
        np.testing.assert_allclose(np.asarray(hidden.shards[0]),
                                   expected_hidden, rtol=self.RTOL, atol=0)
        loss = head(hidden, token_tensor(targets, self.V)).item()
        expected_loss = self._reference_loss(weights, expected_hidden, targets)
        assert loss == pytest.approx(expected_loss, rel=self.RTOL)


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
        tgt = token_tensor(random_tokens(rng, 64, self.S, self.B), 64)
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
