"""The central correctness claim: tensor parallelism, sequence parallelism
and every recomputation strategy compute *exactly* what the serial model
computes — same loss, same gradients — with dropout active.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.layers import (GPTModel, Linear, Recompute, SelfAttention,
                          token_tensor)
from repro.parallel import ParallelGPTModel, fuse_qkv, fuse_qkv_bias
from repro.tensor.functions import MaskSource
from repro.testing import gather_full

from helpers import TINY, random_tokens

rng = np.random.default_rng(31)
MS = MaskSource(seed=77, keep_prob=0.9)
V = TINY.vocab_size  # token ids lie in [0, V)
ODD_SEQ = ModelConfig(num_layers=1, hidden_size=32, num_heads=4,
                      seq_length=15, vocab_size=64)


@pytest.fixture(scope="module")
def serial():
    model = GPTModel(TINY, seed=4, mask_source=MS)
    ids = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 2)
    tgt = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 2)
    loss = model(token_tensor(ids, V), token_tensor(tgt, V))
    loss.backward()
    return model, ids, tgt, loss.item()


def build_parallel(serial_model, t, sp, rc, fuse=True):
    return ParallelGPTModel(
        TINY, tensor_parallel=t, sequence_parallel=sp, recompute=rc,
        fuse_sp_gather=fuse, mask_source=MS, serial=serial_model,
    )


@pytest.mark.parametrize("t", [1, 2, 4])
@pytest.mark.parametrize("sp", [False, True])
@pytest.mark.parametrize("rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
class TestFullEquivalence:
    def test_loss_matches(self, serial, t, sp, rc):
        model_s, ids, tgt, loss_s = serial
        m = build_parallel(model_s, t, sp, rc)
        loss = m(token_tensor(ids, V, world=t), token_tensor(tgt, V, world=t))
        assert loss.item() == pytest.approx(loss_s, abs=1e-9)
        # Loss is replicated identically on every rank.
        vals = [float(np.asarray(s)) for s in loss.shards]
        assert max(vals) - min(vals) < 1e-12

    def test_gradients_match(self, serial, t, sp, rc):
        model_s, ids, tgt, _ = serial
        m = build_parallel(model_s, t, sp, rc)
        loss = m(token_tensor(ids, V, world=t), token_tensor(tgt, V, world=t))
        loss.backward()
        m.finish_grad_sync()

        layer_s, layer_p = model_s.layers[0], m.layers[0]
        # MLP column/row parallel weights
        np.testing.assert_allclose(
            gather_full(layer_p.mlp.fc1.weight, grad=True),
            np.asarray(layer_s.mlp.fc1.weight.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            gather_full(layer_p.mlp.fc2.weight, grad=True),
            np.asarray(layer_s.mlp.fc2.weight.grad[0]), atol=1e-8)
        # Fused QKV: rearrange the serial grads the same way the weights are.
        expected_qkv = fuse_qkv(
            np.asarray(layer_s.attn.wq.weight.grad[0]),
            np.asarray(layer_s.attn.wk.weight.grad[0]),
            np.asarray(layer_s.attn.wv.weight.grad[0]), t)
        np.testing.assert_allclose(gather_full(layer_p.attn.qkv.weight, grad=True),
                                   expected_qkv, atol=1e-8)
        expected_qkv_bias = fuse_qkv_bias(
            np.asarray(layer_s.attn.wq.bias.grad[0]),
            np.asarray(layer_s.attn.wk.bias.grad[0]),
            np.asarray(layer_s.attn.wv.bias.grad[0]), t)
        np.testing.assert_allclose(gather_full(layer_p.attn.qkv.bias, grad=True),
                                   expected_qkv_bias, atol=1e-8)
        # Attention output projection (row parallel) + its bias (replicated)
        np.testing.assert_allclose(
            gather_full(layer_p.attn.wo.weight, grad=True),
            np.asarray(layer_s.attn.wo.weight.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            np.asarray(layer_p.attn.wo.bias.grad[0]),
            np.asarray(layer_s.attn.wo.bias.grad[0]), atol=1e-8)
        # Layer norms
        np.testing.assert_allclose(
            np.asarray(layer_p.ln1.gamma.grad[0]),
            np.asarray(layer_s.ln1.gamma.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            np.asarray(layer_p.ln2.beta.grad[0]),
            np.asarray(layer_s.ln2.beta.grad[0]), atol=1e-8)
        # Vocab-parallel embedding + position
        np.testing.assert_allclose(
            gather_full(m.embedding.word, grad=True),
            np.asarray(model_s.embedding.word.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            np.asarray(m.embedding.position.grad[0]),
            np.asarray(model_s.embedding.position.grad[0]), atol=1e-8)
        # Vocab-parallel LM head + final layer norm
        np.testing.assert_allclose(
            gather_full(m.head.proj.weight, grad=True),
            np.asarray(model_s.head.proj.weight.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            np.asarray(m.head.ln_f.gamma.grad[0]),
            np.asarray(model_s.head.ln_f.gamma.grad[0]), atol=1e-8)


class TestVariants:
    def test_unfused_sp_gather_same_numerics(self, serial):
        model_s, ids, tgt, loss_s = serial
        m = build_parallel(model_s, 2, True, Recompute.NONE, fuse=False)
        loss = m(token_tensor(ids, V, world=2), token_tensor(tgt, V, world=2))
        assert loss.item() == pytest.approx(loss_s, abs=1e-9)

    def test_logits_match_serial(self, serial):
        model_s, ids, _, _ = serial
        m = build_parallel(model_s, 2, True, Recompute.NONE)
        x = m.hidden_states(token_tensor(ids, V, world=2))
        logits_p = m.head.logits(x)
        # vocab-sharded: concatenate along the last axis
        full_p = np.concatenate([np.asarray(s) for s in logits_p.shards], axis=-1)
        logits_s = np.asarray(model_s.logits(token_tensor(ids, V)).shards[0])
        np.testing.assert_allclose(full_p, logits_s, atol=1e-8)

    def test_partial_full_recompute_layers(self, serial):
        model_s, ids, tgt, loss_s = serial
        m = ParallelGPTModel(TINY, tensor_parallel=2, sequence_parallel=True,
                             recompute=Recompute.FULL, recompute_num_layers=1,
                             mask_source=MS, serial=model_s)
        assert m.layers[0].recompute == Recompute.FULL
        assert m.layers[1].recompute == Recompute.NONE
        loss = m(token_tensor(ids, V, world=2), token_tensor(tgt, V, world=2))
        assert loss.item() == pytest.approx(loss_s, abs=1e-9)

    def test_finish_grad_sync_noop_without_sp(self, serial):
        model_s, ids, tgt, _ = serial
        m = build_parallel(model_s, 2, False, Recompute.NONE)
        loss = m(token_tensor(ids, V, world=2), token_tensor(tgt, V, world=2))
        loss.backward()
        before = np.asarray(m.layers[0].ln1.gamma.grad[0]).copy()
        m.finish_grad_sync()
        np.testing.assert_array_equal(before, np.asarray(m.layers[0].ln1.gamma.grad[0]))

    @pytest.mark.parametrize("build,needle", [
        # 64-row vocabulary / 32 hidden columns over three ranks
        (lambda: ParallelGPTModel(TINY, tensor_parallel=3, abstract=True),
         "not divisible by the tensor-parallel size 3"),
        (lambda: ParallelGPTModel(ODD_SEQ, tensor_parallel=2,
                                  sequence_parallel=True, abstract=True),
         "seq_length (15) must be divisible"),
        (lambda: ParallelGPTModel(TINY, tensor_parallel=8, abstract=True),
         "num_heads 4 not divisible by t=8"),
        (lambda: SelfAttention(10, 3, abstract=True),
         "hidden_size (10) must be divisible by num_heads (3)"),
        # concrete weights need a source: an rng ...
        (lambda: Linear(4, 4), "needs an rng"),
        # ... or a serial reference of the same shape
        (lambda: ParallelGPTModel(TINY, tensor_parallel=2,
                                  serial=GPTModel(ODD_SEQ, seed=0)),
         "reference weight 'embedding.position' has shape (15, 1, 32)"),
        (lambda: GPTModel(TINY, recompute=Recompute.FULL,
                          recompute_num_layers=3, abstract=True),
         "recompute_num_layers out of range"),
    ])
    def test_config_validation(self, build, needle):
        """Every invalid construction is a ``ConfigError`` naming the
        constraint — never an assert, a ``ValueError`` or a NumPy shape
        error from deep inside the first forward."""
        from repro.errors import ConfigError
        with pytest.raises(ConfigError) as error:
            build()
        assert needle in str(error.value)

    def test_dropout_zero_matches_without_mask_source(self, serial):
        """Without dropout the mask source is unnecessary for equivalence."""
        model_s = GPTModel(TINY, seed=4, attention_dropout=0.0, hidden_dropout=0.0)
        ids = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 2)
        tgt = random_tokens(rng, TINY.vocab_size, TINY.seq_length, 2)
        loss_s = model_s(token_tensor(ids, V), token_tensor(tgt, V)).item()
        m = ParallelGPTModel(TINY, tensor_parallel=4, sequence_parallel=True,
                             attention_dropout=0.0, hidden_dropout=0.0,
                             serial=model_s)
        loss_p = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4)).item()
        assert loss_p == pytest.approx(loss_s, abs=1e-9)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("layout", ["ulysses", "ring"])
@pytest.mark.parametrize("rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
class TestLongContextEquivalence:
    """Context parallelism (Ulysses / ring) against the serial model:
    bitwise forward, contract-exact gradients, on every recompute and
    fusion cell."""

    def build(self, serial_model, layout, rc, fused, p):
        from repro.longctx import LongContextGPTModel
        return LongContextGPTModel(
            TINY, context_parallel=p, layout=layout, recompute=rc,
            mask_source=MS, serial=serial_model, fused=fused)

    def test_loss_bitwise(self, serial, layout, rc, fused, p):
        model_s, ids, tgt, loss_s = serial
        m = self.build(model_s, layout, rc, fused, p)
        loss = m(token_tensor(ids, V, world=p), token_tensor(tgt, V, world=p))
        # Row-sliced GEMMs reproduce the serial rows exactly, so the
        # forward loss is bitwise identical — not merely close.
        assert loss.item() == loss_s
        vals = [float(np.asarray(s)) for s in loss.shards]
        assert max(vals) == min(vals)

    def test_gradients_match(self, serial, layout, rc, fused, p):
        model_s, ids, tgt, _ = serial
        m = self.build(model_s, layout, rc, fused, p)
        loss = m(token_tensor(ids, V, world=p), token_tensor(tgt, V, world=p))
        loss.backward()
        m.finish_grad_sync()

        def replicated(param):
            # Context-parallel weights are replicated; after
            # finish_grad_sync every rank holds the full gradient.
            grads = [np.asarray(g) for g in param.grad]
            for g in grads[1:]:
                np.testing.assert_array_equal(grads[0], g)
            return grads[0]

        layer_s, layer_p = model_s.layers[0], m.layers[0]
        for name in ("wq", "wk", "wv", "wo"):
            np.testing.assert_allclose(
                replicated(getattr(layer_p.attn, name).weight),
                np.asarray(getattr(layer_s.attn, name).weight.grad[0]),
                atol=1e-8)
        np.testing.assert_allclose(
            replicated(layer_p.mlp.fc1.weight),
            np.asarray(layer_s.mlp.fc1.weight.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            replicated(layer_p.mlp.fc2.weight),
            np.asarray(layer_s.mlp.fc2.weight.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            replicated(layer_p.ln1.gamma),
            np.asarray(layer_s.ln1.gamma.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            replicated(layer_p.ln2.beta),
            np.asarray(layer_s.ln2.beta.grad[0]), atol=1e-8)
        # Embedding / head grads are replicated without any reduction.
        np.testing.assert_allclose(
            replicated(m.embedding.word),
            np.asarray(model_s.embedding.word.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            replicated(m.embedding.position),
            np.asarray(model_s.embedding.position.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            replicated(m.head.proj.weight),
            np.asarray(model_s.head.proj.weight.grad[0]), atol=1e-8)
        np.testing.assert_allclose(
            replicated(m.head.ln_f.gamma),
            np.asarray(model_s.head.ln_f.gamma.grad[0]), atol=1e-8)

    def test_weights_bitwise_serial(self, serial, layout, rc, fused, p):
        model_s, _, _, _ = serial
        m = self.build(model_s, layout, rc, fused, p)
        for rank in range(p):
            assert np.array_equal(
                np.asarray(m.layers[0].attn.wq.weight.shards[rank]),
                np.asarray(model_s.layers[0].attn.wq.weight.shards[0]))
            assert np.array_equal(
                np.asarray(m.head.proj.weight.shards[rank]),
                np.asarray(model_s.head.proj.weight.shards[0]))


WORLD_ONE = {
    "tp": lambda **kw: ParallelGPTModel(TINY, tensor_parallel=1, **kw),
    "tp+sp": lambda **kw: ParallelGPTModel(TINY, tensor_parallel=1,
                                           sequence_parallel=True, **kw),
    "ulysses": lambda **kw: _long_context(1, "ulysses", **kw),
    "ring": lambda **kw: _long_context(1, "ring", **kw),
}


def _long_context(p, layout, **kw):
    from repro.longctx import LongContextGPTModel
    return LongContextGPTModel(TINY, context_parallel=p, layout=layout, **kw)


@pytest.mark.parametrize("rc", [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL])
@pytest.mark.parametrize("layout", list(WORLD_ONE))
def test_world_one_is_the_serial_model(serial, layout, rc):
    """Serial is the world-size-1 layout: same weights from the same seed,
    same loss bits, same gradients and the same weights after an Adam
    step.  The context-parallel layouts keep three ``(h, h)`` projections
    and are bitwise throughout.  Tensor parallelism fuses them into one
    ``(h, 3h)`` GEMM whose dgrad sums the 3h-long contraction in a
    different order than three GEMMs and an add, so gradients upstream of
    a QKV projection (and the step they drive) agree to an ulp-level
    ``1e-15`` / ``1e-10`` instead — the loss is still bitwise."""
    from repro.training import Adam
    bitwise = layout in ("ulysses", "ring")
    _, ids, tgt, _ = serial

    def step(model):
        optimizer = Adam(model.parameters(), lr=1e-2)
        loss = model(token_tensor(ids, V), token_tensor(tgt, V))
        loss.backward()
        model.finish_grad_sync()
        grads = {n: np.array(p.grad[0]) for n, p in model.named_parameters()}
        optimizer.step()
        return loss.item(), grads, {
            n: np.array(p.shards[0]) for n, p in model.named_parameters()}

    kw = dict(seed=4, mask_source=MS, recompute=rc)
    loss_s, grads_s, weights_s = step(GPTModel(TINY, **kw))
    loss_p, grads_p, weights_p = step(WORLD_ONE[layout](**kw))
    assert loss_p == loss_s
    for name in grads_s:
        if name not in grads_p:   # wq/wk/wv live inside the fused qkv
            assert not bitwise and ".attn.w" in name
            continue
        if bitwise:
            assert np.array_equal(grads_p[name], grads_s[name]), name
            assert np.array_equal(weights_p[name], weights_s[name]), name
        else:
            np.testing.assert_allclose(grads_p[name], grads_s[name],
                                       rtol=0, atol=1e-15, err_msg=name)
            np.testing.assert_allclose(weights_p[name], weights_s[name],
                                       rtol=0, atol=1e-10, err_msg=name)
    if not bitwise:
        np.testing.assert_allclose(
            grads_p["layers.0.attn.qkv.weight"],
            fuse_qkv(*(grads_s[f"layers.0.attn.{n}.weight"]
                       for n in ("wq", "wk", "wv")), 1),
            rtol=0, atol=1e-15)


class TestLongContextVariants:
    def test_four_way_ring(self, serial):
        from repro.longctx import LongContextGPTModel
        model_s, ids, tgt, loss_s = serial
        m = LongContextGPTModel(TINY, context_parallel=4, layout="ring",
                                recompute=Recompute.SELECTIVE, mask_source=MS,
                                serial=model_s)
        loss = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4))
        assert loss.item() == loss_s

    def test_four_way_ulysses(self, serial):
        from repro.longctx import LongContextGPTModel
        model_s, ids, tgt, loss_s = serial
        m = LongContextGPTModel(TINY, context_parallel=4, layout="ulysses",
                                recompute=Recompute.FULL, mask_source=MS,
                                serial=model_s)
        loss = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4))
        assert loss.item() == loss_s

    def test_logits_match_serial(self, serial):
        from repro.longctx import LongContextGPTModel
        model_s, ids, _, _ = serial
        m = LongContextGPTModel(TINY, context_parallel=2, layout="ulysses",
                                mask_source=MS, serial=model_s)
        logits_p = m.logits(token_tensor(ids, V, world=2))
        logits_s = np.asarray(model_s.logits(token_tensor(ids, V)).shards[0])
        for shard in logits_p.shards:
            np.testing.assert_array_equal(np.asarray(shard), logits_s)
