"""Generation, evaluation mode, checkpoint I/O, slice_axis, modules()."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import ConfigError
from repro.inference import evaluation, generate, generate_cached, perplexity
from repro.layers import GPTModel, token_tensor
from repro.layers.dropout import Dropout
from repro.parallel import ParallelGPTModel
from repro.tensor import from_numpy, no_grad, parameter
from repro.tensor import functions as F
from repro.training import (
    Adam, MarkovTokens, Trainer, load_training_state, load_weights,
    save_training_state, save_weights,
)

CFG = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                  seq_length=24, vocab_size=16)
V = CFG.vocab_size  # token ids lie in [0, V)
rng = np.random.default_rng(41)

BAD_DECODING = {
    "beam-strategy": dict(strategy="beam"),
    "zero-temperature": dict(temperature=0.0),
    "nan-temperature": dict(strategy="top_k", temperature=float("nan")),
    "zero-top_k": dict(strategy="top_k", top_k=0),
    "negative-top_k": dict(strategy="top_k", top_k=-3),
    "1d-prompt": dict(prompt=np.zeros(3, dtype=int)),
}


@pytest.fixture(scope="module")
def serial():
    return GPTModel(CFG, seed=2)


class TestSliceAxis:
    def test_forward_and_backward(self):
        x_arr = rng.normal(size=(6, 3))
        x = from_numpy(x_arr, requires_grad=True)
        y = F.slice_axis(x, 0, 1, 4)
        assert y.shape == (3, 3)
        F.sum_all(y).backward()
        grad = np.asarray(x.grad[0])
        np.testing.assert_array_equal(grad[1:4], 1.0)
        np.testing.assert_array_equal(grad[0], 0.0)
        np.testing.assert_array_equal(grad[4:], 0.0)

    def test_saves_nothing(self):
        from repro.tensor import MemoryTracker, instrument
        mt = MemoryTracker()
        with instrument(memory=mt):
            x = from_numpy(rng.normal(size=(6, 3)), requires_grad=True)
            F.slice_axis(x, 0, 0, 2)
        assert mt.live_bytes(0) == 0

    def test_short_sequence_forward(self, serial):
        """Position embeddings are sliced for contexts shorter than s."""
        ids = rng.integers(0, CFG.vocab_size, size=(5, 2))
        logits = serial.logits(token_tensor(ids, V))
        assert logits.shape == (5, 2, CFG.vocab_size)


class TestGeneration:
    def test_greedy_deterministic_and_prompt_preserved(self, serial):
        prompt = rng.integers(0, CFG.vocab_size, size=(3, 2))
        a = generate(serial, prompt, max_new_tokens=5)
        b = generate(serial, prompt, max_new_tokens=5)
        assert a.shape == (8, 2)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[:3], prompt)

    def test_greedy_is_incrementally_consistent(self, serial):
        """Generating 2 then 2 more equals generating 4 (causality)."""
        prompt = rng.integers(0, CFG.vocab_size, size=(3, 1))
        four = generate(serial, prompt, max_new_tokens=4)
        two = generate(serial, prompt, max_new_tokens=2)
        two_more = generate(serial, two, max_new_tokens=2)
        np.testing.assert_array_equal(four, two_more)

    def test_parallel_matches_serial(self, serial):
        prompt = rng.integers(0, CFG.vocab_size, size=(3, 2))
        expected = generate(serial, prompt, max_new_tokens=5)
        for sp in (False, True):
            par = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=sp,
                                   serial=serial)
            got = generate(par, prompt, max_new_tokens=5)
            np.testing.assert_array_equal(got, expected)

    def test_stops_at_max_length(self, serial):
        prompt = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length - 2, 1))
        out = generate(serial, prompt, max_new_tokens=10)
        assert out.shape[0] == CFG.seq_length

    def test_top_k_limits_support(self, serial):
        prompt = rng.integers(0, CFG.vocab_size, size=(2, 1))
        local = np.random.default_rng(3)
        out = generate(serial, prompt, max_new_tokens=1, strategy="top_k",
                       top_k=1, rng=local)
        greedy = generate(serial, prompt, max_new_tokens=1)
        np.testing.assert_array_equal(out, greedy)  # top-1 == greedy

    def test_validation(self, serial):
        with pytest.raises(ConfigError):
            generate(serial, np.zeros((2, 1), dtype=int), 1, strategy="beam")
        with pytest.raises(ConfigError):
            generate(serial, np.zeros((2, 1), dtype=int), 1, temperature=0.0)
        with pytest.raises(ConfigError):
            generate(serial, np.zeros(3, dtype=int), 1)

    @pytest.mark.parametrize("decode,bad", [
        *(pytest.param(decode, bad, id=f"{decode.__name__}-{name}")
          for decode in (generate, generate_cached)
          for name, bad in BAD_DECODING.items()),
        pytest.param(generate_cached, dict(block_size=0),
                     id="generate_cached-zero-block_size"),
    ])
    def test_bad_decoding_arguments_raise_config_error(self, serial, decode, bad):
        """Both decode paths reject the same bad arguments with
        ``ConfigError`` before any value reaches NumPy."""
        args = {"prompt": np.zeros((2, 1), dtype=int), **bad}
        with pytest.raises(ConfigError):
            decode(serial, args.pop("prompt"), 2, **args)

    def test_evaluation_context_disables_and_restores_dropout(self, serial):
        dropouts = [m for m in serial.modules() if isinstance(m, Dropout)]
        assert dropouts
        before = [d.p for d in dropouts]
        with evaluation(serial):
            assert all(d.p == 0.0 for d in dropouts)
        assert [d.p for d in dropouts] == before

    def test_perplexity_near_vocab_for_random_model(self, serial):
        ids = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length, 2))
        ppl = perplexity(serial, ids, np.roll(ids, -1, axis=0))
        assert 10 < ppl < 25  # ~vocab for an untrained model


class TestKVCacheDecoding:
    def test_cached_equals_full_forward_greedy(self, serial):
        from repro.inference import generate_cached
        prompt = rng.integers(0, CFG.vocab_size, size=(3, 2))
        full = generate(serial, prompt, max_new_tokens=8)
        cached = generate_cached(serial, prompt, max_new_tokens=8)
        np.testing.assert_array_equal(cached, full)

    def test_per_step_logits_match_full_context(self, serial):
        from repro.serving import DecodeEngine, PagedKVCache
        ids = rng.integers(0, CFG.vocab_size, size=(5, 2))
        cache = PagedKVCache(CFG, block_size=4, num_blocks=4)
        engine = DecodeEngine(serial, cache)
        requests = ["a", "b"]
        for request in requests:
            cache.add_request(request)
        for i in range(5):
            logits = engine.decode(requests, ids[i])
        with no_grad(), evaluation(serial):
            reference = np.asarray(serial.logits(token_tensor(ids, V)).shards[0])[-1]
        np.testing.assert_allclose(logits, reference, atol=1e-10)
        assert [engine.context_length(r) for r in requests] == [5, 5]

    def test_cache_length_capped(self, serial):
        from repro.inference import generate_cached
        prompt = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length - 1, 1))
        out = generate_cached(serial, prompt, max_new_tokens=10)
        assert out.shape[0] == CFG.seq_length

    def test_top_k_cached_matches_uncached_with_same_rng(self, serial):
        from repro.inference import generate_cached
        prompt = rng.integers(0, CFG.vocab_size, size=(2, 1))
        a = generate(serial, prompt, 5, strategy="top_k", top_k=4,
                     rng=np.random.default_rng(9))
        b = generate_cached(serial, prompt, 5, strategy="top_k", top_k=4,
                            rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestModulesIterator:
    def test_yields_nested_modules(self, serial):
        kinds = {type(m).__name__ for m in serial.modules()}
        assert {"GPTModel", "TransformerLayer", "SelfAttention",
                "CoreAttention", "MLP", "LayerNorm", "Dropout",
                "Linear", "GPTEmbedding", "LMHead"} <= kinds

    def test_counts_layers(self, serial):
        from repro.layers import TransformerLayer
        layers = [m for m in serial.modules() if isinstance(m, TransformerLayer)]
        assert len(layers) == CFG.num_layers


class TestCheckpointIO:
    def test_weights_roundtrip_serial(self, tmp_path, serial):
        path = str(tmp_path / "w.npz")
        save_weights(serial, path)
        other = GPTModel(CFG, seed=99)  # different init
        load_weights(other, path)
        ids = rng.integers(0, CFG.vocab_size, size=(CFG.seq_length, 2))
        tgt = np.roll(ids, -1, axis=0)
        assert perplexity(other, ids, tgt) == perplexity(serial, ids, tgt)

    def test_weights_roundtrip_parallel(self, tmp_path, serial):
        par = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                               serial=serial)
        path = str(tmp_path / "p.npz")
        save_weights(par, path)
        fresh = ParallelGPTModel(CFG, tensor_parallel=2, sequence_parallel=True,
                                 seed=123)
        load_weights(fresh, path)
        for (n1, p1), (n2, p2) in zip(par.named_parameters(),
                                      fresh.named_parameters()):
            for r in range(p1.world):
                np.testing.assert_array_equal(np.asarray(p1.shards[r]),
                                              np.asarray(p2.shards[r]))

    #: ``<named_parameters() path>::<rank>`` entries of a one-layer
    #: (h=8, a=2, s=4, v=8) model, per layout, as written by
    #: ``save_weights`` before the three class hierarchies were merged
    #: (serial and context-parallel kept wq/wk/wv; tensor-parallel a
    #: fused qkv), with each shard's shape.
    _LN = {f"{ln}.{p}": (8,) for ln in ("layers.0.ln1", "layers.0.ln2",
                                         "head.ln_f")
           for p in ("gamma", "beta")}
    _SPLIT_QKV = {f"layers.0.attn.{n}.{p}": shape
                  for n in ("wq", "wk", "wv", "wo")
                  for p, shape in (("weight", (8, 8)), ("bias", (8,)))}
    _WHOLE = {
        "embedding.word": (8, 8), "embedding.position": (4, 1, 8),
        **_LN, **_SPLIT_QKV,
        "layers.0.mlp.fc1.weight": (8, 32), "layers.0.mlp.fc1.bias": (32,),
        "layers.0.mlp.fc2.weight": (32, 8), "layers.0.mlp.fc2.bias": (8,),
        "head.proj.weight": (8, 8)}
    LEGACY_ENTRIES = {
        "serial": (1, _WHOLE),
        "tp2": (2, {
            "embedding.word": (4, 8), "embedding.position": (4, 1, 8), **_LN,
            "layers.0.attn.qkv.weight": (8, 12), "layers.0.attn.qkv.bias": (12,),
            "layers.0.attn.wo.weight": (4, 8), "layers.0.attn.wo.bias": (8,),
            "layers.0.mlp.fc1.weight": (8, 16), "layers.0.mlp.fc1.bias": (16,),
            "layers.0.mlp.fc2.weight": (16, 8), "layers.0.mlp.fc2.bias": (8,),
            "head.proj.weight": (8, 4)}),
        "cp2": (2, _WHOLE),  # context parallelism replicates every weight
    }

    @pytest.mark.parametrize("layout", list(LEGACY_ENTRIES))
    def test_checkpoint_from_before_the_layout_merge_loads(self, tmp_path,
                                                           layout):
        from repro.longctx import LongContextGPTModel
        cfg = ModelConfig(num_layers=1, hidden_size=8, num_heads=2,
                          seq_length=4, vocab_size=8)
        model = {"serial": lambda: GPTModel(cfg, seed=1),
                 "tp2": lambda: ParallelGPTModel(cfg, 2, seed=1),
                 "cp2": lambda: LongContextGPTModel(cfg, 2, seed=1)}[layout]()
        world, entries = self.LEGACY_ENTRIES[layout]
        local = np.random.default_rng(3)
        archive = {f"{name}::{rank}": local.normal(size=shape)
                   for name, shape in entries.items() for rank in range(world)}
        path = str(tmp_path / "legacy.npz")
        np.savez(path, **archive)  # pre-checksum archives are accepted
        load_weights(model, path)
        for name, param in model.named_parameters():
            for rank in range(param.world):
                np.testing.assert_array_equal(
                    np.asarray(param.shards[rank]), archive[f"{name}::{rank}"])

    def test_layout_mismatch_rejected(self, tmp_path, serial):
        par2 = ParallelGPTModel(CFG, tensor_parallel=2, serial=serial)
        path = str(tmp_path / "t2.npz")
        save_weights(par2, path)
        par4 = ParallelGPTModel(CFG, tensor_parallel=4, serial=serial)
        with pytest.raises(ConfigError):
            load_weights(par4, path)

    def test_abstract_model_rejected(self, tmp_path):
        m = ParallelGPTModel(CFG, tensor_parallel=2, abstract=True)
        with pytest.raises(ConfigError):
            save_weights(m, str(tmp_path / "a.npz"))

    def test_training_state_resume_is_exact(self, tmp_path):
        """Save mid-training, resume in a fresh process-equivalent, and get
        bit-identical subsequent steps."""
        data = MarkovTokens(CFG.vocab_size, CFG.seq_length, seed=5)
        batches = [data.batch(4) for _ in range(6)]

        model_a = GPTModel(CFG, seed=7, attention_dropout=0.0, hidden_dropout=0.0)
        opt_a = Adam(model_a.parameters(), lr=1e-3)
        trainer_a = Trainer(model_a, opt_a)
        for ids, tgt in batches[:3]:
            trainer_a.train_step(ids, tgt)
        path = str(tmp_path / "state.npz")
        save_training_state(model_a, opt_a, path)
        for ids, tgt in batches[3:]:
            final_a = trainer_a.train_step(ids, tgt)

        model_b = GPTModel(CFG, seed=0, attention_dropout=0.0, hidden_dropout=0.0)
        opt_b = Adam(model_b.parameters(), lr=1e-3)
        load_training_state(model_b, opt_b, path)
        assert opt_b.step_count == 3
        trainer_b = Trainer(model_b, opt_b)
        for ids, tgt in batches[3:]:
            final_b = trainer_b.train_step(ids, tgt)
        assert final_b == pytest.approx(final_a, abs=1e-12)


class TestDistributedOptimizerMemory:
    def test_shards_optimizer_state_across_dp(self):
        from dataclasses import replace
        from repro.config import PAPER_CONFIGS, ExperimentConfig, TrainingConfig
        from repro.memory_model import weight_and_optimizer_bytes
        base = PAPER_CONFIGS["530B"]
        cfg = ExperimentConfig(
            model=base.model,
            parallel=replace(base.parallel, data_parallel=8),
            training=TrainingConfig(1, base.training.global_batch_size * 8),
        )
        plain = weight_and_optimizer_bytes(cfg)
        dist = weight_and_optimizer_bytes(cfg, distributed_optimizer=True)
        # 4 B/param resident + 12/8 sharded vs 16 B/param
        assert dist / plain == pytest.approx((4 + 12 / 8) / 16)

    def test_noop_without_dp(self):
        from repro.config import PAPER_CONFIGS
        from repro.memory_model import weight_and_optimizer_bytes
        cfg = PAPER_CONFIGS["530B"]
        assert weight_and_optimizer_bytes(cfg, distributed_optimizer=True) == \
            weight_and_optimizer_bytes(cfg)


class TestReportCommand:
    def test_full_report_contains_all_sections(self):
        from repro.reporting import full_report
        text = full_report()
        for needle in ("Figure 1", "Table 2", "Figure 7", "Table 4",
                       "Figure 8", "Table 5", "Figure 9", "Appendix C",
                       "Figure 10"):
            assert needle in text

    def test_cli_report_to_file(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "report.md")
        assert main(["report", "--output", out]) == 0
        with open(out) as fh:
            assert "Reproduction report" in fh.read()


class TestResumePipelined3D:
    def test_save_resume_mid_3d_training_is_exact(self, tmp_path):
        """Checkpoint I/O composes with the full 3D stack: resuming
        mid-run reproduces the uninterrupted run bit-for-bit."""
        from repro.training import PipelinedGPT, save_training_state, load_training_state
        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=4,
                          seq_length=16, vocab_size=16)
        serial = GPTModel(cfg, seed=5, attention_dropout=0.0, hidden_dropout=0.0)

        def make():
            return ParallelGPTModel(cfg, tensor_parallel=2,
                                    sequence_parallel=True,
                                    attention_dropout=0.0, hidden_dropout=0.0,
                                    serial=serial)

        data = MarkovTokens(cfg.vocab_size, cfg.seq_length, seed=6)
        batches = [data.batch(4) for _ in range(4)]

        model_a = make()
        pipe_a = PipelinedGPT(model_a, pipeline_parallel=2)
        opt_a = Adam(model_a.parameters(), lr=1e-3)
        for ids, tgt in batches[:2]:
            pipe_a.fit_step(opt_a, ids, tgt, num_microbatches=2)
        path = str(tmp_path / "mid.npz")
        save_training_state(model_a, opt_a, path)
        for ids, tgt in batches[2:]:
            final_a = pipe_a.fit_step(opt_a, ids, tgt, num_microbatches=2)

        model_b = make()
        opt_b = Adam(model_b.parameters(), lr=1e-3)
        load_training_state(model_b, opt_b, path)
        pipe_b = PipelinedGPT(model_b, pipeline_parallel=2)
        for ids, tgt in batches[2:]:
            final_b = pipe_b.fit_step(opt_b, ids, tgt, num_microbatches=2)
        assert final_b == pytest.approx(final_a, abs=1e-12)
