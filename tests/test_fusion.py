"""The fused-operator engine computes *exactly* what the unfused tape
computes — same loss, equivalent gradients, identical saved-activation
accounting — while the tape itself shrinks.

Three layers of guarantees:

* numerics: fused vs unfused models agree (serial and every TP/SP/
  recompute combination, dropout active);
* accounting: the MemoryTracker peaks are equal, the Eq. 1-4 per-term
  drift stays exactly zero with fusion on, and the tape-level fusion
  pass applied to an unfused log reproduces the fused run's log
  record-for-record (pass == run);
* substrate: the scratch arena recycles buffers without leaking and its
  trace replays through the allocator models; the satellite
  optimisations (view-based split/slice, mask caching, cost-model
  memoisation) keep their bitwise behavior.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.fusion import (
    BufferArena,
    bias_gelu,
    default_arena,
    dropout_add,
    fuse_records,
    fused_layernorm,
    fusion_report,
    reset_arena,
    scale_mask_softmax_dropout,
    softmax_cross_entropy,
)
from repro.layers import GPTModel, Recompute, token_tensor
from repro.parallel import ParallelGPTModel
from repro.tensor import (MemoryTracker, OpLog, from_numpy, instrument, seed,
                          shard_along)
from repro.tensor import functions as F
from repro.tensor.functions import MaskSource
from repro.testing import gather_full

from helpers import TINY, random_tokens

rng = np.random.default_rng(7)
MS = MaskSource(seed=77, keep_prob=0.9)
V = TINY.vocab_size  # token ids lie in [0, V)

MODES = [Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL]


def _tokens(batch=2):
    ids = random_tokens(rng, TINY.vocab_size, TINY.seq_length, batch)
    tgt = random_tokens(rng, TINY.vocab_size, TINY.seq_length, batch)
    return ids, tgt


def _grads(model):
    return [np.asarray(shard) for p in model.parameters()
            for shard in (p.grad or [])]


# ---------------------------------------------------------------------------
# Individual fused ops vs their unfused compositions
# ---------------------------------------------------------------------------

class TestFusedOps:
    def _compare(self, fused_fn, unfused_fn, *arrays, atol=1e-12):
        """Forward bitwise, input grads allclose, for one op pair."""
        ts_f = [from_numpy(a, requires_grad=True) for a in arrays]
        ts_u = [from_numpy(a, requires_grad=True) for a in arrays]
        out_f = fused_fn(*ts_f)
        out_u = unfused_fn(*ts_u)
        np.testing.assert_array_equal(np.asarray(out_f.shards[0]),
                                      np.asarray(out_u.shards[0]))
        F.sum_all(out_f).backward()
        F.sum_all(out_u).backward()
        for tf, tu in zip(ts_f, ts_u):
            np.testing.assert_allclose(np.asarray(tf.grad[0]),
                                       np.asarray(tu.grad[0]), atol=atol)

    @pytest.mark.parametrize("world", [1, 2])
    def test_bias_gelu_is_bitwise(self, world):
        """Fused and unfused GeLU share one kernel: outputs, dx and dbias
        are bitwise equal on every shard (serial and tp=2 column shards)."""
        x = rng.standard_normal((3, 6, 8 * world))
        b = rng.standard_normal(8 * world)

        def run(fn):
            xt = shard_along(x, world, axis=-1, requires_grad=True)
            bt = shard_along(b, world, axis=-1, requires_grad=True)
            out = fn(xt, bt)
            F.sum_all(F.mul(out, out)).backward()  # non-constant upstream grad
            return out.shards + xt.grad + bt.grad

        fused = run(bias_gelu)
        unfused = run(lambda xt, bt: F.gelu(F.add(xt, bt)))
        assert len(fused) == 3 * world
        for got, want in zip(fused, unfused):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_layernorm(self):
        x = rng.standard_normal((5, 8))
        g = rng.standard_normal(8)
        b = rng.standard_normal(8)
        self._compare(fused_layernorm,
                      lambda xt, gt, bt: F.layernorm(xt, gt, bt),
                      x, g, b, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
           width=st.integers(1, 40), spread=st.sampled_from([1e-4, 1.0, 1e4]),
           offset=st.sampled_from([0.0, 3.0, -1e3]))
    def test_layernorm_statistics_are_bitwise_two_pass(self, data_seed, rows,
                                                       width, spread, offset):
        """Both layer norms centre once and reuse the centred array for
        the variance; forward and backward stay ``array_equal`` to the
        ``np.mean`` + ``np.var`` formulas they had before."""
        draw = np.random.default_rng(data_seed)
        x = draw.standard_normal((rows, 2, width)) * spread + offset
        gamma, beta = draw.standard_normal(width), draw.standard_normal(width)
        upstream = draw.standard_normal(x.shape)
        eps = 1e-5

        mu = np.mean(x, axis=-1, keepdims=True)
        var = np.var(x, axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + eps) * gamma + beta
        rstd = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * rstd
        dxhat = upstream * gamma
        want_dx = rstd * (dxhat - np.mean(dxhat, axis=-1, keepdims=True)
                          - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True))
        want_dgamma = np.sum(upstream * xhat, axis=(0, 1))

        for op in (F.layernorm, fused_layernorm):
            xt, gt, bt = (from_numpy(a, requires_grad=True)
                          for a in (x, gamma, beta))
            out = op(xt, gt, bt, eps)
            np.testing.assert_array_equal(out.shards[0], want)
            out.backward([upstream])
            np.testing.assert_array_equal(xt.grad[0], want_dx)
            np.testing.assert_array_equal(gt.grad[0], want_dgamma)

    def test_scale_mask_softmax_dropout(self):
        x = rng.standard_normal((2, 4, 4))
        f = lambda xt: scale_mask_softmax_dropout(
            xt, 0.5, 0.1, tag="t", mask_source=MS)
        ms_drop = F.Dropout(0.1, tag="t", mask_source=MS)
        u = lambda xt: F.apply(ms_drop, F.softmax(
            F.causal_mask(F.scale(xt, 0.5))))
        self._compare(f, u, x)

    def test_dropout_add(self):
        x = rng.standard_normal((4, 6))
        r = rng.standard_normal((4, 6))
        f = lambda xt, rt: dropout_add(xt, rt, 0.1, tag="da", mask_source=MS)
        drop = F.Dropout(0.1, tag="da", mask_source=MS)
        u = lambda xt, rt: F.add(F.apply(drop, xt), rt)
        self._compare(f, u, x, r)

    def test_softmax_cross_entropy(self):
        logits = from_numpy(rng.standard_normal((6, 9)), requires_grad=True)
        logits_u = from_numpy(np.asarray(logits.shards[0]).copy(),
                              requires_grad=True)
        tgt = np.asarray(rng.integers(0, 9, size=6))
        loss_f = softmax_cross_entropy(logits, token_tensor(tgt, 9))
        from repro.tensor.dtypes import FP32
        loss_u = F.cross_entropy(F.cast(logits_u, FP32), token_tensor(tgt, 9))
        assert loss_f.item() == loss_u.item()
        loss_f.backward()
        loss_u.backward()
        np.testing.assert_allclose(np.asarray(logits.grad[0]),
                                   np.asarray(logits_u.grad[0]), atol=1e-12)


# ---------------------------------------------------------------------------
# Whole-model equivalence, serial and parallel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rc", MODES)
class TestSerialEquivalence:
    def test_loss_and_grads(self, rc):
        ids, tgt = _tokens()
        losses, grads, tapes = [], [], []
        for fused in (False, True):
            seed(3)
            model = GPTModel(TINY, seed=4, recompute=rc,
                             mask_source=MS, fused=fused)
            log = OpLog()
            with instrument(oplog=log):
                loss = model(token_tensor(ids, V), token_tensor(tgt, V))
                loss.backward()
            losses.append(loss.item())
            grads.append(_grads(model))
            tapes.append(len(log.records))
        assert losses[0] == losses[1]  # forward math is order-identical
        for gu, gf in zip(grads[0], grads[1]):
            np.testing.assert_allclose(gf, gu, atol=1e-8)
        assert tapes[1] < tapes[0], "fusion must shrink the tape"


@pytest.mark.parametrize("t", [2, 4])
@pytest.mark.parametrize("sp", [False, True])
@pytest.mark.parametrize("rc", MODES)
class TestParallelEquivalence:
    def test_loss_grads_and_peaks(self, t, sp, rc):
        ids, tgt = _tokens()
        losses, grads, peaks = [], [], []
        for fused in (False, True):
            seed(5)
            model = ParallelGPTModel(TINY, tensor_parallel=t,
                                     sequence_parallel=sp, recompute=rc,
                                     mask_source=MS, seed=4, fused=fused)
            tracker = MemoryTracker()
            with instrument(memory=tracker):
                loss = model(token_tensor(ids, V, world=t),
                             token_tensor(tgt, V, world=t))
                loss.backward()
            model.finish_grad_sync()
            losses.append(loss.item())
            grads.append([gather_full(p, grad=True) if len(p.shards) == t else
                          np.asarray(p.grad[0]) for p in model.parameters()])
            peaks.append([tracker.peak_bytes(r) for r in range(t)])
        assert losses[0] == losses[1]
        for gu, gf in zip(grads[0], grads[1]):
            np.testing.assert_allclose(gf, gu, atol=1e-8)
        # Fusion must not change what the tape saves: per-rank activation
        # peaks are byte-identical.
        assert peaks[0] == peaks[1]


def test_fused_parallel_matches_unfused_serial():
    """Cross-layout, cross-engine: fused TP+SP reproduces the plain
    serial model's loss — fusion composes with the existing equivalence
    guarantees instead of merely being self-consistent."""
    ids, tgt = _tokens()
    serial_model = GPTModel(TINY, seed=4, mask_source=MS)
    loss_s = serial_model(token_tensor(ids, V), token_tensor(tgt, V)).item()
    m = ParallelGPTModel(TINY, tensor_parallel=4, sequence_parallel=True,
                         recompute=Recompute.SELECTIVE, mask_source=MS,
                         serial=serial_model, fused=True)
    loss_p = m(token_tensor(ids, V, world=4), token_tensor(tgt, V, world=4)).item()
    assert loss_p == pytest.approx(loss_s, abs=1e-9)


# ---------------------------------------------------------------------------
# Tape-level fusion pass: pass == run
# ---------------------------------------------------------------------------

class TestFusionPass:
    def _logs(self, **kwargs):
        ids, tgt = _tokens()
        logs = []
        for fused in (False, True):
            seed(9)
            model = GPTModel(TINY, seed=4, mask_source=MS, fused=fused,
                             **kwargs)
            log = OpLog()
            with instrument(oplog=log):
                model(token_tensor(ids, V), token_tensor(tgt, V)).backward()
            logs.append(log)
        return logs

    @pytest.mark.parametrize("rc", MODES)
    def test_pass_equals_run(self, rc):
        """Rewriting the unfused tape reproduces the fused run's records
        exactly — names, phases, byte/flop charges and order."""
        log_u, log_f = self._logs(recompute=rc)
        assert fuse_records(log_u.records) == log_f.records

    def test_report_invariants(self):
        log_u, log_f = self._logs()
        rep = fusion_report(log_u.records)
        assert rep["kernels_before"] - rep["kernels_eliminated"] \
            == rep["kernels_after"] == len(log_f.records)
        assert rep["fused_kernels"] > 0
        assert rep["kernels_eliminated"] > 0
        # Fused kernels read inputs once and write outputs once; the
        # eliminated round trips strictly reduce total traffic.
        assert rep["bytes_after"] < rep["bytes_before"]


# ---------------------------------------------------------------------------
# Paper accounting stays exact with fusion on
# ---------------------------------------------------------------------------

def test_zero_drift_with_fusion():
    from repro.observability.analysis import memory_drift_report

    cfg = ModelConfig(num_layers=1, hidden_size=64, num_heads=4,
                      seq_length=32, vocab_size=64, name="drift")
    for d in memory_drift_report(cfg, 2, 4, fused=True):
        assert d.total_drift == 0.0, \
            f"sp={d.sequence_parallel} rc={d.recompute}: {d.drift}"


def test_fused_layer_timing_prices_fused_records():
    from repro.perf_model import KernelCostModel, layer_oplog

    cfg = ModelConfig(num_layers=1, hidden_size=64, num_heads=4,
                      seq_length=32, vocab_size=64, name="timing")
    log_u = layer_oplog(cfg, 2, 2, fused=False)
    log_f = layer_oplog(cfg, 2, 2, fused=True)
    assert not any(r.fused for r in log_u.records)
    fused_records = [r for r in log_f.records if r.fused]
    assert fused_records
    assert len(log_f.records) < len(log_u.records)
    times = KernelCostModel().price(log_f)
    assert times.forward > 0 and times.backward > 0


# ---------------------------------------------------------------------------
# Scratch arena
# ---------------------------------------------------------------------------

class TestArena:
    def test_recycles_buffers(self):
        arena = BufferArena()
        a = arena.take((8, 8))
        arena.give(a)
        b = arena.take((8, 8))
        assert b is a
        assert arena.stats() == {"hits": 1, "misses": 1,
                                 "bytes_served": 2 * a.nbytes,
                                 "pooled_buffers": 0, "pooled_bytes": 0}

    def test_rejects_views(self):
        arena = BufferArena()
        base = np.zeros((4, 4))
        arena.give(base[1:])
        assert arena.pooled_buffers == 0

    def test_steady_state_reuse_across_steps(self):
        """After one warmup step every later step's scratch comes from
        the pool — the zero-copy claim."""
        ids, tgt = _tokens()
        seed(11)
        model = GPTModel(TINY, seed=4, mask_source=MS, fused=True)
        arena = reset_arena()
        try:
            model(token_tensor(ids, V), token_tensor(tgt, V)).backward()
            warm = arena.stats()
            assert warm["misses"] > 0
            model.zero_grad()
            model(token_tensor(ids, V), token_tensor(tgt, V)).backward()
            after = arena.stats()
            assert after["misses"] == warm["misses"]
            assert after["hits"] > warm["hits"]
        finally:
            reset_arena()

    def test_trace_replays_through_allocator(self):
        from repro.allocator import FirstFitAllocator, replay
        from repro.fusion import SCRATCH_CATEGORY

        x = rng.standard_normal((16, 32))
        b = rng.standard_normal(32)
        arena = reset_arena(trace=True)
        try:
            out = bias_gelu(from_numpy(x, requires_grad=True), from_numpy(b))
            F.sum_all(out).backward()
            assert arena.trace, "fused ops must record scratch events"
            assert all(e.category == SCRATCH_CATEGORY for e in arena.trace)
            allocs = sum(1 for e in arena.trace if e.kind == "alloc")
            frees = sum(1 for e in arena.trace if e.kind == "free")
            assert allocs == frees, "scratch must not leak"
            allocator = FirstFitAllocator()
            stats = replay(arena.trace, allocator)
            assert stats.allocations == allocs and stats.frees == frees
            assert stats.peak_live_bytes > 0
            assert allocator.live_bytes == 0
        finally:
            reset_arena()

    def test_default_arena_identity(self):
        arena = reset_arena()
        try:
            assert default_arena() is arena
        finally:
            reset_arena()


# ---------------------------------------------------------------------------
# Satellite regressions: views, mask cache, cost-model memo
# ---------------------------------------------------------------------------

class TestViewSemantics:
    def test_split_returns_views(self):
        from repro.tensor import backend as bk

        x = np.arange(24.0).reshape(4, 6)
        parts = bk.split(x, 3, axis=1)
        assert all(np.shares_memory(p, x) for p in parts)
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), x)

    def test_slice_axis_returns_view(self):
        from repro.tensor import backend as bk

        x = np.arange(24.0).reshape(4, 6)
        piece = bk.slice_axis(x, 0, 1, 3)
        assert np.shares_memory(piece, x)
        np.testing.assert_array_equal(piece, x[1:3])

    def test_unbroadcast_single_reduction(self):
        """Broadcast gradients reduce in one fused pass with the exact
        same result as the reference double-reduction."""
        x = from_numpy(rng.standard_normal((4, 5)), requires_grad=True)
        b = from_numpy(rng.standard_normal((1, 5)), requires_grad=True)
        c = from_numpy(rng.standard_normal(5), requires_grad=True)
        out = F.add(F.add(x, b), c)
        F.sum_all(out).backward()
        np.testing.assert_array_equal(np.asarray(b.grad[0]),
                                      np.full((1, 5), 4.0))
        np.testing.assert_array_equal(np.asarray(c.grad[0]), np.full(5, 4.0))


class TestMaskSourceCache:
    def test_cache_is_bitwise_transparent(self):
        ms = MaskSource(seed=13, keep_prob=0.8)
        first = ms.full_mask("tag", (32, 16))
        assert ms.full_mask("tag", (32, 16)) is first  # cached object
        ms.clear_cache()
        regenerated = ms.full_mask("tag", (32, 16))
        assert regenerated is not first
        np.testing.assert_array_equal(regenerated, first)

    def test_distinct_keys_distinct_masks(self):
        ms = MaskSource(seed=13, keep_prob=0.8)
        a = ms.full_mask("a", (64, 64))
        b = ms.full_mask("b", (64, 64))
        assert not np.array_equal(a, b)
        assert ms.full_mask("a", (32, 64)).shape == (32, 64)


def test_cost_model_memo_is_transparent():
    from repro.perf_model import KernelCostModel, layer_oplog

    cfg = ModelConfig(num_layers=1, hidden_size=32, num_heads=4,
                      seq_length=16, vocab_size=32, name="memo")
    log = layer_oplog(cfg, 1, 2, fused=True)
    warm = KernelCostModel()
    first = [warm.op_time(r) for r in log.records]
    assert warm._op_time_cache  # memo populated
    second = [warm.op_time(r) for r in log.records]  # served from cache
    cold = [KernelCostModel().op_time(r) for r in log.records]
    assert first == second == cold


# ---------------------------------------------------------------------------
# Observability: fused spans, determinism
# ---------------------------------------------------------------------------

def test_tracer_emits_fused_spans_and_stays_deterministic():
    from repro.observability.regress import trace_hash
    from repro.observability.tracer import Tracer, trace_scope

    def run():
        tracer = Tracer()
        seed(21)
        model = ParallelGPTModel(TINY, tensor_parallel=2, mask_source=MS,
                                 seed=4, fused=True)
        ids, tgt = random_tokens(np.random.default_rng(2), TINY.vocab_size,
                                 TINY.seq_length, 2), None
        tgt = random_tokens(np.random.default_rng(3), TINY.vocab_size,
                            TINY.seq_length, 2)
        with trace_scope(tracer):
            model(token_tensor(ids, V, world=2),
                  token_tensor(tgt, V, world=2)).backward()
        return tracer

    t1, t2 = run(), run()
    fused_spans = [s for s in t1.spans if s.args.get("fused")]
    assert fused_spans, "fused kernels must appear as compute spans"
    assert all(s.subsystem == "compute" for s in fused_spans)
    assert trace_hash(t1) == trace_hash(t2)
