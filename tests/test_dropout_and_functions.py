"""Dropout semantics (replicated/sharded/mask-source), op-specific checks."""

import numpy as np
import pytest
from scipy import special

from repro.errors import ShapeError
from repro.tensor import FP32, MemoryTracker, Tensor, from_numpy, instrument, seed
from repro.tensor import functions as F
from repro.tensor.functions import MaskSource

rng = np.random.default_rng(3)


class TestDropoutModes:
    def test_identity_when_p_zero(self):
        x = from_numpy(rng.normal(size=(4, 4)), requires_grad=True)
        y = F.dropout(x, 0.0)
        np.testing.assert_array_equal(np.asarray(y.shards[0]), np.asarray(x.shards[0]))
        mt = MemoryTracker()
        with instrument(memory=mt):
            x2 = from_numpy(rng.normal(size=(4, 4)), requires_grad=True)
            F.dropout(x2, 0.0)
        assert mt.live_bytes(0) == 0  # no mask stored

    def test_replicated_mode_same_mask_every_rank(self):
        seed(0)
        x = Tensor([np.ones((64, 4))] * 3, requires_grad=True, layout="replicated")
        y = F.dropout(x, 0.5, mode="replicated")
        a, b, c = [np.asarray(s) for s in y.shards]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)

    def test_sharded_mode_independent_masks(self):
        seed(0)
        x = Tensor([np.ones((64, 4))] * 3, requires_grad=True)
        y = F.dropout(x, 0.5, mode="sharded")
        a, b = np.asarray(y.shards[0]), np.asarray(y.shards[1])
        assert not np.array_equal(a, b)

    def test_inverted_scaling_preserves_expectation(self):
        seed(1)
        x = from_numpy(np.ones((200, 200)))
        y = np.asarray(F.dropout(x, 0.3).shards[0])
        assert y.mean() == pytest.approx(1.0, abs=0.02)
        kept = y[y > 0]
        assert kept[0] == pytest.approx(1 / 0.7)

    def test_mask_source_slices_consistently(self):
        """A sharded layout must apply slices of the same full mask the
        replicated layout applies whole — the key to cross-layout tests."""
        ms = MaskSource(seed=5, keep_prob=0.8)
        full = np.ones((8, 4))
        x_full = Tensor([full], requires_grad=True)
        y_full = np.asarray(F.dropout(x_full, 0.2, mode="replicated",
                                      tag="T", mask_source=ms).shards[0])
        shards = [np.ascontiguousarray(p).copy() for p in np.split(full, 2, axis=0)]
        x_sh = Tensor(shards, requires_grad=True, layout="shard(dim=0)")
        y_sh = F.dropout(x_sh, 0.2, mode="sharded", shard_axis=0,
                         tag="T", mask_source=ms)
        reassembled = np.concatenate([np.asarray(s) for s in y_sh.shards], axis=0)
        np.testing.assert_array_equal(reassembled, y_full)

    def test_mask_source_deterministic_by_tag(self):
        ms = MaskSource(seed=5, keep_prob=0.5)
        m1 = ms.full_mask("a", (10, 10))
        m2 = ms.full_mask("a", (10, 10))
        m3 = ms.full_mask("b", (10, 10))
        np.testing.assert_array_equal(m1, m2)
        assert not np.array_equal(m1, m3)

    def test_mask_stored_as_one_byte(self):
        seed(0)
        mt = MemoryTracker()
        with instrument(memory=mt):
            x = from_numpy(np.ones((10, 10)), requires_grad=True)
            F.dropout(x, 0.5)
        assert mt.live_bytes(0) == 100  # 1 byte per element

    def test_invalid_p_rejected(self):
        x = from_numpy(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            F.dropout(x, 1.0)
        with pytest.raises(ShapeError):
            F.dropout(x, -0.1)

    def test_invalid_mode_rejected(self):
        x = from_numpy(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            F.dropout(x, 0.5, mode="diagonal")


class TestNumericsAgainstReference:
    def test_softmax_rows_sum_to_one(self):
        x = from_numpy(rng.normal(size=(5, 7)) * 10)
        y = np.asarray(F.softmax(x).shards[0])
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y > 0)

    def test_softmax_stability_large_values(self):
        x = from_numpy(np.array([[1000.0, 1000.0, -1000.0]]))
        y = np.asarray(F.softmax(x).shards[0])
        np.testing.assert_allclose(y, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_gelu_close_to_exact_erf_form(self):
        x = rng.normal(size=1000) * 2
        got = np.asarray(F.gelu(from_numpy(x)).shards[0])
        exact = 0.5 * x * (1 + special.erf(x / np.sqrt(2)))
        np.testing.assert_allclose(got, exact, atol=2e-3)

    def test_cross_entropy_matches_scipy(self):
        logits = rng.normal(size=(6, 2, 5))
        targets = rng.integers(0, 5, size=(6, 2))
        loss = F.cross_entropy(
            F.cast(from_numpy(logits), FP32),
            from_numpy(targets.astype(float)),
        ).item()
        logp = logits - special.logsumexp(logits, axis=-1, keepdims=True)
        expected = -np.mean(np.take_along_axis(logp, targets[..., None], -1))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_causal_mask_blocks_upper_triangle(self):
        x = from_numpy(np.ones((3, 3)))
        y = np.asarray(F.softmax(F.causal_mask(x)).shards[0])
        # row i attends to positions <= i uniformly
        np.testing.assert_allclose(y[0], [1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(y[1], [0.5, 0.5, 0], atol=1e-9)
        np.testing.assert_allclose(y[2], [1 / 3] * 3, atol=1e-9)

    def test_causal_mask_requires_square(self):
        with pytest.raises(ShapeError):
            F.causal_mask(from_numpy(np.ones((2, 3))))

    def test_embedding_lookup_and_scatter(self):
        from repro.tensor import parameter
        table = parameter([rng.normal(size=(6, 3))])
        ids = from_numpy(np.array([[0, 5], [2, 2]]).astype(float))
        out = F.embedding(table, ids)
        assert out.shape == (2, 2, 3)
        F.sum_all(out).backward()
        grad = np.asarray(table.grad[0])
        np.testing.assert_allclose(grad[2], 2.0 * np.ones(3))  # id 2 used twice
        np.testing.assert_allclose(grad[1], np.zeros(3))

    def test_cast_changes_accounting_dtype(self):
        x = from_numpy(np.ones((4,)))
        y = F.cast(x, FP32)
        assert y.dtype.nbytes == 4
        assert x.dtype.nbytes == 2


class TestGeluKernel:
    """``_gelu_fwd`` / ``_gelu_bwd`` — the one kernel behind ``gelu`` and
    ``bias_gelu`` — against the textbook ``x**3`` expressions."""

    C = np.sqrt(2.0 / np.pi)

    def _textbook(self, x, g):
        inner = self.C * (x + 0.044715 * x**3)
        tanh = np.tanh(inner)
        fwd = 0.5 * x * (1.0 + tanh)
        d_inner = self.C * (1.0 + 3 * 0.044715 * x**2)
        bwd = g * (0.5 * (1.0 + tanh) + 0.5 * x * (1.0 - tanh**2) * d_inner)
        return fwd, bwd

    @pytest.mark.parametrize("x", [
        rng.normal(size=(7, 3, 5)) * 3,
        np.array([0.0, -0.0, 1.0, -1.0, 5.0, -5.0, 30.0, -30.0, 1e3, -1e3]),
        np.array([5e-324, -5e-324, 1e-310, -1e-310, 1e-160, -1e-160]),
    ], ids=["random", "zero_and_large", "denormal"])
    def test_matches_textbook_formulas(self, x):
        g = np.linspace(-2.0, 3.0, x.size).reshape(x.shape)
        want_fwd, want_bwd = self._textbook(x, g)
        got_fwd, got_bwd = F._gelu_fwd(x), F._gelu_bwd(x, g)
        assert got_fwd.shape == got_bwd.shape == x.shape
        np.testing.assert_allclose(got_fwd, want_fwd, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got_bwd, want_bwd, rtol=1e-12, atol=0)

    def test_lent_scratch_changes_nothing_and_inputs_are_untouched(self):
        x = rng.normal(size=(4, 6))
        g = rng.normal(size=(4, 6))
        x0, g0 = x.copy(), g.copy()
        scratch = [np.full(x.shape, np.nan) for _ in range(3)]
        np.testing.assert_array_equal(F._gelu_fwd(x, scratch[0]), F._gelu_fwd(x))
        np.testing.assert_array_equal(F._gelu_bwd(x, g, scratch),
                                      F._gelu_bwd(x, g))
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(g, g0)

    def test_central_difference_gradcheck(self):
        x = rng.normal(size=(5, 4)) * 2
        eps = 1e-6
        numeric = (F._gelu_fwd(x + eps) - F._gelu_fwd(x - eps)) / (2 * eps)
        np.testing.assert_allclose(F._gelu_bwd(x, np.ones_like(x)), numeric,
                                   rtol=1e-6, atol=1e-8)

    def test_gelu_saves_only_its_input(self):
        # no tanh cached from forward: the 8sbh "gelu_input" term is all
        mt = MemoryTracker()
        with instrument(memory=mt):
            x = from_numpy(rng.normal(size=(8, 4)), requires_grad=True)
            F.gelu(x)
        assert mt.live_bytes(0) == 8 * 4 * 2


class TestLinearMatmulFlattening:
    """A 2-D weight against >2-D activations runs as one 2-D GEMM; results
    and shapes match the plain ``x @ w`` reference."""

    K, N = 6, 5

    @pytest.mark.parametrize("world", [1, 2])
    @pytest.mark.parametrize("lead", [(4,), (3, 4), (2, 3, 4)],
                             ids=["2d", "3d", "4d"])
    def test_forward_dx_dw_match_reference(self, lead, world):
        from repro.tensor import parameter
        xs = [rng.normal(size=lead + (self.K,)) for _ in range(world)]
        ws = [rng.normal(size=(self.K, self.N)) for _ in range(world)]
        gs = [rng.normal(size=lead + (self.N,)) for _ in range(world)]
        x = Tensor([a.copy() for a in xs], requires_grad=True)
        w = parameter([a.copy() for a in ws], layout="shard")
        out = F.matmul(x, w)
        out.backward([g.copy() for g in gs])
        axes = list(range(len(lead)))
        for r in range(world):
            assert out.shards[r].shape == lead + (self.N,)
            assert x.grad[r].shape == xs[r].shape
            assert w.grad[r].shape == ws[r].shape
            np.testing.assert_allclose(out.shards[r], xs[r] @ ws[r], rtol=1e-13)
            np.testing.assert_allclose(x.grad[r], gs[r] @ ws[r].T, rtol=1e-13)
            np.testing.assert_allclose(
                w.grad[r], np.tensordot(xs[r], gs[r], axes=(axes, axes)),
                rtol=1e-12)

    def test_non_contiguous_activations(self):
        base = rng.normal(size=(4, 3, self.K))
        x = Tensor([base.transpose(1, 0, 2)], requires_grad=True)
        w = from_numpy(rng.normal(size=(self.K, self.N)), requires_grad=True)
        out = F.matmul(x, w)
        np.testing.assert_allclose(out.shards[0],
                                   base.transpose(1, 0, 2) @ w.shards[0],
                                   rtol=1e-13)
        F.sum_all(out).backward()
        assert x.grad[0].shape == (3, 4, self.K)

    def test_abstract_operands_keep_shape_arithmetic(self):
        from repro.tensor import abstract, parameter
        x = abstract((4, 2, self.K), world=2, requires_grad=True)
        w = parameter([np.zeros((self.K, self.N))] * 2)
        out = F.matmul(x, w)
        assert out.is_abstract and out.shape == (4, 2, self.N)
        out.backward()
        assert x.grad[0].shape == (4, 2, self.K)
        assert w.grad[0].shape == (self.K, self.N)

    def test_batched_operands_unchanged(self):
        a = rng.normal(size=(2, 3, 4, self.K))
        b = rng.normal(size=(2, 3, self.K, self.N))
        g = rng.normal(size=(2, 3, 4, self.N))
        x = from_numpy(a, requires_grad=True)
        w = from_numpy(b, requires_grad=True)
        out = F.matmul(x, w)
        np.testing.assert_array_equal(out.shards[0], a @ b)
        out.backward([g])
        np.testing.assert_array_equal(x.grad[0], g @ b.swapaxes(-1, -2))
        np.testing.assert_array_equal(w.grad[0], a.swapaxes(-1, -2) @ g)


class TestCausalMaskCache:
    def test_masks_come_from_one_read_only_cache(self):
        """The fused attention op masks with the read-only pair that
        ``F._offset_keep`` caches, the same arrays ``F._causal_keep``
        gives the unfused op."""
        from repro.fusion import scale_mask_softmax_dropout
        F._TRIL_CACHE.pop((11, 11, 0), None)
        y = scale_mask_softmax_dropout(Tensor([rng.normal(size=(2, 11, 11))]),
                                       0.5, 0.0)
        keep, masked = F._TRIL_CACHE[(11, 11, 0)]
        assert F._causal_keep((7, 11, 11))[0] is keep
        assert F._causal_keep((2, 11, 11))[1] is masked
        np.testing.assert_array_equal(keep, np.tril(np.ones((11, 11), bool)))
        np.testing.assert_array_equal(masked, ~keep)
        assert not keep.flags.writeable and not masked.flags.writeable
        np.testing.assert_array_equal(y.shards[0] == 0,
                                      np.broadcast_to(masked, (2, 11, 11)))

    def test_offset_mask_forward_backward(self):
        x = Tensor([rng.normal(size=(2, 6)) for _ in range(3)],
                   requires_grad=True)
        y = F.offset_causal_mask(x)
        y.backward()
        for r in range(3):
            keep = np.tril(np.ones((2, 6), bool), k=2 * r)
            np.testing.assert_array_equal(
                y.shards[r], np.where(keep, x.shards[r], -1e9))
            np.testing.assert_array_equal(x.grad[r], keep.astype(float))
