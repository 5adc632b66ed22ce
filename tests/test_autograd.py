"""Autograd engine: gradient correctness, graph mechanics, error handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AutogradError
from repro.tensor import (
    Tensor, abstract, free_graph, from_numpy, no_grad, parameter, seed,
)
from repro.tensor import functions as F
from repro.testing import check_gradients, numerical_grad

rng = np.random.default_rng(42)


class TestGradCheck:
    """Every op's analytic gradient matches central differences."""

    def test_add_broadcast(self):
        b = from_numpy(rng.normal(size=(1, 4)))
        check_gradients(lambda t: F.add(t, b), rng.normal(size=(3, 4)))

    def test_mul_tensor(self):
        b = from_numpy(rng.normal(size=(3, 4)))
        check_gradients(lambda t: F.mul(t, b), rng.normal(size=(3, 4)))

    def test_mul_scalar(self):
        check_gradients(lambda t: F.scale(t, 2.5), rng.normal(size=(3, 4)))

    def test_matmul_linear(self):
        w = parameter([rng.normal(size=(5, 7))])
        check_gradients(lambda t: F.matmul(t, w), rng.normal(size=(2, 3, 5)))

    def test_matmul_weight_grad(self):
        x = from_numpy(rng.normal(size=(4, 5)))
        w_arr = rng.normal(size=(5, 3))
        w = parameter([w_arr.copy()])
        F.sum_all(F.matmul(x, w)).backward()

        def f(arr):
            with no_grad():
                return F.sum_all(F.matmul(x, from_numpy(arr))).item()

        np.testing.assert_allclose(w.grad[0], numerical_grad(f, w_arr), atol=1e-6)

    def test_matmul_batched(self):
        w = from_numpy(rng.normal(size=(2, 4, 5)))
        check_gradients(lambda t: F.matmul(t, w), rng.normal(size=(2, 3, 4)))

    def test_batched_matmul_second_operand(self):
        x = from_numpy(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda t: F.matmul(x, t), rng.normal(size=(2, 4, 5)))

    def test_gelu(self):
        check_gradients(F.gelu, rng.normal(size=(3, 5)))

    def test_gelu_blocks_are_bitwise_the_one_pass_kernel(self):
        """With no scratch lent, an operand of more than one block streams
        through block-sized scratch; lent full-size scratch runs it in one
        pass.  Each element sees the same operations: the same bits."""
        z = rng.normal(size=(5, 7, 1301))  # two blocks and a ragged third
        g = rng.normal(size=z.shape)
        assert 2 * F._GELU_BLOCK < z.size < 3 * F._GELU_BLOCK
        assert F._gelu_fwd(z).tobytes() == F._gelu_fwd(z, np.empty(z.shape)).tobytes()
        lent = [np.empty(z.shape) for _ in range(3)]
        assert F._gelu_bwd(z, g).tobytes() == F._gelu_bwd(z, g, lent).tobytes()

    def test_softmax(self):
        check_gradients(F.softmax, rng.normal(size=(2, 3, 6)), atol=1e-5)

    def test_layernorm(self):
        gamma = parameter([rng.normal(size=(8,))])
        beta = parameter([rng.normal(size=(8,))])
        check_gradients(lambda t: F.layernorm(t, gamma, beta), rng.normal(size=(4, 8)), atol=1e-5)

    def test_layernorm_param_grads(self):
        x = from_numpy(rng.normal(size=(4, 8)))
        g_arr, b_arr = np.ones(8), np.zeros(8)
        gamma, beta = parameter([g_arr.copy()]), parameter([b_arr.copy()])
        F.sum_all(F.layernorm(x, gamma, beta)).backward()

        def fg(arr):
            with no_grad():
                return F.sum_all(F.layernorm(x, from_numpy(arr), beta.detach())).item()

        np.testing.assert_allclose(gamma.grad[0], numerical_grad(fg, g_arr), atol=1e-6)
        np.testing.assert_allclose(beta.grad[0], np.full(8, 4.0), atol=1e-12)

    def test_causal_mask(self):
        # Composed with softmax (the real usage): the -1e9 fill would
        # otherwise destroy central-difference precision in the sum.
        check_gradients(lambda t: F.softmax(F.causal_mask(t)),
                   rng.normal(size=(2, 4, 4)), atol=1e-5)

    def test_causal_mask_zeroes_future_grads(self):
        x = from_numpy(rng.normal(size=(3, 3)), requires_grad=True)
        F.sum_all(F.causal_mask(x)).backward()
        grad = np.asarray(x.grad[0])
        np.testing.assert_array_equal(grad, np.tril(np.ones((3, 3))))

    def test_reshape_transpose(self):
        check_gradients(lambda t: F.transpose(F.reshape(t, (2, 6)), (1, 0)),
                   rng.normal(size=(3, 4)))

    def test_split_concat_roundtrip(self):
        def op(t):
            a, b, c = F.split(t, 3, axis=-1)
            return F.concat([c, a, b], axis=-1)
        check_gradients(op, rng.normal(size=(2, 9)))

    def test_cast_passthrough(self):
        from repro.tensor import FP32
        check_gradients(lambda t: F.cast(t, FP32), rng.normal(size=(3, 3)))

    def test_cross_entropy(self):
        targets = from_numpy(rng.integers(0, 5, size=(4, 2)).astype(float))
        targets.dtype = targets.dtype  # int-like targets stored as floats
        check_gradients(lambda t: F.cross_entropy(t, targets),
                   rng.normal(size=(4, 2, 5)), atol=1e-5)

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_matmul_random_shapes(self, m, k, n):
        local = np.random.default_rng(m * 100 + k * 10 + n)
        w = parameter([local.normal(size=(k, n))])
        check_gradients(lambda t: F.matmul(t, w), local.normal(size=(m, k)))


class TestEngineMechanics:
    def test_grad_accumulates_across_backwards(self):
        w = parameter([np.ones((3, 3))])
        x_arr = rng.normal(size=(2, 3))
        x = from_numpy(x_arr)
        F.sum_all(F.matmul(x, w)).backward()
        first = np.asarray(w.grad[0]).copy()
        x2 = from_numpy(x_arr)
        F.sum_all(F.matmul(x2, w)).backward()
        np.testing.assert_allclose(np.asarray(w.grad[0]), 2 * first)

    def test_shared_input_fanout(self):
        x_arr = rng.normal(size=(3, 3))
        x = from_numpy(x_arr, requires_grad=True)
        y = F.add(F.gelu(x), F.gelu(x))
        F.sum_all(y).backward()

        def f(arr):
            with no_grad():
                t = from_numpy(arr)
                return F.sum_all(F.add(F.gelu(t), F.gelu(t))).item()

        np.testing.assert_allclose(x.grad[0], numerical_grad(f, x_arr), atol=1e-6)

    def test_double_backward_rejected(self):
        x = from_numpy(rng.normal(size=(2, 2)), requires_grad=True)
        loss = F.sum_all(F.gelu(x))
        loss.backward()
        with pytest.raises(AutogradError):
            loss.backward()

    def test_backward_on_leaf_rejected(self):
        x = from_numpy(np.ones((2,)), requires_grad=True)
        with pytest.raises(AutogradError):
            x.backward()

    def test_no_grad_builds_no_graph(self):
        x = from_numpy(np.ones((2,)), requires_grad=True)
        with no_grad():
            y = F.gelu(x)
        assert y._node is None

    def test_detach_cuts_graph(self):
        x = from_numpy(rng.normal(size=(2,)), requires_grad=True)
        y = F.gelu(x).detach()
        assert y._node is None and not y.requires_grad

    def test_free_graph_releases_memory(self):
        from repro.tensor import MemoryTracker, instrument
        mt = MemoryTracker()
        with instrument(memory=mt):
            x = from_numpy(rng.normal(size=(4, 4)), requires_grad=True)
            y = F.gelu(x)
            assert mt.live_bytes(0) > 0
            free_graph(y)
        assert mt.live_bytes(0) == 0

    @pytest.mark.parametrize("world", [1, 4], ids=["concrete", "abstract-world4"])
    def test_backward_after_free_graph_rejected(self, world):
        if world == 1:
            x = from_numpy(rng.normal(size=(2, 3, 4)), requires_grad=True)
            w = parameter([rng.normal(size=(4, 5))])
        else:
            x = abstract((2, 3, 4), world=world, requires_grad=True)
            w = abstract((4, 5), world=world, requires_grad=True)
        y = F.sum_all(F.gelu(F.matmul(x, w)))
        free_graph(y)
        with pytest.raises(AutogradError, match="freed graph"):
            y.backward()
        assert x.grad is None and w.grad is None  # raised before any backward

    def test_unused_output_gets_zero_grad(self):
        x = from_numpy(rng.normal(size=(2, 6)), requires_grad=True)
        a, b, c = F.split(x, 3, axis=-1)
        F.sum_all(b).backward()  # a, c unused
        grad = np.asarray(x.grad[0])
        np.testing.assert_array_equal(grad[:, :2], 0)
        np.testing.assert_array_equal(grad[:, 2:4], 1)
        np.testing.assert_array_equal(grad[:, 4:], 0)

    def test_grad_shard_count_checked(self):
        x = from_numpy(rng.normal(size=(2,)), requires_grad=True)
        y = F.gelu(x)
        with pytest.raises(AutogradError):
            y.backward([np.ones(2), np.ones(2)])  # 2 shards for world-1

    @pytest.mark.parametrize("extra", [1, -1], ids=["extra-shard", "missing-shard"])
    def test_missized_backward_grad_names_the_function(self, extra):
        """A backward whose grad has more or fewer shards than its input
        is a typed error naming the op, not a silently truncated
        accumulation or a later ``IndexError``."""
        from repro.tensor import Function, apply

        class WrongWorld(Function):
            name = "wrong_world"

            def forward(self, fctx, x):
                return [s * 2.0 for s in x]

            def backward(self, fctx, grad):
                return (grad + grad[:1] if extra > 0 else grad[:-1],)

        x = Tensor([rng.normal(size=(3,)) for _ in range(2)], requires_grad=True)
        y = F.sum_all(apply(WrongWorld(), x))
        with pytest.raises(AutogradError, match="wrong_world.*2 shards"):
            y.backward()
        assert x.grad is None

    def test_item_requires_concrete(self):
        t = abstract((2, 2))
        with pytest.raises(AutogradError):
            t.item()

    def test_mismatched_shard_shapes_rejected(self):
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            Tensor([np.zeros((2,)), np.zeros((3,))])


class TestAbstractExecution:
    def test_forward_backward_shapes(self):
        x = abstract((4, 2, 8), world=2, requires_grad=True)
        w = parameter([np.zeros((8, 8))] * 2)  # concrete param, abstract data
        y = F.gelu(F.matmul(x, w))
        y.backward()
        assert x.grad is not None
        from repro.tensor.backend import shape_of
        assert shape_of(x.grad[0]) == (4, 2, 8)

    def test_abstract_softmax_dropout_layernorm(self):
        seed(0)
        x = abstract((4, 2, 8), requires_grad=True)
        gamma = parameter([np.ones(8)])
        beta = parameter([np.zeros(8)])
        y = F.dropout(F.softmax(F.layernorm(x, gamma, beta)), 0.1)
        F.sum_all(y).backward()
        assert x.grad is not None

    def test_operator_sugar(self):
        a = from_numpy(np.full((2, 2), 3.0), requires_grad=True)
        b = from_numpy(np.full((2, 2), 2.0))
        out = (a + b) * 2.0 - b
        assert np.allclose(np.asarray(out.shards[0]), 8.0)
        assert out.reshape(4).shape == (4,)
        assert out.transpose((1, 0)).shape == (2, 2)
