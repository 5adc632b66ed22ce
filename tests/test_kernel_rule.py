"""The kernel rule of :mod:`repro.tensor.backend`: concrete kernels reduce
with ufunc methods and split with basic slices, never through NumPy's
``np.mean`` / ``np.sum`` / ``np.max`` / ``np.split`` wrappers.

The contract is bitwise.  The oracles are the kernels the rule replaced,
kept below verbatim — the ``np.mean`` LayerNorm forward and backward,
``np.split``, the ``np.max`` / ``np.sum`` softmax and the per-request
decode-attention body over ``2B`` private K/V arrays — and every output
and gradient must be ``array_equal`` on generated shapes: ``(1, B, h)``
decode rows, size-1 axes, non-contiguous inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fusion import fused_layernorm
from repro.tensor import FP16, Tensor, from_numpy, no_grad, parameter
from repro.tensor import backend as bk
from repro.tensor import functions as F

EPS = 1e-5


# ---------------------------------------------------------------------------
# The replaced kernels, verbatim
# ---------------------------------------------------------------------------

def layernorm_forward(xi, gi, bi):
    xc = xi - np.mean(xi, axis=-1, keepdims=True)
    var = np.mean(xc * xc, axis=-1, keepdims=True)  # == np.var, bitwise
    return xc / np.sqrt(var + EPS) * gi + bi


def layernorm_backward(g, xi, gi):
    xc = xi - np.mean(xi, axis=-1, keepdims=True)
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + EPS)
    xhat = xc * rstd
    reduce_axes = tuple(range(xi.ndim - 1))
    dgamma = np.sum(g * xhat, axis=reduce_axes)
    dbeta = np.sum(g, axis=reduce_axes)
    dxhat = g * gi
    dx = rstd * (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def softmax_forward(xi):
    shifted = xi - np.max(xi, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_backward(g, yi):
    gy = g * yi
    return gy - yi * np.sum(gy, axis=-1, keepdims=True)


def per_request_attention(num_heads, q, *kv):
    """``DecodeAttention.forward`` over request ``j``'s own ``(n_j, 1, h)``
    keys and values at ``kv[j]`` and ``kv[B + j]``."""
    batch = len(kv) // 2
    a, h = num_heads, bk.shape_of(q[0])[-1]
    d = h // a
    rsqrt_d = 1.0 / math.sqrt(d)
    out = []
    for rank, qi in enumerate(q):
        parts = []
        for j in range(batch):
            qr = qi[:, j:j + 1].reshape(1, 1, a, d).transpose(1, 2, 0, 3)
            kt = kv[j][rank].reshape(-1, 1, a, d).transpose(1, 2, 3, 0)
            vr = kv[batch + j][rank].reshape(-1, 1, a, d).transpose(1, 2, 0, 3)
            scores = (qr @ kt) * rsqrt_d                   # (1,a,1,n_j)
            e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
            ctxt = (e / np.sum(e, axis=-1, keepdims=True)) @ vr
            parts.append(ctxt.transpose(2, 0, 1, 3).reshape(1, 1, h))
        out.append(np.concatenate(parts, axis=1))
    return out


# ---------------------------------------------------------------------------
# Generated operands
# ---------------------------------------------------------------------------

#: The decode step's rows, and small shapes with size-1 axes anywhere.
shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 8), st.sampled_from([8, 32, 128])),
    st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple))
layouts = st.sampled_from(["contiguous", "strided", "transposed"])


def _array(rng, shape, layout):
    """Normal draws of ``shape``: C-contiguous, every other element of a
    last axis twice as long, or the transpose of a reversed-shape array."""
    if layout == "strided":
        return rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).T
    return rng.normal(size=shape)


def _same(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@given(shape=shapes, layout=layouts, seed=st.integers(0, 10_000),
       keepdims=st.booleans(), axes=st.sampled_from(["all", "last", "lead"]))
@settings(max_examples=80, deadline=None)
def test_reductions_are_the_numpy_wrappers_bitwise(shape, layout, seed,
                                                   keepdims, axes):
    x = _array(np.random.default_rng(seed), shape, layout)
    axis = {"all": None, "last": -1, "lead": tuple(range(x.ndim - 1))}[axes]
    assert _same(np.asarray(bk.sum_(x, axis=axis, keepdims=keepdims)),
                 np.asarray(np.sum(x, axis=axis, keepdims=keepdims)))
    assert _same(np.asarray(bk.max_(x, axis=axis, keepdims=keepdims)),
                 np.asarray(np.max(x, axis=axis, keepdims=keepdims)))
    assert _same(np.asarray(bk.mean(x, axis=axis, keepdims=keepdims)),
                 np.asarray(np.mean(x, axis=axis, keepdims=keepdims)))
    # what CrossEntropy negates and wraps: a float64 scalar either way
    assert type(bk.mean(x)) is type(np.mean(x))


@given(shape=shapes, layout=layouts, seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("op", [F.layernorm, fused_layernorm])
def test_layernorm_forward_and_backward(op, shape, layout, seed):
    # The fused op is bitwise the unfused chain on row-major operands only
    # (it normalises into a C-ordered buffer), before this rule as after.
    assume(op is F.layernorm or layout != "transposed")
    rng = np.random.default_rng(seed)
    xi, g = _array(rng, shape, layout), _array(rng, shape, layout)
    gi, bi = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    x = from_numpy(xi, requires_grad=True)
    gamma, beta = parameter([gi]), parameter([bi])
    y = op(x, gamma, beta, EPS)
    assert _same(y.shards[0], layernorm_forward(xi, gi, bi))
    y.backward([g])
    dx, dgamma, dbeta = layernorm_backward(g, xi, gi)
    assert _same(x.grad[0], dx)
    assert _same(gamma.grad[0], dgamma)
    assert _same(beta.grad[0], dbeta)


@given(shape=shapes, layout=layouts, seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_softmax_forward_and_backward(shape, layout, seed):
    rng = np.random.default_rng(seed)
    xi, g = _array(rng, shape, layout), _array(rng, shape, layout)
    x = from_numpy(xi, requires_grad=True)
    y = F.softmax(x)
    want = softmax_forward(xi)
    assert _same(y.shards[0], want)
    y.backward([g])
    assert _same(x.grad[0], softmax_backward(g, want))


@given(shape=shapes, layout=layouts, seed=st.integers(0, 10_000),
       sections=st.integers(1, 4), axis=st.integers(-2, 1))
@settings(max_examples=80, deadline=None)
def test_split_is_np_split(shape, layout, seed, sections, axis):
    """Same values in views of the same memory with the same strides."""
    shape = list(shape)
    shape[axis] *= sections
    x = _array(np.random.default_rng(seed), tuple(shape), layout)
    got, want = bk.split(x, sections, axis), np.split(x, sections, axis=axis)
    assert len(got) == len(want) == sections
    for piece, ref in zip(got, want):
        assert _same(piece, ref) and piece.strides == ref.strides
        assert piece.base is not None and np.shares_memory(piece, x)
        assert (piece.__array_interface__["data"]
                == ref.__array_interface__["data"])


@given(batch=st.integers(1, 8), world=st.sampled_from([1, 2]),
       heads=st.sampled_from([1, 2, 4]), head_dim=st.sampled_from([1, 4, 16]),
       seed=st.integers(0, 10_000), fused_qkv=st.booleans())
@settings(max_examples=60, deadline=None)
def test_decode_attention_is_the_per_request_body(batch, world, heads,
                                                  head_dim, seed, fused_qkv):
    """Flat ragged K/V with lengths against ``2B`` private tensors; ``q``
    contiguous or, as in the engine, a strided third of a fused QKV row."""
    rng = np.random.default_rng(seed)
    h = heads * head_dim
    lengths = [int(n) for n in rng.integers(1, 14, size=batch)]
    if fused_qkv:
        q = [rng.normal(size=(1, batch, 3 * h))[..., :h] for _ in range(world)]
    else:
        q = [rng.normal(size=(1, batch, h)) for _ in range(world)]
    flat_k = [rng.normal(size=(sum(lengths), 1, h)) for _ in range(world)]
    flat_v = [rng.normal(size=(sum(lengths), 1, h)) for _ in range(world)]
    stops = np.cumsum(lengths)
    private = [[[flat[rank][stop - n:stop].copy() for rank in range(world)]
                for n, stop in zip(lengths, stops)]
               for flat in (flat_k, flat_v)]
    want = per_request_attention(heads, q, *private[0], *private[1])
    with no_grad():
        got = F.decode_attention(heads, Tensor(q, dtype=FP16),
                                 Tensor(flat_k, dtype=FP16),
                                 Tensor(flat_v, dtype=FP16), lengths)
    assert got.world == world
    for rank in range(world):
        assert _same(got.shards[rank], want[rank])
