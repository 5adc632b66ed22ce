"""Differentiable operations.

Each operation documents what it **saves** for backward, because saved
tensors are exactly what the paper's Section 4 accounting counts.  The
mapping to the paper's per-layer bytes (Table 2 terms):

========================  =============================================
``matmul``                saves both operands (parameters uncharged)
``softmax``               saves its output (the ``2as^2b`` term)
``dropout``               saves only the 1-byte keep mask
``gelu``                  saves its input (the ``8sbh`` MLP term)
``layernorm``             saves only its input; mean/variance are
                          recomputed in backward (the paper drops the
                          ``2sb`` statistics terms as negligible; we make
                          the accounting exact instead of approximate)
``cross_entropy``         saves the fp32 logits (the ``4sbv`` term)
========================  =============================================
"""

from __future__ import annotations

import itertools
import math
import operator
import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from . import backend as bk
from .context import ctx
from .dtypes import FP16, FP32, MASK, DType
from .tensor import (FnCtx, Function, ShardList, Tensor, apply, elementwise, gemm, map_shards,
                     per_element, same_shape)


def _unbroadcast(grad: bk.ArrayLike, target_shape) -> bk.ArrayLike:
    """Reduce ``grad`` back to ``target_shape`` (reverse of broadcasting).

    One fused reduction over every broadcast axis (leading and size-1
    alike), then a free reshape — never materialises an intermediate
    partially-reduced array.
    """
    gshape = bk.shape_of(grad)
    target = tuple(target_shape)
    if gshape == target:
        return grad
    extra = len(gshape) - len(target)
    axes = tuple(range(extra)) + tuple(
        extra + i for i, t in enumerate(target) if t == 1 and gshape[extra + i] != 1
    )
    if axes:
        grad = bk.sum_(grad, axis=axes)
    return bk.reshape(grad, target)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

class Add(Function):
    """Broadcasting addition. Saves nothing."""

    name = "add"
    backward_cost = per_element("add.bwd", 4, 1)

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        n = math.prod(bk.broadcast_shape(*shapes))  # a scalar ``b`` (shape None) is 0-d
        reads = sum(math.prod(s) * w for s, w in zip(shapes, widths) if w is not None)
        return (elementwise("add", reads + n * 2, n),)

    def forward(self, fctx: FnCtx, a: ShardList, b) -> ShardList:
        tensor_b = isinstance(b, list)
        fctx.misc["shapes"] = (bk.shape_of(a[0]), bk.shape_of(b[0]) if tensor_b else None)
        return map_shards(operator.add, a, b) if tensor_b else map_shards(lambda x: x + b, a)

    def backward(self, fctx: FnCtx, grad: ShardList):
        a_shape, b_shape = fctx.misc["shapes"]
        ga = map_shards(lambda g: _unbroadcast(g, a_shape), grad)
        gb = None if b_shape is None else map_shards(lambda g: _unbroadcast(g, b_shape), grad)
        return ga, gb


class Mul(Function):
    """Broadcasting multiply by a tensor (saves both operands) or by a
    scalar, which has no width and saves and records nothing."""

    name = "mul"

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        n = math.prod(bk.broadcast_shape(*shapes))
        return (elementwise("mul", 4 * n, n),) if widths[1] else ()

    def backward_cost(self, fctx: FnCtx, shapes, widths):
        n = math.prod(shapes[0])
        return (elementwise("mul.bwd", 4 * n, 2 * n),) if widths[1] else ()

    def forward(self, fctx: FnCtx, a: ShardList, b) -> ShardList:
        if not isinstance(b, list):
            # Scalar scaling is folded into the adjacent GEMM/softmax kernel
            # (Megatron's fused scale-mask-softmax); no memory traffic.
            fctx.misc["scalar"] = float(b)
            return map_shards(lambda x: x * b, a)
        fctx.misc["a_slot"] = fctx.save_input(0)
        fctx.misc["b_slot"] = fctx.save_input(1)
        fctx.misc["shapes"] = (bk.shape_of(a[0]), bk.shape_of(b[0]))
        return map_shards(operator.mul, a, b)

    def backward(self, fctx: FnCtx, grad: ShardList):
        if "scalar" in fctx.misc:
            c = fctx.misc["scalar"]
            return (map_shards(lambda g: g * c, grad), None)
        a = fctx.saved(fctx.misc["a_slot"])
        b = fctx.saved(fctx.misc["b_slot"])
        a_shape, b_shape = fctx.misc["shapes"]
        return (map_shards(lambda g, y: _unbroadcast(g * y, a_shape), grad, b),
                map_shards(lambda g, x: _unbroadcast(g * x, b_shape), grad, a))


def add(a: Tensor, b) -> Tensor:
    return apply(Add(), a, b)


def mul(a: Tensor, b) -> Tensor:
    return apply(Mul(), a, b)


def scale(a: Tensor, c: float) -> Tensor:
    return apply(Mul(), a, float(c))


class Matmul(Function):
    """``x @ w``: linear (``w`` 2-D) or batched (``w.ndim == x.ndim``).

    Saves both operands — the paper's "the linear projection stores its
    input activations" and "QK^T requires storage of both Q and K".
    Parameters are saved but not charged to activation memory.
    Backward performs two GEMMs of the forward's FLOP count each (the
    "backward pass requires double the number of FLOPs" of Appendix A).
    """

    name = "matmul"

    def __init__(self, category: str = "activation"):
        self.category = category

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        (x, w), (wx, ww) = shapes, widths
        n = math.prod(bk.matmul_shape(x, w))
        return (gemm(f"matmul[{self.category}]", 2.0 * n * x[-1],
                     math.prod(x) * wx + math.prod(w) * ww + n * 2),)

    def backward_cost(self, fctx: FnCtx, shapes, widths):
        flops = 2.0 * math.prod(shapes[0]) * fctx.misc["shapes"][0][-1]  # the forward's
        return (gemm(f"matmul[{self.category}].dgrad", flops),
                gemm(f"matmul[{self.category}].wgrad", flops))

    def forward(self, fctx: FnCtx, x: ShardList, w: ShardList) -> ShardList:
        x_shape, w_shape = bk.shape_of(x[0]), bk.shape_of(w[0])
        out_shape = bk.matmul_shape(x_shape, w_shape)  # a mismatch: ShapeError, before any save
        fctx.misc["x_slot"] = fctx.save_input(0, category=self.category)
        fctx.misc["w_slot"] = fctx.save_input(1, category=self.category)
        fctx.misc["shapes"] = (x_shape, w_shape)
        # A linear layer on (..., k) activations runs as one 2-D GEMM, not
        # NumPy's loop of small ones over the leading dims.
        flat = fctx.misc["flat"] = len(w_shape) == 2 and len(x_shape) > 2
        kernel = ((lambda xi, wi: (xi.reshape(-1, w_shape[0]) @ wi).reshape(out_shape))
                  if flat else operator.matmul)
        return map_shards(kernel, x, w, shape=bk.matmul_shape)

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        w = fctx.saved(fctx.misc["w_slot"])
        x_shape, w_shape = fctx.misc["shapes"]
        flat = fctx.misc["flat"]

        def _grads(g, xi, wi):
            if len(w_shape) != 2:  # batched
                return (_unbroadcast(g @ bk.swap_last_two(wi), x_shape),
                        _unbroadcast(bk.swap_last_two(xi) @ g, w_shape))
            k, n = w_shape  # linear: x (..., k) @ w (k, n)
            dx = (g.reshape(-1, n) @ wi.T).reshape(x_shape) if flat else g @ bk.swap_last_two(wi)
            return _unbroadcast(dx, x_shape), np.reshape(xi, (-1, k)).T @ np.reshape(g, (-1, n))

        return map_shards(_grads, grad, x, w, shape=lambda *_: [x_shape, w_shape])


def matmul(x: Tensor, w: Tensor, category: str = "activation") -> Tensor:
    return apply(Matmul(category=category), x, w)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

class Reshape(Function):
    """Free (a view); saves only the input shape."""

    name = "reshape"

    def __init__(self, shape):
        self.shape = tuple(shape)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["in_shape"] = bk.shape_of(x[0])
        return map_shards(lambda xi: bk.reshape(xi, self.shape), x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        in_shape = fctx.misc["in_shape"]
        return (map_shards(lambda g: bk.reshape(g, in_shape), grad),)


class Transpose(Function):
    """Axis permutation.  Free: real implementations express permutations
    as strided batched-GEMM layouts rather than materialized copies."""

    name = "transpose"

    def __init__(self, axes: Sequence[int]):
        self.axes = tuple(axes)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        return map_shards(lambda xi: bk.transpose(xi, self.axes), x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        inverse = tuple(sorted(range(len(self.axes)), key=self.axes.__getitem__))
        return (map_shards(lambda g: bk.transpose(g, inverse), grad),)


class Split(Function):
    """Split into equal sections along an axis (multi-output)."""

    name = "split"

    def __init__(self, sections: int, axis: int):
        self.sections = sections
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList):
        return map_shards(lambda xi: tuple(bk.split(xi, self.sections, self.axis)), x)

    def backward(self, fctx: FnCtx, *grads: ShardList):
        return (map_shards(lambda *g: bk.concatenate(g, self.axis), *grads),)


class Concat(Function):
    """Concatenate tensors along an axis."""

    name = "concat"

    def __init__(self, axis: int):
        self.axis = axis

    def forward(self, fctx: FnCtx, *parts: ShardList) -> ShardList:
        fctx.misc["sizes"] = [bk.shape_of(p[0])[self.axis] for p in parts]
        return map_shards(lambda *p: bk.concatenate(p, self.axis), *parts)

    def backward(self, fctx: FnCtx, grad: ShardList):
        stops = list(itertools.accumulate(fctx.misc["sizes"]))
        spans = list(zip([0] + stops[:-1], stops))
        return map_shards(
            lambda g: tuple(bk.slice_axis(g, self.axis, a, b) for a, b in spans), grad)


def reshape(x: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return apply(Reshape(shape), x)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    return apply(Transpose(axes), x)


def split(x: Tensor, sections: int, axis: int):
    return apply(Split(sections, axis), x)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    return apply(Concat(axis), *parts)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(z: np.ndarray, t: np.ndarray) -> None:
    """``tanh(C*(z + 0.044715*z^3))`` into ``t``.  ``z^3`` is a multiply
    chain: NumPy's ``z**3`` takes the scalar ``pow`` path, ~75x slower."""
    np.multiply(z, z, out=t)
    np.multiply(t, z, out=t)
    np.multiply(t, 0.044715, out=t)
    np.add(t, z, out=t)
    np.multiply(t, _GELU_C, out=t)
    np.tanh(t, out=t)


#: Elements per block (float64: 128 KiB) when GeLU streams an operand.
#: With no scratch lent, an operand of more than one block runs block by
#: block through block-sized scratch: full-size scratch (backward's three
#: buffers of the saved ``8sbh`` input) would be a training step's largest
#: transient and set its host high-water; a block's stays in L2.  The
#: kernel is elementwise, so every element sees the same operations.
_GELU_BLOCK = 16 * 1024


def _gelu_blocks(arrays, scratch: int):
    """Runs of at most ``_GELU_BLOCK`` elements of the flattened ``arrays``
    (the operands, then the output), each followed by that many elements
    of ``scratch`` block-sized buffers."""
    flat = [a.reshape(-1) for a in arrays]
    buffers = [np.empty(_GELU_BLOCK) for _ in range(scratch)]
    size = flat[0].size
    for start in range(0, size, _GELU_BLOCK):
        stop = min(start + _GELU_BLOCK, size)
        yield [a[start:stop] for a in flat] + [b[:stop - start] for b in buffers]


def _gelu_fwd(z: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """``0.5*z*(1 + tanh(...))`` into a fresh array: the one GeLU forward
    kernel, behind ``Gelu`` and ``fusion.ops.BiasGelu`` alike.  ``t`` is a
    scratch buffer of ``z``'s shape; with none lent, it is allocated here,
    one block's worth when ``z`` holds more than ``_GELU_BLOCK`` elements."""
    y = np.empty(z.shape)
    if t is None and z.size > _GELU_BLOCK:
        blocks = _gelu_blocks((z, y), 1)
    else:
        blocks = ((z, y, np.empty(z.shape) if t is None else t),)
    for zb, yb, tb in blocks:
        _gelu_tanh(zb, tb)
        np.add(tb, 1.0, out=tb)
        np.multiply(tb, zb, out=yb)
        np.multiply(yb, 0.5, out=yb)
    return y


def _gelu_bwd(z: np.ndarray, g: np.ndarray, scratch=None) -> np.ndarray:
    """``g * dgelu/dz`` into a fresh array, from the saved input alone.

    ``tanh`` is recomputed rather than kept from forward: the op saves
    only its input (the ``8sbh`` term).  ``scratch`` is three buffers of
    ``z``'s shape; with none lent, they are allocated here, one block's
    worth each when ``z`` holds more than ``_GELU_BLOCK`` elements.
    """
    d = np.empty(z.shape)
    if scratch is None and z.size > _GELU_BLOCK:
        blocks = _gelu_blocks((z, g, d), 3)
    else:
        blocks = ((z, g, d, *(scratch or [np.empty(z.shape) for _ in range(3)])),)
    for zb, gb, db, t, u, v in blocks:
        _gelu_tanh(zb, t)
        np.multiply(t, t, out=u)
        np.subtract(1.0, u, out=u)        # sech^2
        np.multiply(zb, zb, out=v)        # d_inner = C*(1 + 3*0.044715*z^2)
        np.multiply(v, 3 * 0.044715, out=v)
        np.add(v, 1.0, out=v)
        np.multiply(v, _GELU_C, out=v)
        np.multiply(u, v, out=u)
        np.multiply(u, zb, out=u)
        np.multiply(u, 0.5, out=u)        # 0.5 * z * sech^2 * d_inner
        np.add(t, 1.0, out=t)
        np.multiply(t, 0.5, out=t)        # 0.5 * (1 + tanh)
        np.add(t, u, out=t)               # dgelu/dz
        np.multiply(gb, t, out=db)
    return d


class Gelu(Function):
    """Tanh-approximated GeLU (the Megatron-LM variant). Saves its input."""

    name = "gelu"
    forward_cost = per_element("gelu", lambda width: 2 * width, 8)
    backward_cost = per_element("gelu.bwd", 6, 16)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category="gelu_input")
        return map_shards(_gelu_fwd, x, shape=same_shape)

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        return (map_shards(_gelu_bwd, x, grad, shape=same_shape),)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - bk.max_(x, axis=-1, keepdims=True))
    return e / bk.sum_(e, axis=-1, keepdims=True)


def _softmax_bwd(g: bk.ArrayLike, y: bk.ArrayLike) -> bk.ArrayLike:
    gy = g * y
    return gy - y * bk.sum_(gy, axis=-1, keepdims=True)


class Softmax(Function):
    """Softmax over the last axis.

    Saves its **output** — the paper's "softmax output with size 2as^2b is
    required for back-propagation".
    """

    name = "softmax"
    forward_cost = per_element("softmax", 4, 5)
    backward_cost = per_element("softmax.bwd", 6, 4)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        out = map_shards(_softmax, x, shape=same_shape)
        fctx.misc["y_slot"] = fctx.save_new(out, FP16, category="softmax_output")
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        y = fctx.saved(fctx.misc["y_slot"])
        return (map_shards(_softmax_bwd, grad, y),)


def gelu(x: Tensor) -> Tensor:
    return apply(Gelu(), x)


def softmax(x: Tensor) -> Tensor:
    return apply(Softmax(), x)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

class MaskSource:
    """Deterministic full-tensor dropout masks, for cross-layout equivalence.

    ``full_mask(tag, shape)`` returns the same boolean mask for the same
    ``tag`` regardless of how the caller shards it, so a serial model, a
    tensor-parallel model and a tensor+sequence-parallel model can apply
    *identical* dropout and be compared bit-for-bit.
    """

    def __init__(self, seed: int, keep_prob: float):
        self.seed = seed
        self.keep_prob = keep_prob
        # Masks are a pure function of (tag, shape), so caching is free of
        # determinism hazards and spares regenerating them on every
        # checkpoint replay / microbatch within a step.
        self._cache: dict = {}

    def full_mask(self, tag: str, shape) -> np.ndarray:
        key = (tag, tuple(shape))
        mask = self._cache.get(key)
        if mask is None:
            # zlib.crc32, not hash(): the builtin is salted per process,
            # which would make "deterministic" masks differ across runs.
            tag_seed = (zlib.crc32(tag.encode()) ^ self.seed) & 0x7FFFFFFF
            rng = np.random.default_rng(tag_seed)
            mask = rng.random(shape) < self.keep_prob
            self._cache[key] = mask
        return mask

    def clear_cache(self) -> None:
        self._cache.clear()


class Dropout(Function):
    """Inverted dropout; saves only the 1-byte keep mask.

    ``mode``:

    * ``"replicated"`` — every rank applies the same mask (the TP-without-SP
      regions of Figure 4, where activations are replicated across the
      tensor-parallel group and each rank redundantly stores the mask).
    * ``"sharded"`` — each rank's shard is slice ``rank`` of the full tensor
      along ``shard_axis``; masks are drawn per rank (or sliced from a
      :class:`MaskSource` for equivalence testing).

    The fused dropout ops hold one for its checks and its :meth:`masks`.
    """

    name = "dropout"
    forward_cost = per_element("dropout", lambda width: 2 * width + 1, 2)
    backward_cost = per_element("dropout.bwd", 5, 2)

    def __init__(self, p: float, mode: str = "replicated", shard_axis: int = 0,
                 tag: str = "", mask_source: Optional[MaskSource] = None):
        if not (0.0 <= p < 1.0):
            raise ShapeError(f"dropout p must be in [0, 1), got {p}")
        if mode not in ("replicated", "sharded"):
            raise ShapeError(f"unknown dropout mode {mode!r}")
        self.p = p
        self.mode = mode
        self.shard_axis = shard_axis
        self.tag = tag
        self.mask_source = mask_source
        if self.identity:  # a pass-through moves no bytes
            self.forward_cost = self.backward_cost = None

    @property
    def identity(self) -> bool:
        """``p == 0`` with no mask source: the op passes its input through."""
        return self.p == 0.0 and self.mask_source is None

    def masks(self, x: ShardList) -> ShardList:
        """One keep mask per rank of ``x``, drawn in rank order: the one
        draw sequence behind every dropout, fused or not, so equal seeds
        give equal mask bits.  An abstract mask is one shared instance."""
        keep, world, shape, rng = 1.0 - self.p, len(x), bk.shape_of(x[0]), ctx().rng
        if bk.is_abstract(x[0]):
            return [bk.bernoulli_mask(shape, keep, rng, True)] * world
        if self.mode == "replicated":
            if self.mask_source is not None:
                return [self.mask_source.full_mask(self.tag, shape)] * world
            return [bk.bernoulli_mask(shape, keep, rng, False)] * world
        if self.mask_source is None:
            return [bk.bernoulli_mask(shape, keep, rng, False) for _ in range(world)]
        # rank r's shard is slice r of the full tensor along shard_axis
        n = shape[self.shard_axis]
        full = self.mask_source.full_mask(self.tag, bk.tiled_shape(shape, world, self.shard_axis))
        return [bk.slice_axis(full, self.shard_axis, r * n, (r + 1) * n) for r in range(world)]

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        if self.identity:
            return list(x)
        keep = 1.0 - self.p
        masks = self.masks(x)
        fctx.misc["mask_slot"] = fctx.save_new(masks, MASK, category="dropout_mask")
        return map_shards(lambda xi, m: xi * m / keep, x, masks)

    def backward(self, fctx: FnCtx, grad: ShardList):
        if self.identity:
            return (list(grad),)
        masks = fctx.saved(fctx.misc["mask_slot"])
        keep = 1.0 - self.p
        return (map_shards(lambda g, m: g * m / keep, grad, masks),)


def dropout(x: Tensor, p: float, mode: str = "replicated", shard_axis: int = 0,
            tag: str = "", mask_source: Optional[MaskSource] = None) -> Tensor:
    return apply(Dropout(p, mode=mode, shard_axis=shard_axis, tag=tag,
                         mask_source=mask_source), x)


class LayerNorm(Function):
    """Layer normalization over the last axis.

    Saves only its input (the paper's ``2sbh``); the mean and inverse
    standard deviation are recomputed from the input during backward, which
    makes the accounting exact rather than "exact up to a 2sb term".
    """

    name = "layernorm"
    forward_cost = per_element("layernorm", lambda width: 2 * width, 8)
    backward_cost = per_element("layernorm.bwd", 8, 14)

    def __init__(self, eps: float = 1e-5):
        self.eps = eps

    def forward(self, fctx: FnCtx, x: ShardList, gamma: ShardList, beta: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category="layernorm_input")
        fctx.misc["gamma_slot"] = fctx.save_input(1)
        return map_shards(self._norm, x, gamma, beta, shape=same_shape)

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        gamma = fctx.saved(fctx.misc["gamma_slot"])
        return map_shards(self._grads, grad, x, gamma, shape=lambda g, x, gamma: [x, gamma, gamma])

    def _norm(self, x, gamma, beta):
        xc = x - bk.mean(x, axis=-1, keepdims=True)
        var = bk.mean(xc * xc, axis=-1, keepdims=True)  # == np.var, bitwise
        return xc / np.sqrt(var + self.eps) * gamma + beta

    def _grads(self, g, x, gamma):
        xc = x - bk.mean(x, axis=-1, keepdims=True)
        var = bk.mean(xc * xc, axis=-1, keepdims=True)
        rstd = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * rstd
        reduce_axes = tuple(range(x.ndim - 1))
        dxhat = g * gamma
        dx = rstd * (dxhat - bk.mean(dxhat, axis=-1, keepdims=True)
                     - xhat * bk.mean(dxhat * xhat, axis=-1, keepdims=True))
        return dx, bk.sum_(g * xhat, axis=reduce_axes), bk.sum_(g, axis=reduce_axes)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    return apply(LayerNorm(eps), x, gamma, beta)


class EmbeddingLookup(Function):
    """Row gather ``weight[ids]``. Saves the (tiny, integer) ids."""

    name = "embedding"

    def forward(self, fctx: FnCtx, weight: ShardList, ids: ShardList) -> ShardList:
        fctx.misc["ids_slot"] = fctx.save_input(1, category="embedding_ids")
        fctx.misc["w_shape"] = bk.shape_of(weight[0])
        return map_shards(bk.take_rows, weight, ids, shape=lambda w, i: i + w[1:])

    def backward(self, fctx: FnCtx, grad: ShardList):
        ids = fctx.saved(fctx.misc["ids_slot"])
        w_shape = fctx.misc["w_shape"]
        return map_shards(lambda g, i: bk.index_add_rows(w_shape, i, g), grad, ids,
                          shape=lambda *_: w_shape), None


def embedding(weight: Tensor, ids: Tensor) -> Tensor:
    return apply(EmbeddingLookup(), weight, ids)


# ---------------------------------------------------------------------------
# Casts and reductions
# ---------------------------------------------------------------------------

class Cast(Function):
    """Accounting-dtype change (e.g. fp16 logits -> fp32 before the loss)."""

    name = "cast"

    def __init__(self, dtype: DType):
        self.dtype = dtype

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        return (elementwise("cast", (widths[0] + self.dtype.nbytes) * math.prod(shapes[0])),)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.out_dtypes = [self.dtype]
        return map_shards(lambda xi: xi.copy(), x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        return (list(grad),)


class SumAll(Function):
    """Sum of all elements -> scalar (per rank). Saves only the shape."""

    name = "sum_all"

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["shape"] = bk.shape_of(x[0])
        return map_shards(bk.sum_, x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        shape = fctx.misc["shape"]
        return (map_shards(lambda g: np.broadcast_to(np.asarray(g, np.float64), shape).copy(),
                           grad, shape=lambda _: shape),)


def cast(x: Tensor, dtype: DType) -> Tensor:
    return apply(Cast(dtype), x)


def sum_all(x: Tensor) -> Tensor:
    return apply(SumAll(), x)


# ---------------------------------------------------------------------------
# Cross-entropy loss (serial; the vocab-parallel version lives in
# repro.parallel.loss and uses collectives)
# ---------------------------------------------------------------------------

def _xent(logits, targets, mask=None):
    """One shard's token-mean cross entropy (the masked mean under a
    ``mask``), behind ``CrossEntropy`` and ``fusion.ops.SoftmaxCrossEntropy``."""
    shifted = logits - bk.max_(logits, axis=-1, keepdims=True)
    logz = np.log(bk.sum_(np.exp(shifted), axis=-1, keepdims=True))
    picked = np.take_along_axis(shifted - logz, targets.astype(np.int64)[..., None],
                                axis=-1)[..., 0]
    if mask is None:
        return np.asarray(-bk.mean(picked))
    m = np.asarray(mask, dtype=np.float64)
    denom = m.sum()
    if denom == 0:
        raise ShapeError("loss_mask masks out every token")
    return np.asarray(-(picked * m).sum() / denom)


def _xent_grad(g, logits, targets, mask=None):
    """``_xent``'s gradient with respect to the logits."""
    dz = _softmax(logits) - bk.one_hot_rows(targets, logits.shape[-1])
    scale_num = np.asarray(g, dtype=np.float64)
    if mask is None:
        return dz * (scale_num / bk.size_of(targets))
    m = np.asarray(mask, dtype=np.float64)
    return dz * m[..., None] * (scale_num / m.sum())


class CrossEntropy(Function):
    """Token-mean cross entropy from logits, with optional loss masking.

    Saves the logits at their accounting dtype (cast them to fp32 first to
    reproduce the paper's ``4sbv`` logits term) and the target ids.  When
    a ``loss_mask`` is supplied (1.0 = count the token, 0.0 = ignore, e.g.
    padding), the loss is the masked mean and masked positions receive
    zero gradient — Megatron's loss-mask semantics.
    """

    name = "cross_entropy"

    def __init__(self, has_mask: bool = False):
        self.has_mask = has_mask

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        n = math.prod(shapes[0])  # the loss math is negligible next to the logits GEMM
        return (gemm("cross_entropy", 0, 0), elementwise("cross_entropy", 4 * n, 5 * n))

    def forward(self, fctx: FnCtx, logits: ShardList, targets: ShardList,
                mask: Optional[ShardList] = None) -> ShardList:
        fctx.misc["logits_slot"] = fctx.save_input(0, category="logits")
        fctx.misc["targets_slot"] = fctx.save_input(1, category="targets")
        if self.has_mask:
            fctx.misc["mask_slot"] = fctx.save_input(2, category="loss_mask")
        fctx.out_dtypes = [FP32]
        return map_shards(_xent, logits, targets, *([mask] if self.has_mask else []),
                          shape=lambda *_: ())

    def backward(self, fctx: FnCtx, grad: ShardList):
        return _xent_backward(fctx, grad, self.has_mask)


def _xent_backward(fctx: FnCtx, grad: ShardList, has_mask: bool) -> tuple:
    """The cross-entropy backward from the logits, targets (and mask)
    saved in ``fctx``'s ``logits_slot``, ``targets_slot`` (``mask_slot``)."""
    slots = ("logits_slot", "targets_slot", "mask_slot")[:3 if has_mask else 2]
    dlogits = map_shards(_xent_grad, grad, *[fctx.saved(fctx.misc[k]) for k in slots],
                         shape=lambda g, logits, *_: logits)
    return (dlogits, None, None) if has_mask else (dlogits, None)


def cross_entropy(logits: Tensor, targets: Tensor,
                  loss_mask: Optional[Tensor] = None) -> Tensor:
    """(Masked) mean cross-entropy; ``logits`` should already be fp32."""
    if loss_mask is None:
        return apply(CrossEntropy(), logits, targets)
    return apply(CrossEntropy(has_mask=True), logits, targets, loss_mask)


# ---------------------------------------------------------------------------
# Causal attention mask
# ---------------------------------------------------------------------------

#: (keep, ~keep) boolean masks per (rows, cols, diagonal offset), shared
#: with the fused softmax kernel in :mod:`repro.fusion.ops`.  Read-only.
_TRIL_CACHE: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _offset_keep(rows: int, cols: int,
                 offset: int) -> Tuple[np.ndarray, np.ndarray]:
    """Causal keep mask shifted ``offset`` columns right, and its inverse."""
    key = (rows, cols, offset)
    pair = _TRIL_CACHE.get(key)
    if pair is None:
        keep = np.tril(np.ones((rows, cols), dtype=bool), k=offset)
        pair = (keep, ~keep)
        for mask in pair:
            mask.flags.writeable = False
        _TRIL_CACHE[key] = pair
    return pair


def _causal_keep(shape) -> Tuple[np.ndarray, np.ndarray]:
    return _offset_keep(shape[-2], shape[-1], 0)


class CausalMask(Function):
    """Masks future positions of an attention-score tensor ``(..., s, s)``.

    The mask is a deterministic function of the shape, so nothing is saved
    and it is looked up again in backward — matching Megatron's fused
    scale-mask-softmax kernel, whose mask never occupies activation memory
    (and matching the paper's accounting, which has no mask term for it).
    """

    name = "causal_mask"

    MASKED_VALUE = -1e9
    forward_cost = per_element("causal_mask", 2)  # fused with the softmax in practice

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        shape = bk.shape_of(x[0])
        if len(shape) < 2 or shape[-1] != shape[-2]:
            raise ShapeError(f"causal mask needs (..., s, s) scores, got {shape}")
        return map_shards(lambda xi: np.where(_causal_keep(xi.shape)[0], xi, self.MASKED_VALUE),
                          x, shape=same_shape)

    def backward(self, fctx: FnCtx, grad: ShardList):
        return (map_shards(lambda g: g * _causal_keep(g.shape)[0], grad, shape=same_shape),)


def causal_mask(x: Tensor) -> Tensor:
    return apply(CausalMask(), x)


class OffsetCausalMask(Function):
    """Causal mask for *row-blocked* scores ``(..., s/w, s)``.

    Ring attention (:mod:`repro.longctx`) computes each rank's query rows
    against the full key sequence, so rank ``r``'s score panel holds
    global rows ``[r*s/w, (r+1)*s/w)``: row ``i`` of rank ``r`` may attend
    to columns ``<= r*s/w + i``, i.e. a tril shifted by ``r*s/w``.  With
    ``w == 1`` this is exactly :class:`CausalMask`.  Like it, the mask is
    a pure function of (shape, rank) — nothing is saved.  It reads the
    rank, so it keeps its own rank loop instead of a :func:`map_shards`
    kernel.
    """

    name = "offset_causal_mask"

    MASKED_VALUE = CausalMask.MASKED_VALUE
    forward_cost = per_element("offset_causal_mask", 2)

    @staticmethod
    def _keep(shape, rank: int) -> np.ndarray:
        return _offset_keep(*shape[-2:], rank * shape[-2])[0]

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        shape = bk.shape_of(x[0])
        if len(shape) < 2 or shape[-1] != shape[-2] * len(x):
            raise ShapeError(
                f"offset causal mask needs (..., s/w, s) scores across "
                f"w={len(x)} shards, got {shape}")
        if bk.is_abstract(x[0]):
            return [bk.shaped(shape)] * len(x)
        return [np.where(self._keep(shape, r), xi, self.MASKED_VALUE)
                for r, xi in enumerate(x)]

    def backward(self, fctx: FnCtx, grad: ShardList):
        shape = bk.shape_of(grad[0])
        if bk.is_abstract(grad[0]):
            return ([bk.shaped(shape)] * len(grad),)
        return ([g * self._keep(shape, r) for r, g in enumerate(grad)],)


def offset_causal_mask(x: Tensor) -> Tensor:
    return apply(OffsetCausalMask(), x)


class SliceAxis(Function):
    """``x[start:stop]`` along ``axis`` (position embeddings of short
    sequences); backward zero-pads to the input shape.  Saves nothing."""

    name = "slice_axis"

    def __init__(self, axis: int, start: int, stop: int):
        self.axis = axis
        self.start = start
        self.stop = stop

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["in_shape"] = bk.shape_of(x[0])
        return map_shards(lambda xi: bk.slice_axis(xi, self.axis, self.start, self.stop), x)

    def backward(self, fctx: FnCtx, grad: ShardList):
        in_shape = fctx.misc["in_shape"]
        return (map_shards(lambda g: self._pad(g, in_shape), grad, shape=lambda _: in_shape),)

    def _pad(self, g, in_shape):
        full = np.zeros(in_shape, dtype=np.float64)
        index = [slice(None)] * len(in_shape)
        index[self.axis % len(in_shape)] = slice(self.start, self.stop)
        full[tuple(index)] = g
        return full


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    return apply(SliceAxis(axis, start, stop), x)


class DecodeAttention(Function):
    """One-query attention of a ragged decode batch over its cached K/V,
    the whole batch in one application — the serving engine's one launch
    per layer per step, as a paged-attention kernel makes.  No mask (a cache holds only
    past positions); forward-only (decoding runs under ``no_grad``), so
    it saves nothing.

    Takes the ``(1, B, h)`` queries and the batch's cached keys and
    values flat and ragged, ``(sum n_j, 1, h)`` each: request ``j`` owns
    ``lengths[j]`` consecutive rows.  Shapes are per shard, so it serves
    the serial model (``a`` heads on ``h``) and tensor-parallel ranks
    (``a/t`` on ``h/t``).  Each request keeps its own ``(a, 1, n_j)``
    score panel over its row slice: padding the batch to one
    ``(B, a, 1, n_max)`` operand would hand BLAS other shapes, and the
    logits would no longer be bitwise those of per-request attention.
    """

    name = "decode_attention"

    def __init__(self, num_heads: int, lengths: Sequence[int]):
        self.num_heads = num_heads
        self.lengths = lengths

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        rows, h = shapes[1][0], shapes[0][2]
        return (gemm("decode_attention", 4.0 * rows * h, 2 * rows * h * widths[1]),)

    def forward(self, fctx: FnCtx, q: ShardList, keys: ShardList,
                values: ShardList) -> ShardList:
        a, lengths = self.num_heads, self.lengths
        _, batch, h = bk.shape_of(q[0])
        rows = bk.shape_of(keys[0])[0]
        # The output is preallocated, so a wrong ``lengths`` would leave
        # unwritten rows in the logits: reject it before any arithmetic.
        if (h % a != 0 or len(lengths) != batch or min(lengths, default=0) < 1
                or sum(lengths) != rows or bk.shape_of(values[0])[0] != rows):
            raise ShapeError(
                f"decode attention: {a} head(s), q {bk.shape_of(q[0])}, keys "
                f"{bk.shape_of(keys[0])}, values {bk.shape_of(values[0])} "
                f"and lengths {list(lengths)} do not pair up")
        return map_shards(self._attend, q, keys, values, shape=same_shape)

    def _attend(self, q, keys, values):
        (_, batch, h), rows, a = q.shape, keys.shape[0], self.num_heads
        d = h // a
        rsqrt_d = 1.0 / math.sqrt(d)
        qr = q.reshape(batch, a, 1, d)
        kt = keys.reshape(rows, a, d).transpose(1, 2, 0)     # (a,d,sum n)
        vr = values.reshape(rows, a, d).transpose(1, 0, 2)   # (a,sum n,d)
        out = np.empty((1, batch, h))
        ctxt = out.reshape(batch, a, 1, d)
        start = 0
        for j, n in enumerate(self.lengths):
            stop = start + n
            scores = (qr[j] @ kt[:, :, start:stop]) * rsqrt_d  # (a,1,n_j)
            np.matmul(_softmax(scores), vr[:, start:stop], out=ctxt[j])
            start = stop
        return out


def decode_attention(num_heads: int, q: Tensor, keys: Tensor, values: Tensor,
                     lengths: Sequence[int]) -> Tensor:
    return apply(DecodeAttention(num_heads, lengths), q, keys, values)
