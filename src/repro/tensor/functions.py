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

import math
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ShapeError
from . import backend as bk
from .context import ctx
from .dtypes import FP16, FP32, INT64, MASK, DType
from .tensor import FnCtx, Function, ShardList, Tensor, apply


def _widths(*tensors: Optional[Tensor]) -> List[int]:
    return [t.dtype.nbytes if t is not None else 2 for t in tensors]


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
    rank_local = True

    def forward(self, fctx: FnCtx, a: ShardList, b) -> ShardList:
        b_shards = b if isinstance(b, list) else [b] * len(a)
        out = [x + y for x, y in zip(a, b_shards)]
        fctx.misc["shapes"] = (bk.shape_of(a[0]), bk.shape_of(b_shards[0]) if isinstance(b, list) else None)
        wa, wb = _widths(fctx.inputs[0], fctx.inputs[1])
        nbytes = bk.size_of(a[0]) * wa + bk.size_of(out[0]) * 2
        if isinstance(b, list):
            nbytes += bk.size_of(b_shards[0]) * wb
        fctx.log_elementwise("add", bytes_moved=nbytes, flops_per_rank=bk.size_of(out[0]))
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        a_shape, b_shape = fctx.misc["shapes"]
        fctx.log_elementwise("add.bwd", bytes_moved=4 * bk.size_of(grad[0]),
                             flops_per_rank=bk.size_of(grad[0]))
        ga = [_unbroadcast(g, a_shape) for g in grad]
        gb = [_unbroadcast(g, b_shape) for g in grad] if b_shape is not None else None
        return ga, gb


class Mul(Function):
    """Broadcasting multiply by a tensor or scalar.

    Tensor*tensor saves both operands; tensor*scalar saves nothing.
    """

    name = "mul"
    rank_local = True

    def forward(self, fctx: FnCtx, a: ShardList, b) -> ShardList:
        if isinstance(b, list):
            fctx.misc["a_slot"] = fctx.save_input(0)
            fctx.misc["b_slot"] = fctx.save_input(1)
            out = [x * y for x, y in zip(a, b)]
            fctx.misc["shapes"] = (bk.shape_of(a[0]), bk.shape_of(b[0]))
            fctx.log_elementwise("mul", bytes_moved=4 * bk.size_of(out[0]),
                                 flops_per_rank=bk.size_of(out[0]))
        else:
            # Scalar scaling is folded into the adjacent GEMM/softmax kernel
            # (Megatron's fused scale-mask-softmax); no memory traffic.
            fctx.misc["scalar"] = float(b)
            out = [x * b for x in a]
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        if "scalar" in fctx.misc:
            c = fctx.misc["scalar"]
            return ([g * c for g in grad], None)
        fctx.log_elementwise("mul.bwd", bytes_moved=4 * bk.size_of(grad[0]),
                             flops_per_rank=2 * bk.size_of(grad[0]))
        a = fctx.saved(fctx.misc["a_slot"])
        b = fctx.saved(fctx.misc["b_slot"])
        a_shape, b_shape = fctx.misc["shapes"]
        ga = [_unbroadcast(g * y, a_shape) for g, y in zip(grad, b)]
        gb = [_unbroadcast(g * x, b_shape) for g, x in zip(grad, a)]
        return ga, gb


def add(a: Tensor, b) -> Tensor:
    return apply(Add(), a, b)


def mul(a: Tensor, b) -> Tensor:
    return apply(Mul(), a, b)


def scale(a: Tensor, c: float) -> Tensor:
    return apply(Mul(), a, float(c))


# ---------------------------------------------------------------------------
# Matmul / linear algebra
# ---------------------------------------------------------------------------

class Matmul(Function):
    """``x @ w``: linear (``w`` 2-D) or batched (``w.ndim == x.ndim``).

    Saves both operands — the paper's "the linear projection stores its
    input activations" and "QK^T requires storage of both Q and K".
    Parameters are saved but not charged to activation memory.
    Backward performs two GEMMs of the forward's FLOP count each (the
    "backward pass requires double the number of FLOPs" of Appendix A).
    """

    name = "matmul"
    rank_local = True

    def __init__(self, category: str = "activation"):
        self.category = category

    def forward(self, fctx: FnCtx, x: ShardList, w: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category=self.category)
        fctx.misc["w_slot"] = fctx.save_input(1, category=self.category)
        x_shape, w_shape = bk.shape_of(x[0]), bk.shape_of(w[0])
        fctx.misc["shapes"] = (x_shape, w_shape)
        # A linear layer on concrete (..., k) activations runs as one 2-D
        # GEMM, not NumPy's loop of small ones over the leading dims.
        flat = fctx.misc["flat"] = (
            len(w_shape) == 2 and len(x_shape) > 2
            and not (bk.is_abstract(x[0]) or bk.is_abstract(w[0])))
        if flat:
            out_shape = x_shape[:-1] + w_shape[-1:]
            out = [(xi.reshape(-1, w_shape[0]) @ wi).reshape(out_shape)
                   for xi, wi in zip(x, w)]
        else:
            out = [xi @ wi for xi, wi in zip(x, w)]
        k = x_shape[-1]
        flops = 2.0 * bk.size_of(out[0]) * k
        fctx.misc["flops"] = flops
        wx, ww = _widths(fctx.inputs[0], fctx.inputs[1])
        nbytes = bk.size_of(x[0]) * wx + bk.size_of(w[0]) * ww + bk.size_of(out[0]) * 2
        fctx.log_gemm(f"matmul[{self.category}]", flops_per_rank=flops, bytes_moved=nbytes)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        w = fctx.saved(fctx.misc["w_slot"])
        x_shape, w_shape = fctx.misc["shapes"]
        flops = fctx.misc["flops"]
        fctx.log_gemm(f"matmul[{self.category}].dgrad", flops_per_rank=flops)
        fctx.log_gemm(f"matmul[{self.category}].wgrad", flops_per_rank=flops)
        if len(w_shape) == 2:
            # Linear: x (..., k) @ w (k, n)
            if fctx.misc["flat"]:
                dx = [(g.reshape(-1, w_shape[1]) @ wi.T).reshape(x_shape)
                      for g, wi in zip(grad, w)]
            else:
                dx = [g @ bk.swap_last_two(wi) for g, wi in zip(grad, w)]
            dw = []
            for g, xi in zip(grad, x):
                if bk.is_abstract(g) or bk.is_abstract(xi):
                    dw.append(bk.shaped(w_shape))
                else:
                    k, n = w_shape
                    dw.append(np.reshape(xi, (-1, k)).T @ np.reshape(g, (-1, n)))
        else:
            dx = [g @ bk.swap_last_two(wi) for g, wi in zip(grad, w)]
            dw = [_unbroadcast(bk.swap_last_two(xi) @ g, w_shape) for g, xi in zip(grad, x)]
        dx = [_unbroadcast(d, x_shape) for d in dx]
        return dx, dw


def matmul(x: Tensor, w: Tensor, category: str = "activation") -> Tensor:
    return apply(Matmul(category=category), x, w)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

class Reshape(Function):
    """Free (a view); saves only the input shape."""

    name = "reshape"
    rank_local = True

    def __init__(self, shape):
        self.shape = tuple(shape)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["in_shape"] = bk.shape_of(x[0])
        return [bk.reshape(xi, self.shape) for xi in x]

    def backward(self, fctx: FnCtx, grad: ShardList):
        in_shape = fctx.misc["in_shape"]
        return ([bk.reshape(g, in_shape) for g in grad],)


class Transpose(Function):
    """Axis permutation; logged as a bandwidth-bound copy."""

    name = "transpose"
    rank_local = True

    def __init__(self, axes: Sequence[int]):
        self.axes = tuple(axes)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        # Free: real implementations express permutations as strided
        # batched-GEMM layouts rather than materialized copies.
        return [bk.transpose(xi, self.axes) for xi in x]

    def backward(self, fctx: FnCtx, grad: ShardList):
        inverse = tuple(sorted(range(len(self.axes)), key=self.axes.__getitem__))
        return ([bk.transpose(g, inverse) for g in grad],)


class Split(Function):
    """Split into equal sections along an axis (multi-output)."""

    name = "split"
    rank_local = True

    def __init__(self, sections: int, axis: int):
        self.sections = sections
        self.axis = axis

    def forward(self, fctx: FnCtx, x: ShardList):
        per_rank = [bk.split(xi, self.sections, self.axis) for xi in x]
        return tuple([pr[i] for pr in per_rank] for i in range(self.sections))

    def backward(self, fctx: FnCtx, *grads: ShardList):
        world = len(grads[0])
        out = [bk.concatenate([g[r] for g in grads], self.axis) for r in range(world)]
        return (out,)


class Concat(Function):
    """Concatenate tensors along an axis."""

    name = "concat"
    rank_local = True

    def __init__(self, axis: int):
        self.axis = axis

    def forward(self, fctx: FnCtx, *parts: ShardList) -> ShardList:
        fctx.misc["sizes"] = [bk.shape_of(p[0])[self.axis] for p in parts]
        world = len(parts[0])
        return [bk.concatenate([p[r] for p in parts], self.axis) for r in range(world)]

    def backward(self, fctx: FnCtx, grad: ShardList):
        sizes = fctx.misc["sizes"]
        outs = []
        start = 0
        for size in sizes:
            outs.append([bk.slice_axis(g, self.axis, start, start + size) for g in grad])
            start += size
        return tuple(outs)


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


def _gelu_fwd(z: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """``0.5*z*(1 + tanh(...))`` into a fresh array: the one GeLU forward
    kernel, behind ``Gelu`` and ``fusion.ops.BiasGelu`` alike.  ``t`` is a
    scratch buffer of ``z``'s shape, allocated here when none is lent."""
    if t is None:
        t = np.empty(z.shape)
    _gelu_tanh(z, t)
    np.add(t, 1.0, out=t)
    y = np.empty(z.shape)
    np.multiply(t, z, out=y)
    np.multiply(y, 0.5, out=y)
    return y


def _gelu_bwd(z: np.ndarray, g: np.ndarray, scratch=None) -> np.ndarray:
    """``g * dgelu/dz`` into a fresh array, from the saved input alone.

    ``tanh`` is recomputed rather than kept from forward: the op saves
    only its input (the ``8sbh`` term).  ``scratch`` is three buffers of
    ``z``'s shape, allocated here when none are lent.
    """
    t, u, v = scratch or [np.empty(z.shape) for _ in range(3)]
    _gelu_tanh(z, t)
    np.multiply(t, t, out=u)
    np.subtract(1.0, u, out=u)        # sech^2
    np.multiply(z, z, out=v)          # d_inner = C*(1 + 3*0.044715*z^2)
    np.multiply(v, 3 * 0.044715, out=v)
    np.add(v, 1.0, out=v)
    np.multiply(v, _GELU_C, out=v)
    np.multiply(u, v, out=u)
    np.multiply(u, z, out=u)
    np.multiply(u, 0.5, out=u)        # 0.5 * z * sech^2 * d_inner
    np.add(t, 1.0, out=t)
    np.multiply(t, 0.5, out=t)        # 0.5 * (1 + tanh)
    np.add(t, u, out=t)               # dgelu/dz
    d = np.empty(z.shape)
    np.multiply(g, t, out=d)
    return d


class Gelu(Function):
    """Tanh-approximated GeLU (the Megatron-LM variant). Saves its input."""

    name = "gelu"
    rank_local = True

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category="gelu_input")
        out = [bk.shaped(xi.shape) if bk.is_abstract(xi)
               else _gelu_fwd(xi) for xi in x]
        w = _widths(fctx.inputs[0])[0]
        fctx.log_elementwise("gelu", bytes_moved=2 * w * bk.size_of(x[0]),
                             flops_per_rank=8 * bk.size_of(x[0]))
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        fctx.log_elementwise("gelu.bwd", bytes_moved=6 * bk.size_of(grad[0]),
                             flops_per_rank=16 * bk.size_of(grad[0]))
        out = [bk.shaped(bk.shape_of(xi))
               if bk.is_abstract(g) or bk.is_abstract(xi)
               else _gelu_bwd(xi, g) for g, xi in zip(grad, x)]
        return (out,)


class Softmax(Function):
    """Softmax over the last axis.

    Saves its **output** — the paper's "softmax output with size 2as^2b is
    required for back-propagation".
    """

    name = "softmax"
    rank_local = True

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        out = []
        for xi in x:
            if bk.is_abstract(xi):
                out.append(bk.shaped(xi.shape))
            else:
                shifted = xi - bk.max_(xi, axis=-1, keepdims=True)
                e = np.exp(shifted)
                out.append(e / bk.sum_(e, axis=-1, keepdims=True))
        fctx.misc["y_slot"] = fctx.save_new(out, FP16, category="softmax_output")
        fctx.log_elementwise("softmax", bytes_moved=4 * bk.size_of(x[0]),
                             flops_per_rank=5 * bk.size_of(x[0]))
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        y = fctx.saved(fctx.misc["y_slot"])
        fctx.log_elementwise("softmax.bwd", bytes_moved=6 * bk.size_of(grad[0]),
                             flops_per_rank=4 * bk.size_of(grad[0]))
        out = []
        for g, yi in zip(grad, y):
            gy = g * yi
            out.append(gy - yi * bk.sum_(gy, axis=-1, keepdims=True))
        return (out,)


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
    """

    name = "dropout"
    rank_local = True

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

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        if self.p == 0.0 and self.mask_source is None:
            fctx.misc["identity"] = True
            return list(x)
        keep = 1.0 - self.p
        world = len(x)
        abstract = bk.is_abstract(x[0])
        shape = bk.shape_of(x[0])
        if self.mode == "replicated":
            if self.mask_source is not None and not abstract:
                mask = self.mask_source.full_mask(self.tag, shape)
            else:
                mask = bk.bernoulli_mask(shape, keep, ctx().rng, abstract)
            masks = [mask] * world
        else:
            if self.mask_source is not None and not abstract:
                full_shape = list(shape)
                full_shape[self.shard_axis] *= world
                full = self.mask_source.full_mask(self.tag, tuple(full_shape))
                masks = [
                    bk.slice_axis(full, self.shard_axis,
                                  r * shape[self.shard_axis],
                                  (r + 1) * shape[self.shard_axis])
                    for r in range(world)
                ]
            else:
                masks = [bk.bernoulli_mask(shape, keep, ctx().rng, abstract) for _ in range(world)]
        fctx.misc["mask_slot"] = fctx.save_new(masks, MASK, category="dropout_mask")
        fctx.misc["keep"] = keep
        out = [xi * m / keep for xi, m in zip(x, masks)]
        w = _widths(fctx.inputs[0])[0]
        fctx.log_elementwise("dropout", bytes_moved=(2 * w + 1) * bk.size_of(x[0]),
                             flops_per_rank=2 * bk.size_of(x[0]))
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        if fctx.misc.get("identity"):
            return (list(grad),)
        masks = fctx.saved(fctx.misc["mask_slot"])
        keep = fctx.misc["keep"]
        fctx.log_elementwise("dropout.bwd", bytes_moved=5 * bk.size_of(grad[0]),
                             flops_per_rank=2 * bk.size_of(grad[0]))
        return ([g * m / keep for g, m in zip(grad, masks)],)


def dropout(x: Tensor, p: float, mode: str = "replicated", shard_axis: int = 0,
            tag: str = "", mask_source: Optional[MaskSource] = None) -> Tensor:
    return apply(Dropout(p, mode=mode, shard_axis=shard_axis, tag=tag,
                         mask_source=mask_source), x)


# ---------------------------------------------------------------------------
# Layer norm
# ---------------------------------------------------------------------------

class LayerNorm(Function):
    """Layer normalization over the last axis.

    Saves only its input (the paper's ``2sbh``); the mean and inverse
    standard deviation are recomputed from the input during backward, which
    makes the accounting exact rather than "exact up to a 2sb term".
    """

    name = "layernorm"
    rank_local = True

    def __init__(self, eps: float = 1e-5):
        self.eps = eps

    def forward(self, fctx: FnCtx, x: ShardList, gamma: ShardList, beta: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category="layernorm_input")
        fctx.misc["gamma_slot"] = fctx.save_input(1)
        out = []
        for xi, gi, bi in zip(x, gamma, beta):
            if bk.is_abstract(xi):
                out.append(bk.shaped(bk.shape_of(xi)))
                continue
            xc = xi - bk.mean(xi, axis=-1, keepdims=True)
            var = bk.mean(xc * xc, axis=-1, keepdims=True)  # == np.var, bitwise
            out.append(xc / np.sqrt(var + self.eps) * gi + bi)
        w = _widths(fctx.inputs[0])[0]
        fctx.log_elementwise("layernorm", bytes_moved=2 * w * bk.size_of(x[0]),
                             flops_per_rank=8 * bk.size_of(x[0]))
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        gamma = fctx.saved(fctx.misc["gamma_slot"])
        fctx.log_elementwise("layernorm.bwd", bytes_moved=8 * bk.size_of(grad[0]),
                             flops_per_rank=14 * bk.size_of(grad[0]))
        dx, dgamma, dbeta = [], [], []
        for g, xi, gi in zip(grad, x, gamma):
            if bk.is_abstract(g) or bk.is_abstract(xi):
                dx.append(bk.shaped(bk.shape_of(xi)))
                dgamma.append(bk.shaped(bk.shape_of(gi)))
                dbeta.append(bk.shaped(bk.shape_of(gi)))
                continue
            xc = xi - bk.mean(xi, axis=-1, keepdims=True)
            var = bk.mean(xc * xc, axis=-1, keepdims=True)
            rstd = 1.0 / np.sqrt(var + self.eps)
            xhat = xc * rstd
            reduce_axes = tuple(range(xi.ndim - 1))
            dgamma.append(bk.sum_(g * xhat, axis=reduce_axes))
            dbeta.append(bk.sum_(g, axis=reduce_axes))
            dxhat = g * gi
            dx.append(rstd * (
                dxhat
                - bk.mean(dxhat, axis=-1, keepdims=True)
                - xhat * bk.mean(dxhat * xhat, axis=-1, keepdims=True)
            ))
        return dx, dgamma, dbeta


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    return apply(LayerNorm(eps), x, gamma, beta)


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------

class EmbeddingLookup(Function):
    """Row gather ``weight[ids]``. Saves the (tiny, integer) ids."""

    name = "embedding"
    rank_local = True

    def forward(self, fctx: FnCtx, weight: ShardList, ids: ShardList) -> ShardList:
        fctx.misc["ids_slot"] = fctx.save_input(1, category="embedding_ids")
        fctx.misc["w_shape"] = bk.shape_of(weight[0])
        return [bk.take_rows(w, i) for w, i in zip(weight, ids)]

    def backward(self, fctx: FnCtx, grad: ShardList):
        ids = fctx.saved(fctx.misc["ids_slot"])
        w_shape = fctx.misc["w_shape"]
        dw = [bk.index_add_rows(w_shape, i, g) for i, g in zip(ids, grad)]
        return dw, None


def embedding(weight: Tensor, ids: Tensor) -> Tensor:
    return apply(EmbeddingLookup(), weight, ids)


# ---------------------------------------------------------------------------
# Casts and reductions
# ---------------------------------------------------------------------------

class Cast(Function):
    """Accounting-dtype change (e.g. fp16 logits -> fp32 before the loss)."""

    name = "cast"
    rank_local = True

    def __init__(self, dtype: DType):
        self.dtype = dtype

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.out_dtypes = [self.dtype]
        src = _widths(fctx.inputs[0])[0]
        fctx.log_elementwise("cast", bytes_moved=(src + self.dtype.nbytes) * bk.size_of(x[0]))
        return [xi.copy() if not bk.is_abstract(xi) else bk.shaped(xi.shape) for xi in x]

    def backward(self, fctx: FnCtx, grad: ShardList):
        return (list(grad),)


class SumAll(Function):
    """Sum of all elements -> scalar (per rank). Saves only the shape."""

    name = "sum_all"
    rank_local = True

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["shape"] = bk.shape_of(x[0])
        fctx.misc["abstract"] = bk.is_abstract(x[0])
        return [bk.sum_(xi) for xi in x]

    def backward(self, fctx: FnCtx, grad: ShardList):
        shape = fctx.misc["shape"]
        if fctx.misc["abstract"]:
            return ([bk.shaped(shape)] * len(grad),)
        return ([np.broadcast_to(np.asarray(g, dtype=np.float64), shape).copy() for g in grad],)


def cast(x: Tensor, dtype: DType) -> Tensor:
    return apply(Cast(dtype), x)


def sum_all(x: Tensor) -> Tensor:
    return apply(SumAll(), x)


# ---------------------------------------------------------------------------
# Cross-entropy loss (serial; the vocab-parallel version lives in
# repro.parallel.loss and uses collectives)
# ---------------------------------------------------------------------------

class CrossEntropy(Function):
    """Token-mean cross entropy from logits, with optional loss masking.

    Saves the logits at their accounting dtype (cast them to fp32 first to
    reproduce the paper's ``4sbv`` logits term) and the target ids.  When
    a ``loss_mask`` is supplied (1.0 = count the token, 0.0 = ignore, e.g.
    padding), the loss is the masked mean and masked positions receive
    zero gradient — Megatron's loss-mask semantics.
    """

    name = "cross_entropy"
    rank_local = True

    def __init__(self, has_mask: bool = False):
        self.has_mask = has_mask

    def forward(self, fctx: FnCtx, logits: ShardList, targets: ShardList,
                mask: Optional[ShardList] = None) -> ShardList:
        fctx.misc["logits_slot"] = fctx.save_input(0, category="logits")
        fctx.misc["targets_slot"] = fctx.save_input(1, category="targets")
        if self.has_mask:
            fctx.misc["mask_slot"] = fctx.save_input(2, category="loss_mask")
        fctx.out_dtypes = [FP32]
        out = []
        for r, (li, ti) in enumerate(zip(logits, targets)):
            if bk.is_abstract(li):
                out.append(bk.shaped(()))
                continue
            shifted = li - bk.max_(li, axis=-1, keepdims=True)
            logz = np.log(bk.sum_(np.exp(shifted), axis=-1, keepdims=True))
            logp = shifted - logz
            picked = np.take_along_axis(logp, ti.astype(np.int64)[..., None], axis=-1)[..., 0]
            if self.has_mask:
                m = np.asarray(mask[r], dtype=np.float64)
                denom = m.sum()
                if denom == 0:
                    raise ShapeError("loss_mask masks out every token")
                out.append(np.asarray(-(picked * m).sum() / denom))
            else:
                out.append(np.asarray(-bk.mean(picked)))
        v = bk.shape_of(logits[0])[-1]
        fctx.log_gemm("cross_entropy", flops_per_rank=0,
                      bytes_moved=0)  # loss math is negligible next to the logits GEMM
        fctx.log_elementwise("cross_entropy", bytes_moved=4 * bk.size_of(logits[0]),
                             flops_per_rank=5 * bk.size_of(logits[0]))
        fctx.misc["vocab"] = v
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        logits = fctx.saved(fctx.misc["logits_slot"])
        targets = fctx.saved(fctx.misc["targets_slot"])
        masks = fctx.saved(fctx.misc["mask_slot"]) if self.has_mask else None
        out = []
        for r, (g, li, ti) in enumerate(zip(grad, logits, targets)):
            if bk.is_abstract(li):
                out.append(bk.shaped(bk.shape_of(li)))
                continue
            shifted = li - bk.max_(li, axis=-1, keepdims=True)
            e = np.exp(shifted)
            p = e / bk.sum_(e, axis=-1, keepdims=True)
            onehot = bk.one_hot_rows(ti, bk.shape_of(li)[-1])
            scale_num = np.asarray(g, dtype=np.float64)
            if self.has_mask:
                m = np.asarray(masks[r], dtype=np.float64)
                out.append((p - onehot) * m[..., None] * (scale_num / m.sum()))
            else:
                out.append((p - onehot) * (scale_num / bk.size_of(ti)))
        grads = (out, None, None) if self.has_mask else (out, None)
        return grads


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
    rank_local = True

    MASKED_VALUE = -1e9

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        shape = bk.shape_of(x[0])
        if len(shape) < 2 or shape[-1] != shape[-2]:
            raise ShapeError(f"causal mask needs (..., s, s) scores, got {shape}")
        # Fused with the softmax kernel in practice (scale-mask-softmax).
        fctx.log_elementwise("causal_mask", bytes_moved=2 * bk.size_of(x[0]))
        out = []
        for xi in x:
            if bk.is_abstract(xi):
                out.append(bk.shaped(xi.shape))
            else:
                out.append(np.where(_causal_keep(shape)[0], xi,
                                    self.MASKED_VALUE))
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        out = []
        for g in grad:
            if bk.is_abstract(g):
                out.append(bk.shaped(bk.shape_of(g)))
            else:
                out.append(g * _causal_keep(bk.shape_of(g))[0])
        return (out,)


def causal_mask(x: Tensor) -> Tensor:
    return apply(CausalMask(), x)


class OffsetCausalMask(Function):
    """Causal mask for *row-blocked* scores ``(..., s/w, s)``.

    Ring attention (:mod:`repro.longctx`) computes each rank's query rows
    against the full key sequence, so rank ``r``'s score panel holds
    global rows ``[r*s/w, (r+1)*s/w)``: row ``i`` of rank ``r`` may attend
    to columns ``<= r*s/w + i``, i.e. a tril shifted by ``r*s/w``.  With
    ``w == 1`` this is exactly :class:`CausalMask`.  Like it, the mask is
    a pure function of (shape, rank) — nothing is saved.  Reading the
    rank and the world keeps it off :attr:`Function.rank_local`.
    """

    name = "offset_causal_mask"

    MASKED_VALUE = CausalMask.MASKED_VALUE

    @staticmethod
    def _keep(shape, rank: int) -> np.ndarray:
        rows, cols = shape[-2:]
        return _offset_keep(rows, cols, rank * rows)[0]

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        shape = bk.shape_of(x[0])
        if len(shape) < 2 or shape[-1] != shape[-2] * len(x):
            raise ShapeError(
                f"offset causal mask needs (..., s/w, s) scores across "
                f"w={len(x)} shards, got {shape}")
        fctx.log_elementwise("offset_causal_mask",
                             bytes_moved=2 * bk.size_of(x[0]))
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


# ---------------------------------------------------------------------------
# Axis slicing (used for position embeddings of short sequences)
# ---------------------------------------------------------------------------

class SliceAxis(Function):
    """``x[start:stop]`` along ``axis``; backward zero-pads to the input
    shape.  Saves nothing."""

    name = "slice_axis"
    rank_local = True

    def __init__(self, axis: int, start: int, stop: int):
        self.axis = axis
        self.start = start
        self.stop = stop

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        fctx.misc["in_shape"] = bk.shape_of(x[0])
        return [bk.slice_axis(xi, self.axis, self.start, self.stop) for xi in x]

    def backward(self, fctx: FnCtx, grad: ShardList):
        in_shape = fctx.misc["in_shape"]
        out = []
        for g in grad:
            if bk.is_abstract(g):
                out.append(bk.shaped(in_shape))
                continue
            full = np.zeros(in_shape, dtype=np.float64)
            index = [slice(None)] * len(in_shape)
            index[self.axis % len(in_shape)] = slice(self.start, self.stop)
            full[tuple(index)] = g
            out.append(full)
        return (out,)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    return apply(SliceAxis(axis, start, stop), x)


# ---------------------------------------------------------------------------
# Decode attention (the serving engine's one launch per layer per step)
# ---------------------------------------------------------------------------

class DecodeAttention(Function):
    """One-query attention of a ragged decode batch over its cached K/V,
    the whole batch in one application — the one launch per layer per
    step a paged-attention kernel makes.  No mask (a cache holds only
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
        d = h // a
        rsqrt_d = 1.0 / math.sqrt(d)
        out = []
        for qi, ki, vi in zip(q, keys, values):
            qr = qi.reshape(batch, a, 1, d)
            kt = ki.reshape(rows, a, d).transpose(1, 2, 0)     # (a,d,sum n)
            vr = vi.reshape(rows, a, d).transpose(1, 0, 2)     # (a,sum n,d)
            oi = np.empty((1, batch, h))
            ctxt = oi.reshape(batch, a, 1, d)
            start = 0
            for j, n in enumerate(lengths):
                stop = start + n
                scores = (qr[j] @ kt[:, :, start:stop]) * rsqrt_d  # (a,1,n_j)
                e = np.exp(scores - np.maximum.reduce(
                    scores, axis=-1, keepdims=True))
                np.matmul(e / np.add.reduce(e, axis=-1, keepdims=True),
                          vr[:, start:stop], out=ctxt[j])
                start = stop
            out.append(oi)
        fctx.log_gemm("decode_attention", flops_per_rank=4.0 * rows * h,
                      bytes_moved=2 * rows * h * _widths(fctx.inputs[1])[0])
        return out


def decode_attention(num_heads: int, q: Tensor, keys: Tensor, values: Tensor,
                     lengths: Sequence[int]) -> Tensor:
    return apply(DecodeAttention(num_heads, lengths), q, keys, values)
