"""Fused autograd ``Function`` nodes.

Each op here collapses a chain of 2-6 unfused tape nodes into a single
node, eliminating Python dispatch and NumPy temporaries, while
registering the **same logical saved tensors** (same categories, same
accounting dtypes, same order) with the :class:`MemoryTracker` as the
unfused chain would — so the paper's Eq. 1-4 per-term accounting and the
``memory_term_drift`` crosscheck are preserved by construction.

Numerics contract (verified in ``tests/test_fusion.py``):

* every fused op is **bitwise identical** to its unfused chain at equal
  seeds: it performs the same elementary operations in the same order
  (``out=`` kwargs change where results are written, never what is
  computed), and draws dropout masks through the exact RNG call sequence
  of the unfused ops.
* ``bias_gelu`` and the unfused ``gelu`` run the same kernel
  (``tensor.functions._gelu_fwd`` / ``_gelu_bwd``, which also says why
  the cube is a multiply chain); only the scratch buffers differ (arena
  here, fresh arrays there).

Internal temporaries come from the :mod:`~repro.fusion.arena`; outputs
and saved buffers are always fresh arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from ..tensor import backend as bk
from ..tensor.dtypes import FP16, FP32, MASK
from ..tensor.functions import (CausalMask, Dropout, MaskSource, _causal_keep,
                                _gelu_bwd, _gelu_fwd, _offset_keep,
                                _unbroadcast, _widths, _xent, _xent_backward)
from ..tensor.tensor import FnCtx, Function, ShardList, Tensor, apply, map_shards, same_shape
from .arena import default_arena


# ---------------------------------------------------------------------------
# bias + GeLU
# ---------------------------------------------------------------------------

class BiasGelu(Function):
    """Fused ``gelu(x + bias)`` (Megatron's JIT bias-GeLU kernel).

    Saves ``z = x + bias`` at category ``"gelu_input"`` — the same
    logical tensor the unfused ``Gelu`` saves (the ``Add`` before it
    saves nothing), so Table 2's ``8sbh`` term is unchanged.
    """

    name = "bias_gelu"

    def forward(self, fctx: FnCtx, x: ShardList, bias: ShardList) -> ShardList:
        z_list, out = map_shards(_bias_gelu, x, bias,
                                 shape=lambda x, b: [bk.broadcast_shape(x, b)] * 2)
        fctx.misc["z_slot"] = fctx.save_new(z_list, FP16, category="gelu_input")
        fctx.misc["bias_shape"] = bk.shape_of(bias[0])
        n = bk.size_of(x[0])
        nb = bk.size_of(bias[0])
        fctx.log_elementwise("bias_gelu", bytes_moved=6 * n + 2 * nb,
                             flops_per_rank=9 * n, fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        z_list = fctx.saved(fctx.misc["z_slot"])
        bias_shape = fctx.misc["bias_shape"]
        n = bk.size_of(grad[0])
        fctx.log_elementwise("bias_gelu.bwd", bytes_moved=6 * n,
                             flops_per_rank=17 * n, fused=True)

        def _grads(g, z):
            arena = default_arena()
            scratch = [arena.take(z.shape) for _ in range(3)]
            d = _gelu_bwd(z, g, scratch)
            arena.give(*scratch)
            return d, _unbroadcast(d, bias_shape)

        return map_shards(_grads, grad, z_list, shape=lambda g, z: [z, bias_shape])


def _bias_gelu(x, bias):
    """One shard's ``(z, gelu(z))`` for ``z = x + bias``."""
    z = x + bias
    arena = default_arena()
    t = arena.take(z.shape)
    y = _gelu_fwd(z, t)
    arena.give(t)
    return z, y


def bias_gelu(x: Tensor, bias: Tensor) -> Tensor:
    """Fused ``gelu(x + bias)``."""
    return apply(BiasGelu(), x, bias)


# ---------------------------------------------------------------------------
# scale + causal mask + softmax + dropout
# ---------------------------------------------------------------------------

class ScaleMaskSoftmaxDropout(Function):
    """Megatron's fused scale-mask-softmax kernel, plus attention dropout.

    Saves the softmax output (``"softmax_output"``) and the dropout keep
    mask (``"dropout_mask"``) — exactly what the unfused
    scale -> causal_mask -> softmax -> dropout chain saves, in the same
    order.  Bitwise identical to that chain at equal seeds.

    ``ring=True`` switches the causal mask to the row-blocked variant of
    :class:`repro.tensor.functions.OffsetCausalMask`: scores are
    ``(..., s/w, s)`` panels (ring attention), and rank ``r``'s tril is
    shifted by ``r * s/w`` rows.  With one shard the two modes coincide.
    The shifted tril reads the rank, so the ring mode keeps its own rank
    loop where the causal mode maps one shard's kernel.
    """

    name = "scale_mask_softmax_dropout"

    def __init__(self, scale: float, p: float, mode: str = "replicated",
                 shard_axis: int = 1, tag: str = "",
                 mask_source: Optional[MaskSource] = None,
                 ring: bool = False):
        self.scale = float(scale)
        self.dropout = Dropout(p, mode=mode, shard_axis=shard_axis, tag=tag,
                               mask_source=mask_source)
        self.ring = ring

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        shape = bk.shape_of(x[0])
        world = len(x)
        if self.ring:
            if len(shape) < 2 or shape[-1] != shape[-2] * world:
                raise ShapeError(
                    f"ring mask needs (..., s/w, s) scores across w={world} "
                    f"shards, got {shape}")
        elif len(shape) < 2 or shape[-1] != shape[-2]:
            raise ShapeError(f"causal mask needs (..., s, s) scores, got {shape}")
        if not self.ring:
            y_list = map_shards(lambda xi: self._probs(xi, 0), x, shape=same_shape)
        elif bk.is_abstract(x[0]):
            y_list = [bk.shaped(shape)] * world
        else:  # rank r's panel holds rows r*s/w onwards: its tril is shifted so
            y_list = [self._probs(xi, r * shape[-2]) for r, xi in enumerate(x)]
        fctx.misc["y_slot"] = fctx.save_new(y_list, FP16, category="softmax_output")
        n = bk.size_of(x[0])
        fctx.misc["has_dropout"] = not self.dropout.identity
        if self.dropout.identity:
            # Identity dropout: the output *is* the saved softmax output,
            # matching the unfused chain where Dropout passes buffers
            # through untouched (identity-dedup parity in the tracker).
            fctx.log_elementwise("scale_mask_softmax_dropout", bytes_moved=4 * n,
                                 flops_per_rank=6 * n, fused=True)
            return list(y_list)
        keep = fctx.misc["keep"] = 1.0 - self.dropout.p
        masks = self.dropout.masks(x)
        fctx.misc["mask_slot"] = fctx.save_new(masks, MASK, category="dropout_mask")
        out = map_shards(lambda y, m: _dropped(y, m, keep), y_list, masks, shape=same_shape)
        fctx.log_elementwise("scale_mask_softmax_dropout", bytes_moved=7 * n,
                             flops_per_rank=8 * n, fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        y_list = fctx.saved(fctx.misc["y_slot"])
        has_dropout = fctx.misc["has_dropout"]
        n = bk.size_of(grad[0])
        if has_dropout:
            masks = fctx.saved(fctx.misc["mask_slot"])
            keep = fctx.misc["keep"]
            fctx.log_elementwise("scale_mask_softmax_dropout.bwd",
                                 bytes_moved=7 * n, flops_per_rank=8 * n,
                                 fused=True)
        else:
            masks = [None] * len(grad)
            keep = 1.0
            fctx.log_elementwise("scale_mask_softmax_dropout.bwd",
                                 bytes_moved=6 * n, flops_per_rank=6 * n,
                                 fused=True)
        if not self.ring:
            return (map_shards(lambda g, y, m: self._probs_grad(g, y, m, keep, 0),
                               grad, y_list, masks, shape=same_shape),)
        if bk.is_abstract(grad[0]) or bk.is_abstract(y_list[0]):
            return ([bk.shaped(bk.shape_of(y_list[0]))] * len(grad),)
        rows = bk.shape_of(y_list[0])[-2]
        return ([self._probs_grad(g, y, m, keep, r * rows)
                 for r, (g, y, m) in enumerate(zip(grad, y_list, masks))],)

    def _probs(self, x, offset: int):
        """One shard's ``softmax(mask(x * scale))`` under the causal tril
        shifted ``offset`` columns right (0: the plain causal mask)."""
        masked_tril = _offset_keep(*x.shape[-2:], offset)[1]
        arena = default_arena()
        t = arena.take(x.shape)
        np.multiply(x, self.scale, out=t)
        np.copyto(t, CausalMask.MASKED_VALUE, where=masked_tril)
        np.subtract(t, bk.max_(t, axis=-1, keepdims=True), out=t)
        np.exp(t, out=t)
        y = np.empty(x.shape)
        np.divide(t, bk.sum_(t, axis=-1, keepdims=True), out=y)
        arena.give(t)
        return y

    def _probs_grad(self, g, y, m, keep, offset: int):
        """One shard's gradient through dropout (mask ``m``, or none),
        softmax, the ``offset`` causal mask and the scale."""
        keep_tril = _offset_keep(*y.shape[-2:], offset)[0]
        arena = default_arena()
        t1 = arena.take(y.shape)
        if m is not None:
            np.multiply(g, m, out=t1)
            np.divide(t1, keep, out=t1)     # dropout bwd: g*m/keep
            g = t1
        t2 = arena.take(y.shape)
        np.multiply(g, y, out=t2)           # gy = g*y
        s_ = bk.sum_(t2, axis=-1, keepdims=True)
        np.multiply(y, s_, out=t1)          # y*sum(gy)
        dx = np.empty(y.shape)
        np.subtract(t2, t1, out=dx)         # softmax bwd
        np.multiply(dx, keep_tril, out=dx)  # causal mask bwd
        np.multiply(dx, self.scale, out=dx)  # scale bwd
        arena.give(t1, t2)
        return dx


def _dropped(x, m, keep: float):
    """One shard's inverted dropout ``x * m / keep`` into a fresh array."""
    o = np.empty(x.shape)
    np.multiply(x, m, out=o)
    np.divide(o, keep, out=o)
    return o


def scale_mask_softmax_dropout(x: Tensor, scale: float, p: float,
                               mode: str = "replicated", shard_axis: int = 1,
                               tag: str = "",
                               mask_source: Optional[MaskSource] = None,
                               ring: bool = False) -> Tensor:
    """Fused ``dropout(softmax(causal_mask(x * scale)))``."""
    return apply(ScaleMaskSoftmaxDropout(scale, p, mode=mode,
                                         shard_axis=shard_axis, tag=tag,
                                         mask_source=mask_source, ring=ring), x)


# ---------------------------------------------------------------------------
# single-pass LayerNorm
# ---------------------------------------------------------------------------

class FusedLayerNorm(Function):
    """LayerNorm computed in one pass over a single output buffer, with
    the forward statistics stashed (uncharged — the paper itself drops
    the ``2sb`` statistics terms) so backward skips the mean/variance
    recomputation.  Saves only the input (``"layernorm_input"``), like
    the unfused op; bitwise identical forward and backward.
    """

    name = "fused_layernorm"

    def __init__(self, eps: float = 1e-5):
        self.eps = eps

    def forward(self, fctx: FnCtx, x: ShardList, gamma: ShardList,
                beta: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category="layernorm_input")
        fctx.misc["gamma_slot"] = fctx.save_input(1)
        out, fctx.misc["stats"] = map_shards(self._norm, x, gamma, beta,
                                              shape=lambda x, gamma, beta: [x, None])
        w = _widths(fctx.inputs[0])[0]
        fctx.log_elementwise("fused_layernorm", bytes_moved=2 * w * bk.size_of(x[0]),
                             flops_per_rank=8 * bk.size_of(x[0]), fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        x = fctx.saved(fctx.misc["x_slot"])
        gamma = fctx.saved(fctx.misc["gamma_slot"])
        n = bk.size_of(grad[0])
        fctx.log_elementwise("fused_layernorm.bwd", bytes_moved=6 * n,
                             flops_per_rank=12 * n, fused=True)
        return map_shards(_norm_grads, grad, x, gamma, fctx.misc["stats"],
                          shape=lambda g, x, gamma, stats: [x, gamma, gamma])

    def _norm(self, x, gamma, beta):
        """One shard's output and its ``(mean, rstd)`` statistics."""
        mu = bk.mean(x, axis=-1, keepdims=True)
        y = np.empty(x.shape)
        np.subtract(x, mu, out=y)
        var = bk.mean(y * y, axis=-1, keepdims=True)  # == np.var, bitwise
        rstd = 1.0 / np.sqrt(var + self.eps)
        np.divide(y, np.sqrt(var + self.eps), out=y)
        np.multiply(y, gamma, out=y)
        np.add(y, beta, out=y)
        return y, (mu, rstd)


def _norm_grads(g, x, gamma, stats):
    """One shard's ``(dx, dgamma, dbeta)`` from the stashed statistics."""
    mu, rstd = stats
    arena = default_arena()
    xhat = arena.take(x.shape)
    np.subtract(x, mu, out=xhat)
    np.multiply(xhat, rstd, out=xhat)
    reduce_axes = tuple(range(x.ndim - 1))
    t2 = arena.take(x.shape)
    np.multiply(g, xhat, out=t2)
    dgamma = bk.sum_(t2, axis=reduce_axes)
    dbeta = bk.sum_(g, axis=reduce_axes)
    np.multiply(g, gamma, out=t2)       # dxhat
    m1 = bk.mean(t2, axis=-1, keepdims=True)
    t3 = arena.take(x.shape)
    np.multiply(t2, xhat, out=t3)
    m2 = bk.mean(t3, axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=t3)       # xhat*mean(dxhat*xhat)
    np.subtract(t2, m1, out=t2)
    np.subtract(t2, t3, out=t2)
    dx = np.empty(x.shape)
    np.multiply(t2, rstd, out=dx)
    arena.give(xhat, t2, t3)
    return dx, dgamma, dbeta


def fused_layernorm(x: Tensor, gamma: Tensor, beta: Tensor,
                    eps: float = 1e-5) -> Tensor:
    """Single-pass LayerNorm with forward-stashed statistics."""
    return apply(FusedLayerNorm(eps), x, gamma, beta)


# ---------------------------------------------------------------------------
# dropout + residual add
# ---------------------------------------------------------------------------

class DropoutAdd(Function):
    """Fused ``dropout(x) + residual`` (Megatron's bias-dropout-add).

    Saves only the keep mask (``"dropout_mask"``); bitwise identical to
    the unfused dropout -> add chain.  Callers should fall back to a
    plain ``F.add`` when ``p == 0`` and no mask source is installed
    (where the unfused dropout is an identity), keeping the tape shapes
    of fused and unfused models aligned.
    """

    name = "dropout_add"

    def __init__(self, p: float, mode: str = "replicated", shard_axis: int = 0,
                 tag: str = "", mask_source: Optional[MaskSource] = None):
        self.dropout = Dropout(p, mode=mode, shard_axis=shard_axis, tag=tag,
                               mask_source=mask_source)

    def forward(self, fctx: FnCtx, x: ShardList, residual: ShardList) -> ShardList:
        keep = fctx.misc["keep"] = 1.0 - self.dropout.p
        masks = self.dropout.masks(x)
        fctx.misc["mask_slot"] = fctx.save_new(masks, MASK, category="dropout_mask")

        def _shard(xi, m, res):
            o = _dropped(xi, m, keep)
            np.add(o, res, out=o)
            return o

        out = map_shards(_shard, x, masks, residual, shape=same_shape)
        n = bk.size_of(x[0])
        fctx.log_elementwise("dropout_add", bytes_moved=7 * n,
                             flops_per_rank=3 * n, fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        masks = fctx.saved(fctx.misc["mask_slot"])
        keep = fctx.misc["keep"]
        n = bk.size_of(grad[0])
        fctx.log_elementwise("dropout_add.bwd", bytes_moved=5 * n,
                             flops_per_rank=2 * n, fused=True)
        # Residual gradient is the incoming gradient itself (same buffers),
        # exactly like the unfused Add backward with equal shapes.
        return (map_shards(lambda g, m: _dropped(g, m, keep), grad, masks, shape=same_shape),
                list(grad))


def dropout_add(x: Tensor, residual: Tensor, p: float,
                mode: str = "replicated", shard_axis: int = 0, tag: str = "",
                mask_source: Optional[MaskSource] = None) -> Tensor:
    """Fused ``dropout(x) + residual``."""
    return apply(DropoutAdd(p, mode=mode, shard_axis=shard_axis, tag=tag,
                            mask_source=mask_source), x, residual)


# ---------------------------------------------------------------------------
# softmax + cross-entropy (serial; the vocab-parallel loss keeps its own
# collective-based implementation)
# ---------------------------------------------------------------------------

class SoftmaxCrossEntropy(Function):
    """Fused fp32 cast + token-mean cross-entropy from fp16 logits.

    The unfused chain materialises an fp32 **copy** of the logits
    (``Cast``) and saves that; this op saves the original logit buffers
    zero-copy, charged at FP32 x  ``"logits"`` — byte-for-byte the paper's
    ``4sbv`` term.  Loss and gradients are bitwise identical to the
    unfused chain (the cast is numerically a no-op at float64).
    """

    name = "softmax_xent"

    def __init__(self, has_mask: bool = False):
        self.has_mask = has_mask

    def forward(self, fctx: FnCtx, logits: ShardList, targets: ShardList,
                mask: Optional[ShardList] = None) -> ShardList:
        # Zero-copy: charge the existing buffers at the fp32 accounting
        # width instead of materialising a cast copy.
        fctx.misc["logits_slot"] = fctx.save_new(list(logits), FP32,
                                                 category="logits")
        fctx.misc["targets_slot"] = fctx.save_input(1, category="targets")
        if self.has_mask:
            fctx.misc["mask_slot"] = fctx.save_input(2, category="loss_mask")
        fctx.out_dtypes = [FP32]
        out = map_shards(_xent, logits, targets, *([mask] if self.has_mask else []),
                         shape=lambda *_: ())
        n = bk.size_of(logits[0])
        fctx.log_elementwise("softmax_xent", bytes_moved=4 * n,
                             flops_per_rank=5 * n, fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        return _xent_backward(fctx, grad, self.has_mask)


def softmax_cross_entropy(logits: Tensor, targets: Tensor,
                          loss_mask: Optional[Tensor] = None) -> Tensor:
    """Fused cast+cross-entropy; ``logits`` may still be fp16 (accounting)."""
    if loss_mask is None:
        return apply(SoftmaxCrossEntropy(), logits, targets)
    return apply(SoftmaxCrossEntropy(has_mask=True), logits, targets, loss_mask)
