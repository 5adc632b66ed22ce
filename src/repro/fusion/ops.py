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

from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..tensor import backend as bk
from ..tensor.context import ctx
from ..tensor.dtypes import FP16, FP32, MASK
from ..tensor.functions import (CausalMask, MaskSource, _causal_keep,
                                _gelu_bwd, _gelu_fwd, _offset_keep,
                                _unbroadcast, _widths)
from ..tensor.tensor import FnCtx, Function, ShardList, Tensor, apply
from .arena import default_arena


def _draw_masks(fctx: FnCtx, p: float, mode: str, shard_axis: int, tag: str,
                mask_source: Optional[MaskSource], shape, world: int,
                abstract: bool) -> ShardList:
    """Exactly the unfused ``Dropout.forward`` mask-draw sequence, so the
    RNG stream (and therefore every mask bit) matches the unfused tape."""
    keep = 1.0 - p
    if mode == "replicated":
        if mask_source is not None and not abstract:
            mask = mask_source.full_mask(tag, shape)
        else:
            mask = bk.bernoulli_mask(shape, keep, ctx().rng, abstract)
        return [mask] * world
    if mask_source is not None and not abstract:
        full_shape = list(shape)
        full_shape[shard_axis] *= world
        full = mask_source.full_mask(tag, tuple(full_shape))
        return [
            bk.slice_axis(full, shard_axis, r * shape[shard_axis],
                          (r + 1) * shape[shard_axis])
            for r in range(world)
        ]
    return [bk.bernoulli_mask(shape, keep, ctx().rng, abstract)
            for _ in range(world)]


def _check_dropout_args(p: float, mode: str) -> None:
    if not (0.0 <= p < 1.0):
        raise ShapeError(f"dropout p must be in [0, 1), got {p}")
    if mode not in ("replicated", "sharded"):
        raise ShapeError(f"unknown dropout mode {mode!r}")


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
    rank_local = True

    def forward(self, fctx: FnCtx, x: ShardList, bias: ShardList) -> ShardList:
        arena = default_arena()
        z_list, out = [], []
        for xi, bi in zip(x, bias):
            if bk.is_abstract(xi):
                z_list.append(bk.shaped(bk.shape_of(xi)))
                out.append(bk.shaped(bk.shape_of(xi)))
                continue
            z = xi + bi
            t = arena.take(z.shape)
            y = _gelu_fwd(z, t)
            arena.give(t)
            z_list.append(z)
            out.append(y)
        fctx.misc["z_slot"] = fctx.save_new(z_list, FP16, category="gelu_input")
        fctx.misc["bias_shape"] = bk.shape_of(bias[0])
        n = bk.size_of(x[0])
        nb = bk.size_of(bias[0])
        fctx.log_elementwise("bias_gelu", bytes_moved=6 * n + 2 * nb,
                             flops_per_rank=9 * n, fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        arena = default_arena()
        z_list = fctx.saved(fctx.misc["z_slot"])
        bias_shape = fctx.misc["bias_shape"]
        n = bk.size_of(grad[0])
        fctx.log_elementwise("bias_gelu.bwd", bytes_moved=6 * n,
                             flops_per_rank=17 * n, fused=True)
        dx, db = [], []
        for g, z in zip(grad, z_list):
            if bk.is_abstract(g) or bk.is_abstract(z):
                dx.append(bk.shaped(bk.shape_of(z)))
                db.append(bk.shaped(bias_shape))
                continue
            scratch = [arena.take(z.shape) for _ in range(3)]
            d = _gelu_bwd(z, g, scratch)
            arena.give(*scratch)
            dx.append(d)
            db.append(_unbroadcast(d, bias_shape))
        return dx, db


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
    A ring instance is not :attr:`~repro.tensor.tensor.Function.rank_local`.
    """

    name = "scale_mask_softmax_dropout"
    rank_local = True

    def __init__(self, scale: float, p: float, mode: str = "replicated",
                 shard_axis: int = 1, tag: str = "",
                 mask_source: Optional[MaskSource] = None,
                 ring: bool = False):
        _check_dropout_args(p, mode)
        self.scale = float(scale)
        self.p = p
        self.mode = mode
        self.shard_axis = shard_axis
        self.tag = tag
        self.mask_source = mask_source
        self.ring = ring
        if ring:  # rank r's tril and the shape check read the world
            self.rank_local = False

    def _keep(self, shape, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.ring:
            return _offset_keep(shape[-2], shape[-1], rank * shape[-2])
        return _causal_keep(shape)

    def forward(self, fctx: FnCtx, x: ShardList) -> ShardList:
        arena = default_arena()
        shape = bk.shape_of(x[0])
        world = len(x)
        if self.ring:
            if len(shape) < 2 or shape[-1] != shape[-2] * world:
                raise ShapeError(
                    f"ring mask needs (..., s/w, s) scores across w={world} "
                    f"shards, got {shape}")
        elif len(shape) < 2 or shape[-1] != shape[-2]:
            raise ShapeError(f"causal mask needs (..., s, s) scores, got {shape}")
        abstract = bk.is_abstract(x[0])
        has_dropout = not (self.p == 0.0 and self.mask_source is None)
        y_list = []
        if abstract:
            # One output per rank, unlike the shared-list rule: run per
            # rank (a ring instance, or any under a memory profiler) a
            # rank-local class stays a per-rank map, as the per-rank oracle
            # of tests/test_rank_local.py pins.
            y_list = [bk.shaped(shape) for _ in range(world)]
        else:
            for r, xi in enumerate(x):
                _, masked_tril = self._keep(shape, r)
                t = arena.take(shape)
                np.multiply(xi, self.scale, out=t)
                np.copyto(t, CausalMask.MASKED_VALUE, where=masked_tril)
                np.subtract(t, bk.max_(t, axis=-1, keepdims=True), out=t)
                np.exp(t, out=t)
                y = np.empty(shape)
                np.divide(t, bk.sum_(t, axis=-1, keepdims=True), out=y)
                arena.give(t)
                y_list.append(y)
        fctx.misc["y_slot"] = fctx.save_new(y_list, FP16, category="softmax_output")
        n = bk.size_of(x[0])
        if not has_dropout:
            # Identity dropout: the output *is* the saved softmax output,
            # matching the unfused chain where Dropout passes buffers
            # through untouched (identity-dedup parity in the tracker).
            fctx.log_elementwise("scale_mask_softmax_dropout", bytes_moved=4 * n,
                                 flops_per_rank=6 * n, fused=True)
            fctx.misc["has_dropout"] = False
            return list(y_list)
        keep = 1.0 - self.p
        masks = _draw_masks(fctx, self.p, self.mode, self.shard_axis, self.tag,
                            self.mask_source, shape, world, abstract)
        fctx.misc["mask_slot"] = fctx.save_new(masks, MASK, category="dropout_mask")
        fctx.misc["keep"] = keep
        fctx.misc["has_dropout"] = True
        out = []
        for yi, m in zip(y_list, masks):
            if abstract:
                out.append(bk.shaped(shape))
                continue
            o = np.empty(shape)
            np.multiply(yi, m, out=o)
            np.divide(o, keep, out=o)
            out.append(o)
        fctx.log_elementwise("scale_mask_softmax_dropout", bytes_moved=7 * n,
                             flops_per_rank=8 * n, fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        arena = default_arena()
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
        if bk.is_abstract(grad[0]) or bk.is_abstract(y_list[0]):
            return ([bk.shaped(bk.shape_of(y_list[0]))] * len(grad),)
        out = []
        for r, (g, yi, m) in enumerate(zip(grad, y_list, masks)):
            shape = yi.shape
            keep_tril, _ = self._keep(shape, r)
            t1 = arena.take(shape)
            if has_dropout:
                np.multiply(g, m, out=t1)
                np.divide(t1, keep, out=t1)     # dropout bwd: g*m/keep
                gsm = t1
            else:
                gsm = g
            t2 = arena.take(shape)
            np.multiply(gsm, yi, out=t2)        # gy = g*y
            s_ = bk.sum_(t2, axis=-1, keepdims=True)
            np.multiply(yi, s_, out=t1)         # y*sum(gy)
            dx = np.empty(shape)
            np.subtract(t2, t1, out=dx)         # softmax bwd
            np.multiply(dx, keep_tril, out=dx)  # causal mask bwd
            np.multiply(dx, self.scale, out=dx)  # scale bwd
            arena.give(t1, t2)
            out.append(dx)
        return (out,)


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
    rank_local = True

    def __init__(self, eps: float = 1e-5):
        self.eps = eps

    def forward(self, fctx: FnCtx, x: ShardList, gamma: ShardList,
                beta: ShardList) -> ShardList:
        fctx.misc["x_slot"] = fctx.save_input(0, category="layernorm_input")
        fctx.misc["gamma_slot"] = fctx.save_input(1)
        out, stats = [], []
        for xi, gi, bi in zip(x, gamma, beta):
            if bk.is_abstract(xi):
                out.append(bk.shaped(bk.shape_of(xi)))
                stats.append(None)
                continue
            mu = bk.mean(xi, axis=-1, keepdims=True)
            y = np.empty(xi.shape)
            np.subtract(xi, mu, out=y)
            var = bk.mean(y * y, axis=-1, keepdims=True)  # == np.var, bitwise
            rstd = 1.0 / np.sqrt(var + self.eps)
            np.divide(y, np.sqrt(var + self.eps), out=y)
            np.multiply(y, gi, out=y)
            np.add(y, bi, out=y)
            out.append(y)
            stats.append((mu, rstd))
        fctx.misc["stats"] = stats
        w = _widths(fctx.inputs[0])[0]
        fctx.log_elementwise("fused_layernorm", bytes_moved=2 * w * bk.size_of(x[0]),
                             flops_per_rank=8 * bk.size_of(x[0]), fused=True)
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        arena = default_arena()
        x = fctx.saved(fctx.misc["x_slot"])
        gamma = fctx.saved(fctx.misc["gamma_slot"])
        stats = fctx.misc["stats"]
        n = bk.size_of(grad[0])
        fctx.log_elementwise("fused_layernorm.bwd", bytes_moved=6 * n,
                             flops_per_rank=12 * n, fused=True)
        dx, dgamma, dbeta = [], [], []
        for g, xi, gi, st in zip(grad, x, gamma, stats):
            if bk.is_abstract(g) or bk.is_abstract(xi):
                dx.append(bk.shaped(bk.shape_of(xi)))
                dgamma.append(bk.shaped(bk.shape_of(gi)))
                dbeta.append(bk.shaped(bk.shape_of(gi)))
                continue
            mu, rstd = st
            shape = xi.shape
            xhat = arena.take(shape)
            np.subtract(xi, mu, out=xhat)
            np.multiply(xhat, rstd, out=xhat)
            reduce_axes = tuple(range(xi.ndim - 1))
            t2 = arena.take(shape)
            np.multiply(g, xhat, out=t2)
            dgamma.append(bk.sum_(t2, axis=reduce_axes))
            dbeta.append(bk.sum_(g, axis=reduce_axes))
            np.multiply(g, gi, out=t2)          # dxhat
            m1 = bk.mean(t2, axis=-1, keepdims=True)
            t3 = arena.take(shape)
            np.multiply(t2, xhat, out=t3)
            m2 = bk.mean(t3, axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=t3)       # xhat*mean(dxhat*xhat)
            np.subtract(t2, m1, out=t2)
            np.subtract(t2, t3, out=t2)
            d = np.empty(shape)
            np.multiply(t2, rstd, out=d)
            arena.give(xhat, t2, t3)
            dx.append(d)
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
    rank_local = True

    def __init__(self, p: float, mode: str = "replicated", shard_axis: int = 0,
                 tag: str = "", mask_source: Optional[MaskSource] = None):
        _check_dropout_args(p, mode)
        self.p = p
        self.mode = mode
        self.shard_axis = shard_axis
        self.tag = tag
        self.mask_source = mask_source

    def forward(self, fctx: FnCtx, x: ShardList, residual: ShardList) -> ShardList:
        shape = bk.shape_of(x[0])
        world = len(x)
        abstract = bk.is_abstract(x[0])
        keep = 1.0 - self.p
        masks = _draw_masks(fctx, self.p, self.mode, self.shard_axis, self.tag,
                            self.mask_source, shape, world, abstract)
        fctx.misc["mask_slot"] = fctx.save_new(masks, MASK, category="dropout_mask")
        fctx.misc["keep"] = keep
        out = []
        for xi, m, res in zip(x, masks, residual):
            if abstract:
                out.append(bk.shaped(shape))
                continue
            o = np.empty(shape)
            np.multiply(xi, m, out=o)
            np.divide(o, keep, out=o)
            np.add(o, res, out=o)
            out.append(o)
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
        dx = []
        for g, m in zip(grad, masks):
            if bk.is_abstract(g):
                dx.append(bk.shaped(bk.shape_of(g)))
                continue
            d = np.empty(g.shape)
            np.multiply(g, m, out=d)
            np.divide(d, keep, out=d)
            dx.append(d)
        # Residual gradient is the incoming gradient itself (same buffers),
        # exactly like the unfused Add backward with equal shapes.
        return dx, list(grad)


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
    rank_local = True

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
        out = []
        for r, (li, ti) in enumerate(zip(logits, targets)):
            if bk.is_abstract(li):
                out.append(bk.shaped(()))
                continue
            shifted = li - bk.max_(li, axis=-1, keepdims=True)
            logz = np.log(bk.sum_(np.exp(shifted), axis=-1, keepdims=True))
            logp = shifted - logz
            picked = np.take_along_axis(logp, ti.astype(np.int64)[..., None],
                                        axis=-1)[..., 0]
            if self.has_mask:
                m = np.asarray(mask[r], dtype=np.float64)
                denom = m.sum()
                if denom == 0:
                    raise ShapeError("loss_mask masks out every token")
                out.append(np.asarray(-(picked * m).sum() / denom))
            else:
                out.append(np.asarray(-bk.mean(picked)))
        n = bk.size_of(logits[0])
        fctx.log_elementwise("softmax_xent", bytes_moved=4 * n,
                             flops_per_rank=5 * n, fused=True)
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
        return (out, None, None) if self.has_mask else (out, None)


def softmax_cross_entropy(logits: Tensor, targets: Tensor,
                          loss_mask: Optional[Tensor] = None) -> Tensor:
    """Fused cast+cross-entropy; ``logits`` may still be fp16 (accounting)."""
    if loss_mask is None:
        return apply(SoftmaxCrossEntropy(), logits, targets)
    return apply(SoftmaxCrossEntropy(has_mask=True), logits, targets, loss_mask)
