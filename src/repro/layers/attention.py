"""Multi-head self-attention (paper Figure 3) under any layout."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..fusion.ops import scale_mask_softmax_dropout
from ..tensor import Tensor, checkpoint
from ..tensor import functions as F
from ..tensor.functions import MaskSource
from .dropout import Dropout
from .layout import SERIAL, Layout
from .linear import Linear
from .module import Module


class CoreAttention(Module):
    """The attention core: QK^T -> scale -> causal mask -> softmax ->
    dropout -> attention-over-V.

    This is exactly the region the paper's *selective activation
    recomputation* checkpoints (the red dashed box of Figure 3): large
    activations (``5as^2b`` bytes), few FLOPs per element.  Inputs/outputs
    are ``(s, b, h_local)`` tensors; ``num_heads`` is the number of heads
    present locally (``a`` serial, ``a/t`` per tensor-parallel rank).

    The layout's ``enter_core`` / ``exit_core`` are part of the region
    (Ulysses all-to-alls, ring K/V gathers), so under selective
    recomputation they replay inside the recompute phase.  With
    ``row_blocked_scores`` the scores are ``(b, a, s/p, s)`` panels — row
    ``i`` on rank ``r`` is global row ``r*s/p + i``, masked by the offset
    tril and normalised rowwise, so every rank's panel is bitwise the
    corresponding rows of the serial ``(b, a, s, s)`` core.
    """

    def __init__(self, num_heads: int, attention_dropout: float,
                 tag: str = "core", mask_source: Optional[MaskSource] = None,
                 fused: bool = False, layout: Layout = SERIAL):
        self.num_heads = num_heads
        self.fused = fused
        self.layout = layout
        # The full mask shape is the serial (b, a, s, s) under every
        # layout, so the same tag draws the same serial mask.
        mode, shard_axis = layout.core_dropout
        self.dropout = Dropout(attention_dropout, mode=mode,
                               shard_axis=shard_axis,
                               tag=f"{tag}.softmax_dropout",
                               mask_source=mask_source)

    def forward(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        q, k, v = self.layout.enter_core(q, k, v)
        s_q, b, h_local = q.shape
        s = k.shape[0]
        a = self.num_heads
        d = h_local // a
        row_blocked = self.layout.row_blocked_scores
        # (s, b, h) -> (b, a, s, d) for Q and V; (b, a, d, s) for K^T.
        qr = F.transpose(F.reshape(q, (s_q, b, a, d)), (1, 2, 0, 3))
        kt = F.transpose(F.reshape(k, (s, b, a, d)), (1, 2, 3, 0))
        vr = F.transpose(F.reshape(v, (s, b, a, d)), (1, 2, 0, 3))
        # QK^T saves Q and K (the paper's 4sbh); its output is not saved
        # because the scale/mask save nothing and softmax saves its output.
        scores = F.matmul(qr, kt, category="attn_qk")
        if self.fused:
            dp = self.dropout
            probs = scale_mask_softmax_dropout(
                scores, 1.0 / math.sqrt(d), dp.p, mode=dp.mode,
                shard_axis=dp.shard_axis, tag=dp.tag,
                mask_source=dp.mask_source, ring=row_blocked)
        else:
            scores = F.scale(scores, 1.0 / math.sqrt(d))
            mask = F.offset_causal_mask if row_blocked else F.causal_mask
            probs = F.softmax(mask(scores))  # saves output: 2*a*s^2*b bytes
            probs = self.dropout(probs)      # saves mask:     a*s^2*b bytes
        ctxt = F.matmul(probs, vr, category="attn_context")  # saves probs-out + V
        ctxt = F.transpose(ctxt, (2, 0, 1, 3))               # (s, b, a, d)
        return self.layout.exit_core(F.reshape(ctxt, (s_q, b, h_local)))


class SelfAttention(Module):
    """Q/K/V projections + attention core + output projection.

    The projections open a tensor-parallel region (three ``(h, h)``
    column projections, or one fused ``(h, 3h)`` under layouts with
    ``fused_qkv``) and ``wo`` closes it; in between the core runs on the
    layout's local heads.

    ``selective=True`` (the owning layer's recompute strategy, read at
    each call) is selective activation recomputation: the core runs
    under ``checkpoint`` so only its inputs (Q, K, V) are stored and the
    ``5as^2b`` internals are rebuilt during backward.
    """

    def __init__(self, hidden_size: int, num_heads: int,
                 attention_dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None,
                 abstract: bool = False, tag: str = "attn",
                 mask_source: Optional[MaskSource] = None,
                 fused: bool = False, layout: Layout = SERIAL):
        if hidden_size % num_heads != 0:
            raise ConfigError(
                f"hidden_size ({hidden_size}) must be divisible by "
                f"num_heads ({num_heads})")
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.tag = tag
        self.layout = layout
        local_heads = layout.local_heads(num_heads)

        def projection(name, out_features, init, split="column",
                       category="attn_qkv_input"):
            return Linear(hidden_size, out_features, rng=init,
                          abstract=abstract, category=category,
                          name=f"{tag}.{name}", layout=layout, split=split)

        if layout.fused_qkv:
            fused_init = (None if abstract
                          else layout.fused_qkv_init(rng, hidden_size, tag))
            self.qkv = projection("qkv", 3 * hidden_size, fused_init)
        else:
            self.wq = projection("wq", hidden_size, rng)
            self.wk = projection("wk", hidden_size, rng)
            self.wv = projection("wv", hidden_size, rng)
        self.wo = projection("wo", hidden_size, rng, split="row",
                             category="attn_proj_input")
        self.core = CoreAttention(local_heads, attention_dropout, tag=tag,
                                  mask_source=mask_source, fused=fused,
                                  layout=layout)

    def project_qkv(self, x: Tensor, apply=Linear.__call__):
        """Q, K and V of ``x``; ``apply=Linear.decode`` takes the
        single-token projection surface."""
        if self.layout.fused_qkv:
            return F.split(apply(self.qkv, x), 3, axis=-1)
        return apply(self.wq, x), apply(self.wk, x), apply(self.wv, x)

    def forward(self, x: Tensor, selective: bool) -> Tensor:
        q, k, v = self.project_qkv(x)
        if selective:
            ctxt = checkpoint(self.core.forward, q, k, v, label=f"{self.tag}.core")
        else:
            ctxt = self.core(q, k, v)
        return self.wo(ctxt)
