"""The tensor-parallel layout (Megatron-LM [19], Figures 4-6), with the
paper's sequence parallelism as a switch on the region boundaries.

Heads, MLP columns and vocabulary rows are partitioned across the group:
region-opening projections are split by columns (``A = [A_1^c, A_2^c]``,
each rank multiplying the full input, obtained by ``f`` or ``g``),
region-closing ones by rows (``B = [B_1^r; B_2^r]``, partial products
combined by ``f̄`` or ``ḡ``).  ``sequence_parallel`` changes nothing but
which conjugate pair sits on the boundaries and that the stream between
regions holds sequence shards (Section 4.2.2).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..comm.process_group import ProcessGroup
from ..errors import ConfigError
from ..layers.layout import Layout, draw
from ..tensor import FP32, Tensor, checkpoint
from ..tensor import functions as F
from ..tensor.backend import AbstractArray, split
from ..tensor.tensor import apply
from .embedding import VocabParallelLookup
from .loss import vocab_parallel_cross_entropy
from .mappings import (
    all_gather_matmul,
    copy_to_tensor_parallel_region,
    gather_from_sequence_parallel_region,
    gather_with_slice_backward,
    reduce_from_tensor_parallel_region,
    scatter_split_sequence,
    scatter_to_sequence_parallel_region,
)


def fuse_qkv(wq: np.ndarray, wk: np.ndarray, wv: np.ndarray, t: int) -> np.ndarray:
    """Arrange separate Q/K/V weights ``(h, h)`` into one fused ``(h, 3h)``
    matrix whose ``i``-th column-parallel block is
    ``[wq_cols_i | wk_cols_i | wv_cols_i]`` — so a plain column split
    hands each rank its own heads' projections."""
    h = wq.shape[1]
    if h % t != 0:
        raise ConfigError(f"hidden size {h} not divisible by t={t}")
    per = h // t
    blocks = []
    for i in range(t):
        sl = slice(i * per, (i + 1) * per)
        blocks.extend([wq[:, sl], wk[:, sl], wv[:, sl]])
    return np.concatenate(blocks, axis=1)


def fuse_qkv_bias(bq: np.ndarray, bk_: np.ndarray, bv: np.ndarray, t: int) -> np.ndarray:
    per = bq.shape[0] // t
    blocks = []
    for i in range(t):
        sl = slice(i * per, (i + 1) * per)
        blocks.extend([bq[sl], bk_[sl], bv[sl]])
    return np.concatenate(blocks)


class TensorParallel(Layout):
    """``t``-way tensor parallelism, optionally with sequence parallelism.

    ``fuse_sp_gather`` is the "store ``Y_i^s`` only" optimization: the
    fused all-gather-matmul saves only the local sequence shard.  Disable
    it to ablate — a separate ``g`` followed by a plain matmul stores the
    **full** gathered input on every rank.
    """

    fused_qkv = True
    core_dropout = ("sharded", 1)  # heads are sharded

    def __init__(self, group: ProcessGroup, sequence_parallel: bool = False,
                 fuse_sp_gather: bool = True):
        self.group = group
        self.sequence_parallel = sequence_parallel
        self.fuse_sp_gather = fuse_sp_gather
        if sequence_parallel:
            self.stream_dropout = ("sharded", 0)
            self.sequence_shards = group.size

    # -- weight placement ----------------------------------------------------
    def place(self, full, shape, axis, name):
        if axis is None:
            return super().place(full, shape, axis, name)
        t = self.group.size
        if shape[axis] % t != 0:
            raise ConfigError(
                f"{name} {shape}: dimension {axis} is not divisible by the "
                f"tensor-parallel size {t}")
        tag = f"shard(dim={axis})"
        if full is None:
            shard_shape = list(shape)
            shard_shape[axis] //= t
            return [AbstractArray(shard_shape)] * t, tag
        # Explicit copies: an axis-0 split is a contiguous *view* of the
        # source weight, and parameter shards must own their storage (the
        # optimizer updates them in place).
        return [p.copy() for p in split(full, t, axis)], tag

    def fused_qkv_init(self, rng, hidden_size: int, tag: str) -> dict:
        """The fused QKV projection's initial value: the three serial
        projections, drawn in the serial order, interleaved per rank."""
        w, b = [], []
        for name in ("wq", "wk", "wv"):
            w.append(draw(rng, (hidden_size, hidden_size), f"{tag}.{name}.weight"))
            b.append(draw(rng, (hidden_size,), f"{tag}.{name}.bias"))
        t = self.group.size
        return {f"{tag}.qkv.weight": fuse_qkv(*w, t),
                f"{tag}.qkv.bias": fuse_qkv_bias(*b, t)}

    # -- GEMM regions --------------------------------------------------------
    def matmul(self, x, weight, split, category):
        if split == "column" and self.sequence_parallel:
            if self.fuse_sp_gather:
                return all_gather_matmul(x, weight, self.group, axis=0,
                                         category=category)
            x = gather_from_sequence_parallel_region(x, self.group, axis=0)
        elif split == "column":
            x = copy_to_tensor_parallel_region(x, self.group)
        y = F.matmul(x, weight, category=category)
        if split != "row":
            return y
        if self.sequence_parallel:
            return scatter_to_sequence_parallel_region(y, self.group, axis=0)
        return reduce_from_tensor_parallel_region(y, self.group)

    def decode_matmul(self, x, weight, split):
        y = F.matmul(x, weight)
        if split == "row":
            y = reduce_from_tensor_parallel_region(y, self.group)
        return y

    # -- embedding, residual stream, head ------------------------------------
    def lookup(self, word, ids):
        partial = apply(VocabParallelLookup(), word, ids)
        return reduce_from_tensor_parallel_region(partial, self.group)

    def enter_stream(self, emb):
        if self.sequence_parallel:
            return scatter_split_sequence(emb, self.group, axis=0)
        return emb

    def cross_entropy(self, logits, targets, loss_mask, fused):
        # Never the fused kernel: the all-reduces between the local
        # max / sum-exp stages make the vocab-parallel loss a different
        # (already multi-kernel-aware) op.
        return vocab_parallel_cross_entropy(F.cast(logits, FP32), targets,
                                            self.group, loss_mask=loss_mask)

    def full_logits(self, logits):
        return np.concatenate([np.asarray(s) for s in logits.shards], axis=-1)

    # -- attention core ------------------------------------------------------
    def local_heads(self, num_heads):
        t = self.group.size
        if num_heads % t != 0:
            raise ConfigError(f"num_heads {num_heads} not divisible by t={t}")
        return num_heads // t

    # -- recomputation and gradient sync -------------------------------------
    def sharded_checkpoint(self, body, x, label):
        if self.sequence_parallel:
            # With SP the input is already a 1/t sequence shard; the
            # sharded variant degenerates to plain full recomputation.
            return checkpoint(body, x, label=label)
        # Section 5's rejected alternative: keep only a 1/t slice of
        # the (replicated) layer input per rank (2sbh/t) and pay an
        # extra all-gather per layer during recomputation.  The
        # gradient flowing out of the layer body is replicated (the
        # body contains f), so the gather's backward is a local slice.
        x_shard = scatter_split_sequence(x, self.group, axis=0)
        return checkpoint(
            lambda xs: body(gather_with_slice_backward(xs, self.group, axis=0)),
            x_shard, label=label)

    def partial_grad_params(self, model) -> List[Tensor]:
        """Under SP the layer-norms and the row-parallel biases see only
        a sequence shard each; without it those computations are
        replicated and gradients already agree across ranks."""
        if not self.sequence_parallel:
            return []
        params = []
        for layer in model.layers:
            params += [layer.ln1.gamma, layer.ln1.beta,
                       layer.ln2.gamma, layer.ln2.beta,
                       layer.attn.wo.bias, layer.mlp.fc2.bias]
        return params + [model.head.ln_f.gamma, model.head.ln_f.beta]
