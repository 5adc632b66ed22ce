"""Vocab-parallel cross entropy over vocabulary-sharded logits.

Each rank holds logits for its slice of the vocabulary; the loss is
assembled with three small all-reduces (max, sum-exp, target-logit) of
``s*b`` elements each — the Megatron-LM construction that avoids ever
materializing full-vocabulary logits on one rank.  The fp32 logits saved
per rank are the paper's ``4sbv/t`` term.
"""

from __future__ import annotations

import math

import numpy as np

from ..comm.process_group import ProcessGroup
from ..errors import ShapeError
from ..tensor import FP32, Tensor
from ..tensor import backend as bk
from ..tensor.tensor import FnCtx, Function, ShardList, apply, comm


class VocabParallelCrossEntropy(Function):
    """(Masked) token-mean CE from vocab-sharded fp32 logits ``(s,b,v/t)``."""

    name = "vocab_parallel_cross_entropy"

    def __init__(self, group: ProcessGroup, has_mask: bool = False):
        self.group = group
        self.has_mask = has_mask

    def forward_cost(self, fctx: FnCtx, shapes, widths):
        nbytes = 4 * math.prod(shapes[0][:-1])  # one fp32 per token
        return tuple(comm(name, "all_reduce", nbytes, self.group.size, scope=self.group.scope)
                     for name in ("ce.max", "ce.sumexp", "ce.target"))

    def forward(self, fctx: FnCtx, logits: ShardList, targets: ShardList,
                mask=None) -> ShardList:
        self.group.check_world(len(logits))
        fctx.misc["logits_slot"] = fctx.save_input(0, category="logits")
        fctx.misc["targets_slot"] = fctx.save_input(1, category="targets")
        if self.has_mask:
            fctx.misc["mask_slot"] = fctx.save_input(2, category="loss_mask")
        fctx.out_dtypes = [FP32]

        if bk.is_abstract(logits[0]):
            return [bk.shaped(())] * len(logits)

        vpr = bk.shape_of(logits[0])[-1]
        gmax = np.maximum.reduce([bk.max_(l, axis=-1) for l in logits])
        sumexp = sum(bk.sum_(np.exp(l - gmax[..., None]), axis=-1) for l in logits)
        tlogit = np.zeros_like(gmax)
        for r, (l, t) in enumerate(zip(logits, targets)):
            lo = r * vpr
            in_range = (t >= lo) & (t < lo + vpr)
            local = np.clip(t.astype(np.int64) - lo, 0, vpr - 1)
            tlogit = tlogit + bk.take_along_last(l, local) * in_range
        per_token = gmax + np.log(sumexp) - tlogit
        if self.has_mask:
            m = np.asarray(mask[0], dtype=np.float64)
            denom = m.sum()
            if denom == 0:
                raise ShapeError("loss_mask masks out every token")
            loss = float((per_token * m).sum() / denom)
        else:
            loss = float(bk.mean(per_token))
        fctx.misc["stats"] = (gmax, sumexp)
        return [np.asarray(loss)] * len(logits)

    def backward(self, fctx: FnCtx, grad: ShardList):
        logits = fctx.saved(fctx.misc["logits_slot"])
        targets = fctx.saved(fctx.misc["targets_slot"])
        loss_masks = fctx.saved(fctx.misc["mask_slot"]) if self.has_mask else None
        n_grads = 3 if self.has_mask else 2
        if bk.is_abstract(logits[0]):
            grads = [bk.shaped(bk.shape_of(logits[0]))] * len(logits)
            return (grads,) + (None,) * (n_grads - 1)
        gmax, sumexp = fctx.misc["stats"]
        vpr = bk.shape_of(logits[0])[-1]
        n_tokens = int(np.prod(bk.shape_of(logits[0])[:-1]))
        out = []
        for r, (g, l, t) in enumerate(zip(grad, logits, targets)):
            p = np.exp(l - gmax[..., None]) / sumexp[..., None]
            lo = r * vpr
            in_range = (t >= lo) & (t < lo + vpr)
            local = np.clip(t.astype(np.int64) - lo, 0, vpr - 1)
            onehot = np.zeros_like(p)
            np.put_along_axis(onehot, local[..., None], 1.0, axis=-1)
            onehot = onehot * in_range[..., None]
            scale = np.asarray(g, dtype=np.float64)
            if self.has_mask:
                m = np.asarray(loss_masks[r], dtype=np.float64)
                out.append((p - onehot) * m[..., None] * (scale / m.sum()))
            else:
                out.append((p - onehot) * (scale / n_tokens))
        return (out,) + (None,) * (n_grads - 1)


def vocab_parallel_cross_entropy(logits: Tensor, targets: Tensor,
                                 group: ProcessGroup,
                                 loss_mask: Tensor = None) -> Tensor:
    """(Masked) mean CE; ``logits`` must already be fp32 and vocab-sharded."""
    if loss_mask is None:
        return apply(VocabParallelCrossEntropy(group), logits, targets)
    return apply(VocabParallelCrossEntropy(group, has_mask=True),
                 logits, targets, loss_mask)
