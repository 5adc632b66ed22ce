"""The vocab-parallel embedding lookup (Section 4.3)."""

from __future__ import annotations

import numpy as np

from ..tensor import backend as bk
from ..tensor.tensor import FnCtx, Function, ShardList


def _local_rows(ids: np.ndarray, rank: int, rows_per_rank: int):
    """``ids`` as row numbers of rank ``rank``'s table slice, clamped
    into range, and the mask of the ids that slice really owns."""
    lo = rank * rows_per_rank
    local = ids - lo                    # a fresh array, clamped in place
    np.maximum(local, 0, out=local)
    np.minimum(local, rows_per_rank - 1, out=local)
    return local, (ids >= lo) & (ids < lo + rows_per_rank)


class VocabParallelLookup(Function):
    """Per-rank masked lookup into a row-sharded embedding table.

    Rank ``r`` owns vocabulary rows ``[r*v/t, (r+1)*v/t)``; ids outside its
    range contribute zeros.  The per-rank partial embeddings are summed by
    ``f̄`` afterwards.  Saves only the integer ids (the masks are
    recomputed from them in backward).
    """

    name = "vocab_parallel_lookup"

    def forward(self, fctx: FnCtx, weight: ShardList, ids: ShardList) -> ShardList:
        fctx.misc["ids_slot"] = fctx.save_input(1, category="embedding_ids")
        w_shape = bk.shape_of(weight[0])
        fctx.misc["w_shape"] = w_shape
        if bk.is_abstract(weight[0]) or bk.is_abstract(ids[0]):
            return [bk.shaped(bk.shape_of(ids[0]) + w_shape[1:])] * len(weight)
        rows_per_rank = w_shape[0]
        out = []
        for r, (w, i) in enumerate(zip(weight, ids)):
            local, mask = _local_rows(i, r, rows_per_rank)
            out.append(bk.take_rows(w, local) * mask[..., None])
        return out

    def backward(self, fctx: FnCtx, grad: ShardList):
        ids = fctx.saved(fctx.misc["ids_slot"])
        w_shape = fctx.misc["w_shape"]
        if bk.is_abstract(grad[0]) or bk.is_abstract(ids[0]):
            return [bk.shaped(w_shape)] * len(grad), None
        rows_per_rank = w_shape[0]
        dw = []
        for r, (g, i) in enumerate(zip(grad, ids)):
            local, mask = _local_rows(i, r, rows_per_rank)
            dw.append(bk.index_add_rows(w_shape, local, g * mask[..., None]))
        return dw, None
