"""Fused-operator execution engine for the autograd substrate.

Three pieces, used together or separately:

* :mod:`repro.fusion.ops` — fused autograd ``Function`` nodes
  (bias+GeLU, scale+mask+softmax+dropout, single-pass LayerNorm,
  residual dropout+add, softmax+cross-entropy).  Each registers the
  *same logical saved tensors* with the memory tracker as the unfused
  chain it replaces, so the paper's Eq. 1-4 accounting is preserved by
  construction while the tape shrinks and temporaries disappear.
* :mod:`repro.fusion.passes` — a tape-level rewrite that turns an
  unfused op log into the log a fused run would have produced; used to
  prove the two representations agree and to cost fused execution from
  unfused traces.
* :mod:`repro.fusion.arena` — a zero-copy scratch-buffer arena the
  fused kernels draw temporaries from, with optional TraceEvent
  recording for :func:`repro.allocator.replay`.

Layers in :mod:`repro.layers` and :mod:`repro.parallel` opt in via a
``fused=True`` config flag threaded through their constructors.
"""

from .arena import SCRATCH_CATEGORY, BufferArena, default_arena, reset_arena
from .ops import (
    bias_gelu,
    dropout_add,
    fused_layernorm,
    scale_mask_softmax_dropout,
    softmax_cross_entropy,
)
from .passes import fuse_records, fusion_report

__all__ = [
    "SCRATCH_CATEGORY",
    "BufferArena",
    "default_arena",
    "reset_arena",
    "bias_gelu",
    "dropout_add",
    "fused_layernorm",
    "scale_mask_softmax_dropout",
    "softmax_cross_entropy",
    "fuse_records",
    "fusion_report",
]
