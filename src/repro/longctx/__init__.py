"""Long-context parallelism: Ulysses head-sequence re-sharding, ring
attention, and recompute/communication overlap (arXiv 2406.08756).

The sequence dimension is sharded across a ``"cp"``
:class:`~repro.comm.ProcessGroup`; attention sees the full sequence via
all-to-alls (Ulysses) or ring P2P hops, both verified bitwise against
the serial model.  See ``docs/long_context.md``.
"""

from .layout import ContextParallel, Ring, Ulysses
from .mappings import (
    all_to_all_head_to_seq,
    all_to_all_seq_to_head,
    recompute_overlap_scope,
    ring_gather,
)
from .model import LongContextGPTModel
from .volume import layout_volumes, sp_layer_bytes

__all__ = [
    "ContextParallel", "LongContextGPTModel", "Ring", "Ulysses",
    "all_to_all_head_to_seq", "all_to_all_seq_to_head", "layout_volumes",
    "recompute_overlap_scope", "ring_gather", "sp_layer_bytes",
]
