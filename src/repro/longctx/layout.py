"""Context-parallel layouts: Ulysses and ring attention.

Context parallelism shards *data*, not the model: every weight is
replicated (so weight gradients come out as per-chunk partial sums that
``finish_grad_sync`` all-reduces) and activations stay sequence-sharded
``(s/p, b, h)`` everywhere outside the attention core.  The two layouts
differ only in how the core sees the full sequence:

* **Ulysses** (DeepSpeed-Ulysses): an all-to-all turns the sequence
  shards into head shards ``(s, b, h/p)``, the unchanged core runs with
  ``a/p`` local heads (exactly the tensor-parallel head layout, so the
  proven-bitwise math is reused verbatim), and a second all-to-all
  restores sequence shards.  Per-layer traffic is 4 all-to-alls of
  ``O(s/p)`` bytes each — versus the ``O(s)`` all-gather/reduce-scatter
  pairs of sequence parallelism.
* **Ring attention**: Q stays sequence-sharded; K and V circulate around
  the ring (:class:`~repro.longctx.mappings.RingGather`) so each rank
  scores its ``s/p`` query rows against the full key sequence.  The
  causal mask becomes the row-blocked
  :func:`~repro.tensor.functions.offset_causal_mask`, and the softmax
  dropout mask is the rank's row-slice of the serial ``(b, a, s, s)``
  draw — making the whole panel bitwise equal to the serial rows.
"""

from __future__ import annotations

from ..comm.process_group import ProcessGroup
from ..errors import ConfigError
from ..layers.layout import Layout
from ..parallel.mappings import (
    gather_with_slice_backward,
    scatter_split_sequence,
)
from .mappings import (
    all_to_all_head_to_seq,
    all_to_all_seq_to_head,
    ring_gather,
)


class ContextParallel(Layout):
    """What Ulysses and ring share: replicated weights, a sequence-sharded
    residual stream, and a full-sequence (replicated) loss region."""

    stream_dropout = ("sharded", 0)

    def __init__(self, group: ProcessGroup):
        self.group = group
        self.sequence_shards = group.size

    def enter_stream(self, emb):
        # Token ids are replicated, so the lookup covers the full
        # sequence and each rank keeps its slice.
        return scatter_split_sequence(emb, self.group, axis=0)

    def enter_head(self, x):
        # The loss region is replicated, so each rank's backward just
        # takes its slice.
        return gather_with_slice_backward(x, self.group, axis=0)

    def partial_grad_params(self, model):
        """Every layer parameter sees only ``1/p`` of the sequence.
        Embedding and head gradients are already replicated (the
        scatter's backward all-gather and the gather's replicated loss
        region make every rank's copy identical) and must *not* be
        reduced again."""
        if self.group.size == 1:
            return []
        return [p for layer in model.layers for p in layer.parameters()]


class Ulysses(ContextParallel):
    """Sequence shards <-> head shards around the core.  The all-to-alls
    are inside the selectively recomputed region, so they replay in the
    recompute phase — where
    :func:`~repro.longctx.mappings.recompute_overlap_scope` can overlap
    them."""

    core_dropout = ("sharded", 1)  # the tensor-parallel head layout

    def local_heads(self, num_heads):
        p = self.group.size
        if num_heads % p != 0:
            raise ConfigError(
                f"Ulysses needs num_heads ({num_heads}) divisible by the "
                f"context-parallel size ({p})")
        return num_heads // p

    def enter_core(self, q, k, v):
        return (all_to_all_seq_to_head(q, self.group, label="a2a_q"),
                all_to_all_seq_to_head(k, self.group, label="a2a_k"),
                all_to_all_seq_to_head(v, self.group, label="a2a_v"))

    def exit_core(self, ctxt):
        return all_to_all_head_to_seq(ctxt, self.group, label="a2a_ctx")


class Ring(ContextParallel):
    """Local query rows against ring-gathered K/V.  Under selective
    recomputation only the local Q/K/V chunks are stored and the ``p-1``
    K/V hops replay inside the recompute phase (overlappable)."""

    core_dropout = ("sharded", 2)  # score rows are sequence-sharded
    row_blocked_scores = True

    def enter_core(self, q, k, v):
        return (q, ring_gather(k, self.group, axis=0, label="ring_k"),
                ring_gather(v, self.group, axis=0, label="ring_v"))


#: The context-parallel attention layouts by name.
LAYOUTS = {"ulysses": Ulysses, "ring": Ring}


def context_layout(name: str, context_parallel: int) -> ContextParallel:
    """The named layout over a fresh ``"cp"`` group of that size."""
    if name not in LAYOUTS:
        raise ConfigError(f"unknown context layout {name!r}")
    return LAYOUTS[name](ProcessGroup(context_parallel, scope="cp"))
