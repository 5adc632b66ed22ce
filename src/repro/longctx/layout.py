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

Each class is also the one statement of what its layout costs: the
transfers one layer's forward issues
(:meth:`ContextParallel.forward_calls`), from which follow its traced
bytes, the recompute replay, the overlap model's and the chooser's call
counts and prices, which traced comm spans are its own, and its
Equation-4 memory groups.  Analytic callers holding only a name reach
the class through :data:`LAYOUTS`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..comm.process_group import ProcessGroup
from ..config import ModelConfig
from ..errors import ConfigError
from ..layers.layout import Layout
from ..layers.transformer import Recompute
from ..memory_model.activations import per_layer_term_groups
from ..parallel.mappings import (
    gather_with_slice_backward,
    scatter_split_sequence,
)
from .mappings import (
    all_to_all_head_to_seq,
    all_to_all_seq_to_head,
    ring_gather,
)

#: Accounting wire width (FP16 activations).
WIRE_BYTES = 2


class ContextParallel(Layout):
    """What Ulysses and ring share: replicated weights, a sequence-sharded
    residual stream, and a full-sequence (replicated) loss region.

    Per layer, per rank, the forward issues :meth:`forward_calls`
    transfers of one ``2sbh/p`` shard each; the backward issues as many,
    and a checkpointed core replays the forward ones while recomputing.
    The classmethods below derive every cost from that one count."""

    stream_dropout = ("sharded", 0)
    #: The layout's name in :data:`LAYOUTS` and on the command line.
    name = ""
    #: Re-shard collectives per layer forward (Ulysses' all-to-alls,
    #: ring's gathers), each of :meth:`hops` calls.
    forward_collectives = 0
    #: Asymptotic per-rank volume in ``s`` and ``p``.
    scaling = ""

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

    @staticmethod
    def hops(p: int) -> int:
        """Calls one collective makes over a group of ``p``."""
        return 1

    @classmethod
    def forward_calls(cls, p: int) -> int:
        """Transfers one layer's forward issues per rank (none alone)."""
        return 0 if p == 1 else cls.forward_collectives * cls.hops(p)

    @classmethod
    def calls_per_layer(cls, p: int) -> int:
        """Forward + backward transfers per layer per rank."""
        return 2 * cls.forward_calls(p)

    @staticmethod
    def shard_bytes(model: ModelConfig, microbatch_size: int, p: int) -> int:
        """Bytes of one transfer: a ``2sbh/p`` sequence shard."""
        return (WIRE_BYTES * model.seq_length * microbatch_size
                * model.hidden_size // p)

    @staticmethod
    def _bytes(calls: int, model: ModelConfig, microbatch_size: int,
               p: int) -> float:
        sbh = float(model.seq_length * microbatch_size * model.hidden_size)
        return calls * WIRE_BYTES * sbh / p

    @classmethod
    def layer_bytes(cls, model: ModelConfig, microbatch_size: int,
                    p: int) -> float:
        """Forward + backward traced bytes per layer per rank (no
        recompute); ``tests/test_longctx.py`` asserts them against the
        tracer's comm spans."""
        return cls._bytes(cls.calls_per_layer(p), model, microbatch_size, p)

    @classmethod
    def replay_bytes(cls, model: ModelConfig, microbatch_size: int,
                     p: int) -> float:
        """The forward re-shard a checkpointed core replays while
        recomputing (the traffic the overlap scheduler can hide)."""
        return cls._bytes(cls.forward_calls(p), model, microbatch_size, p)

    @classmethod
    def call_seconds(cls, comm, shard: int, p: int) -> float:
        """One transfer of ``shard`` bytes, priced on the ``"cp"`` links
        of :class:`~repro.comm.CollectiveCostModel` ``comm``."""
        raise NotImplementedError

    @staticmethod
    def owns_span(name: str) -> bool:
        """Whether a traced comm span of this ``name`` is the layout's."""
        raise NotImplementedError

    @classmethod
    def exposed_seconds(cls, comm, shard: int, p: int) -> float:
        """The layout chooser's exposed comm seconds per layer (``p > 1``):
        every transfer blocks the core."""
        return cls.calls_per_layer(p) * cls.call_seconds(comm, shard, p)

    @classmethod
    def unfit(cls, model: ModelConfig, p: int) -> Optional[str]:
        """Why the layout cannot shard ``model`` over ``p``, or ``None``."""
        return None

    @classmethod
    def term_groups(cls, model: ModelConfig, microbatch_size: int, p: int,
                    recompute: Recompute) -> Dict[str, float]:
        """Per-layer activation bytes per rank per observable term group:
        Equation 4 with ``p`` in place of ``t``.  Every stored tensor is a
        ``1/p`` shard, and selective recomputation checkpoints the core
        *including* the re-shard, so only the local Q/K/V chunks stay."""
        return per_layer_term_groups(model, microbatch_size, p, p > 1,
                                     recompute)


class Ulysses(ContextParallel):
    """Sequence shards <-> head shards around the core.  The all-to-alls
    are inside the selectively recomputed region, so they replay in the
    recompute phase — where
    :func:`~repro.longctx.mappings.recompute_overlap_scope` can overlap
    them."""

    core_dropout = ("sharded", 1)  # the tensor-parallel head layout
    name = "ulysses"
    forward_collectives = 4  # Q, K, V in; context out
    scaling = "O(sbh/p)"

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

    @classmethod
    def call_seconds(cls, comm, shard, p):
        return comm.all_to_all_time(shard, p, scope="cp")

    @classmethod
    def unfit(cls, model, p):
        if model.num_heads % p:
            return f"num_heads {model.num_heads} not divisible by group {p}"
        return None

    @staticmethod
    def owns_span(name: str) -> bool:
        return name == "all_to_all"


class Ring(ContextParallel):
    """Local query rows against ring-gathered K/V.  Under selective
    recomputation only the local Q/K/V chunks are stored and the ``p-1``
    K/V hops replay inside the recompute phase (overlappable)."""

    core_dropout = ("sharded", 2)  # score rows are sequence-sharded
    row_blocked_scores = True
    name = "ring"
    forward_collectives = 2  # K and V
    scaling = "O(sbh (p-1)/p)"

    def enter_core(self, q, k, v):
        return (q, ring_gather(k, self.group, axis=0, label="ring_k"),
                ring_gather(v, self.group, axis=0, label="ring_v"))

    @staticmethod
    def hops(p):
        return p - 1

    @classmethod
    def call_seconds(cls, comm, shard, p):
        return comm.p2p_time(shard, scope="cp")

    # The two ring prices disagree above p = 2.  The overlap model
    # (``pipeline_sim.overlap.longctx_overlap_segments``) prices every
    # hop at ``call_seconds``; the chooser below pays full price only for
    # each gather's fill hop, since steady hops are prefetched under the
    # previous chunk's core.  For 22B at s = 32768, exposed seconds per
    # layer read 2.76 ms from both at p = 2, but 1.57 ms (chooser)
    # against 4.25 ms (overlap) at p = 4 and 1.20 against 5.23 ms at p = 8.
    @classmethod
    def exposed_seconds(cls, comm, shard, p):
        gathers = 2 * cls.forward_collectives  # forward + backward
        return (gathers * comm.p2p_time(shard, scope="cp")
                + gathers * (p - 2) * comm.p2p_time(0, scope="cp"))

    @staticmethod
    def owns_span(name: str) -> bool:
        return "hop" in name

    @classmethod
    def term_groups(cls, model, microbatch_size, p, recompute):
        """Equation 4's groups, except that without recomputation K and V
        are the ring-gathered full sequence on every rank (this
        simulator's gather; a streaming ring holds one block at a time):
        the attention group holds ``2sbh/p + 4sbh + 4as^2b/p``, and the
        layer sums to ``sbh/p (30 + 4p + 5as/h)``."""
        groups = super().term_groups(model, microbatch_size, p, recompute)
        if Recompute(recompute) is Recompute.NONE:
            s, b = model.seq_length, microbatch_size
            sbh = float(s * b * model.hidden_size)
            core = float(model.num_heads * s * s * b) / p
            groups["attn_qkv_and_core"] = (2.0 * (sbh / p) + 4.0 * sbh
                                           + 4.0 * core)
        return groups


class _Layouts(dict):
    def __missing__(self, name):
        raise ConfigError(f"unknown context layout {name!r}")


#: The context-parallel attention layouts by name; an unknown name is a
#: :class:`~repro.errors.ConfigError`.
LAYOUTS = _Layouts((cls.name, cls) for cls in (Ulysses, Ring))


def context_layout(name: str, context_parallel: int) -> ContextParallel:
    """The named layout over a fresh ``"cp"`` group of that size."""
    return LAYOUTS[name](ProcessGroup(context_parallel, scope="cp"))
