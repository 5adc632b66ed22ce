"""Transformer layer and full GPT language model (paper Figure 2).

One block stack serves every parallel layout: the math below never
changes, and a :class:`~repro.layers.layout.Layout` decides where the
weights live and which conjugate operators sit on the region boundaries
(the paper's Section 4.2.2 argument — sequence parallelism only swaps
``f``/``f̄`` for ``g``/``ḡ``).  Under the serial layout this is the
gold-standard reference the parallel layouts are verified bitwise
against.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

import numpy as np

from ..comm import all_reduce
from ..config import ModelConfig
from ..errors import ConfigError
from ..fusion.ops import dropout_add
from ..tensor import FP32, Tensor, checkpoint
from ..tensor import functions as F
from ..tensor.functions import MaskSource
from .attention import SelfAttention
from .dropout import Dropout
from .embedding import GPTEmbedding
from .layernorm import LayerNorm
from .layout import SERIAL, Layout
from .linear import Linear
from .mlp import MLP
from .module import Module


class Recompute(str, Enum):
    """Activation recomputation strategy (paper Sections 1 and 5)."""

    NONE = "none"            # store everything (baseline-no-recompute)
    SELECTIVE = "selective"  # checkpoint only the attention core (Fig. 3)
    FULL = "full"            # checkpoint each whole transformer layer
    #: The variant the paper mentions and rejects (Section 5): store only a
    #: 1/t sequence-slice of the checkpointed layer input on each tensor-
    #: parallel rank (2sbhL/t) at the cost of an extra all-gather per layer
    #: during recomputation.  Only meaningful without sequence parallelism
    #: (with SP the input is already sharded).
    FULL_SHARDED = "full_sharded"


class TransformerLayer(Module):
    """One pre-LN transformer layer: LN -> attention -> dropout -> residual
    -> LN -> MLP -> dropout -> residual (paper Figure 2).

    Layer-norms, residual adds and post-block dropouts run on whatever the
    layout's residual stream holds: the whole sequence replicated on every
    rank (the ``10sbh`` of Equation 2) or sequence shards (Equation 4
    divides everything by ``t``).
    """

    def __init__(self, hidden_size: int, num_heads: int,
                 attention_dropout: float = 0.1, hidden_dropout: float = 0.1,
                 recompute: Recompute = Recompute.NONE,
                 rng: Optional[np.random.Generator] = None,
                 abstract: bool = False, tag: str = "layer",
                 mask_source: Optional[MaskSource] = None,
                 fused: bool = False, layout: Layout = SERIAL):
        self.recompute = Recompute(recompute)
        self.tag = tag
        self.fused = fused
        self.layout = layout
        world = layout.group.size
        mode, shard_axis = layout.stream_dropout

        def dropout(name):
            return Dropout(hidden_dropout, mode=mode, shard_axis=shard_axis,
                           tag=f"{tag}.{name}", mask_source=mask_source)

        self.ln1 = LayerNorm(hidden_size, abstract=abstract, world=world,
                             name=f"{tag}.ln1", fused=fused)
        self.attn = SelfAttention(
            hidden_size, num_heads, attention_dropout=attention_dropout,
            rng=rng, abstract=abstract, tag=f"{tag}.attn", mask_source=mask_source,
            fused=fused, layout=layout,
        )
        self.attn_dropout = dropout("attn_dropout")
        self.ln2 = LayerNorm(hidden_size, abstract=abstract, world=world,
                             name=f"{tag}.ln2", fused=fused)
        self.mlp = MLP(hidden_size, rng=rng, abstract=abstract, tag=f"{tag}.mlp",
                       fused=fused, layout=layout)
        self.mlp_dropout = dropout("mlp_dropout")

    def _residual(self, out: Tensor, x: Tensor, dropout: Dropout) -> Tensor:
        if self.fused:
            if dropout.p == 0.0 and dropout.mask_source is None:
                return F.add(out, x)  # dropout is identity: nothing to fuse
            return dropout_add(out, x, dropout.p, mode=dropout.mode,
                               shard_axis=dropout.shard_axis, tag=dropout.tag,
                               mask_source=dropout.mask_source)
        return F.add(dropout(out), x)

    def _body(self, x: Tensor) -> Tensor:
        attn_out = self.attn(self.ln1(x),
                             self.recompute == Recompute.SELECTIVE)
        x = self._residual(attn_out, x, self.attn_dropout)
        mlp_out = self.mlp(self.ln2(x))
        return self._residual(mlp_out, x, self.mlp_dropout)

    def forward(self, x: Tensor) -> Tensor:
        if self.recompute == Recompute.FULL:
            # Full activation recomputation: store only the layer input
            # (2sbh) and rebuild everything in backward.
            return checkpoint(self._body, x, label=self.tag)
        if self.recompute == Recompute.FULL_SHARDED:
            return self.layout.sharded_checkpoint(self._body, x, self.tag)
        return self._body(x)


def abstract_layer(layout: Layout, model: ModelConfig, microbatch_size: int,
                   **layer_kwargs) -> Tuple[TransformerLayer, Tensor]:
    """One shape-only :class:`TransformerLayer` of ``model`` under
    ``layout`` and an input for it — the probe the layer-timing, memory
    drift, memory-profiler and allocator instruments all run.
    ``layer_kwargs`` go to the layer (``recompute``, ``fused``, ``tag``,
    dropout rates)."""
    layer = TransformerLayer(model.hidden_size, model.num_heads, abstract=True,
                             layout=layout, **layer_kwargs)
    return layer, layout.abstract_stream(model, microbatch_size)


class LMHead(Module):
    """Final layer-norm + projection to the vocabulary + fp32 loss.

    Section 4.3 accounting: the layer-norm saves ``2sbh``, the projection
    saves its input ``2sbh``, and the cross-entropy saves the fp32 logits
    (``4sbv``).  The projection is column-split over the vocabulary by
    weight-sharding layouts, whose loss is then the vocab-parallel one.
    """

    def __init__(self, hidden_size: int, vocab_size: int,
                 rng: Optional[np.random.Generator] = None,
                 abstract: bool = False, fused: bool = False,
                 layout: Layout = SERIAL):
        self.fused = fused
        self.layout = layout
        self.ln_f = LayerNorm(hidden_size, abstract=abstract,
                              world=layout.group.size, name="head.ln_f",
                              fused=fused)
        self.proj = Linear(hidden_size, vocab_size, rng=rng, abstract=abstract,
                           bias=False, category="lm_head_input", name="head.proj",
                           layout=layout, split="column")

    def _project(self, x: Tensor) -> Tensor:
        return self.proj(self.ln_f(self.layout.enter_head(x)))

    def logits(self, x: Tensor) -> Tensor:
        """fp32 logits (vocabulary-sharded when the projection is)."""
        return F.cast(self._project(x), FP32)

    def decode_logits(self, x: Tensor) -> Tensor:
        """:meth:`logits` over the single-token projection surface."""
        return F.cast(self.proj.decode(self.ln_f(x)), FP32)

    def forward(self, x: Tensor, targets: Tensor,
                loss_mask: Optional[Tensor] = None) -> Tensor:
        return self.layout.cross_entropy(self._project(x), targets, loss_mask,
                                         self.fused)


class GPTModel(Module):
    """The full single-stack decoder used throughout the paper.

    ``layout`` places it: serial by default; see
    :class:`repro.parallel.ParallelGPTModel` and
    :class:`repro.longctx.LongContextGPTModel` for the constructors that
    pick a parallel one.  Concrete weights are drawn from ``seed`` in one
    fixed order under every layout — or copied from ``serial``, a serial
    reference model — so layouts are comparable bitwise.
    ``num_layers_override`` builds a shallower stack of the same shape.
    """

    def __init__(self, config: ModelConfig,
                 attention_dropout: float = 0.1, hidden_dropout: float = 0.1,
                 recompute: Recompute = Recompute.NONE,
                 recompute_num_layers: Optional[int] = None,
                 recompute_remainder: Recompute = Recompute.NONE,
                 seed: int = 0, abstract: bool = False,
                 mask_source: Optional[MaskSource] = None,
                 fused: bool = False, layout: Layout = SERIAL,
                 serial: Optional["GPTModel"] = None,
                 num_layers_override: Optional[int] = None):
        if config.seq_length % layout.sequence_shards != 0:
            raise ConfigError(
                f"seq_length ({config.seq_length}) must be divisible by the "
                f"layout's {layout.sequence_shards} sequence shards")
        if abstract:
            rng = None
        elif serial is not None:
            rng = {p.name: p.shards[0] for p in serial.parameters()}
        else:
            rng = np.random.default_rng(seed)
        num_layers = (config.num_layers if num_layers_override is None
                      else num_layers_override)
        self.config = config
        self.layout = layout
        self.group = layout.group
        self.fused = fused
        self.recompute = Recompute(recompute)
        #: checkpoint only the first N layers (the "simple approach" the
        #: paper's Section 5 contrasts with selective recomputation);
        #: ``recompute_remainder`` is the strategy for the other layers
        #: (the planner's mixed plans use SELECTIVE there).
        self.recompute_remainder = Recompute(recompute_remainder)
        self.recompute_num_layers = (
            num_layers if recompute_num_layers is None else recompute_num_layers
        )
        if not (0 <= self.recompute_num_layers <= num_layers):
            raise ConfigError("recompute_num_layers out of range")
        self.embedding = GPTEmbedding(
            config.vocab_size, config.hidden_size, config.seq_length,
            hidden_dropout=hidden_dropout, rng=rng, abstract=abstract,
            mask_source=mask_source, layout=layout,
        )
        self.layers = [
            TransformerLayer(
                config.hidden_size, config.num_heads,
                attention_dropout=attention_dropout, hidden_dropout=hidden_dropout,
                recompute=self._layer_strategy(i),
                rng=rng, abstract=abstract, tag=f"layer{i}", mask_source=mask_source,
                fused=fused, layout=layout,
            )
            for i in range(num_layers)
        ]
        self.head = LMHead(config.hidden_size, config.vocab_size,
                           rng=rng, abstract=abstract, fused=fused, layout=layout)

    def _layer_strategy(self, index: int) -> Recompute:
        if (self.recompute in (Recompute.FULL, Recompute.FULL_SHARDED)
                and index >= self.recompute_num_layers):
            return self.recompute_remainder
        return self.recompute

    def hidden_states(self, ids: Tensor) -> Tensor:
        x = self.embedding(ids)
        for layer in self.layers:
            x = layer(x)
        return x

    def logits(self, ids: Tensor) -> Tensor:
        return self.head.logits(self.hidden_states(ids))

    def forward(self, ids: Tensor, targets: Tensor,
                loss_mask: Optional[Tensor] = None) -> Tensor:
        """(Masked) token-mean cross-entropy loss."""
        return self.head(self.hidden_states(ids), targets, loss_mask=loss_mask)

    def finish_grad_sync(self) -> None:
        """All-reduce the gradients the layout leaves as per-rank partial
        sums (Megatron's ``allreduce_sequence_parallel_grads``); nothing
        to do where every rank already holds the full gradient."""
        for p in self.layout.partial_grad_params(self):
            if p.grad is not None:
                p.grad = all_reduce(p.grad)
