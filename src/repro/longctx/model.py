"""Context-parallel GPT: sequence-sharded layers over a ``"cp"`` group.

The model replicates every weight and shards the *sequence* dimension of
all activations across the group:

* the embedding looks up the full sequence (token ids are replicated),
  then enters the context-parallel region with a local slice
  (:func:`~repro.parallel.mappings.scatter_split_sequence`) and applies
  the sequence-sharded embedding dropout;
* every transformer layer runs on ``(s/p, b, h)`` chunks, with the
  attention core seeing the full sequence via Ulysses all-to-alls or
  ring K/V hops (:mod:`repro.longctx.layout`);
* the head gathers the full sequence back
  (:func:`~repro.parallel.mappings.gather_with_slice_backward`) and
  computes the serial loss.

Forward losses are **bitwise identical** to the serial model (every op
is an exact row-slice of the serial op); weight gradients are per-chunk
partial sums that ``finish_grad_sync`` all-reduces over the group.
"""

from __future__ import annotations

from typing import Optional

from ..config import ModelConfig
from ..layers.transformer import GPTModel, Recompute
from ..tensor.functions import MaskSource
from .layout import context_layout


class LongContextGPTModel(GPTModel):
    """GPT under p-way context parallelism (Ulysses or ring attention):
    :class:`~repro.layers.transformer.GPTModel` on one of
    :data:`~repro.longctx.layout.LAYOUTS`.

    ``serial`` provides the reference weights (they are drawn from
    ``seed`` as the serial model draws them when omitted), making the
    forward loss bitwise comparable against the serial model.
    """

    def __init__(self, config: ModelConfig, context_parallel: int,
                 layout: str = "ulysses", attention_dropout: float = 0.1,
                 hidden_dropout: float = 0.1,
                 recompute: Recompute = Recompute.NONE, seed: int = 0,
                 abstract: bool = False,
                 mask_source: Optional[MaskSource] = None,
                 serial: Optional[GPTModel] = None, fused: bool = False):
        super().__init__(
            config, attention_dropout=attention_dropout,
            hidden_dropout=hidden_dropout, recompute=recompute, seed=seed,
            abstract=abstract, mask_source=mask_source, fused=fused,
            layout=context_layout(layout, context_parallel), serial=serial)
