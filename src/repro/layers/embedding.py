"""Input embeddings: word + learned positional, then dropout."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..tensor import INT64, Tensor
from ..tensor import functions as F
from ..tensor.functions import MaskSource
from .dropout import Dropout
from .layout import SERIAL, Layout
from .module import Module


def token_ids(ids, vocab: int) -> np.ndarray:
    """``ids`` as an int64 array, checked against the one rule every token
    id and target obeys: integral and in ``[0, vocab)``.  A ``ConfigError``
    otherwise; NumPy would wrap a negative id to the last row."""
    arr = np.asarray(ids)
    ints = arr.astype(np.int64, copy=False)
    if arr.size and ((ints != arr).any() or ints.min() < 0 or ints.max() >= vocab):
        raise ConfigError(f"token ids must be integers in [0, {vocab})")
    return ints


def token_tensor(ids: np.ndarray, vocab: int, world: int = 1) -> Tensor:
    """Wrap integer token ids ``(s, b)``, checked by :func:`token_ids`, as
    a non-differentiable tensor replicated across ``world`` ranks (every
    rank sees the same tokens)."""
    return Tensor([token_ids(ids, vocab)] * world, dtype=INT64, requires_grad=False,
                  layout="replicated", name="ids")


class GPTEmbedding(Module):
    """Word-embedding lookup + positional embeddings + embedding dropout.

    Per the paper (Section 4.3) the lookups store nothing of consequence
    (only the integer ids); the dropout mask is the ``sbh`` term.  The
    word table is split over the vocabulary by weight-sharding layouts;
    sequence-sharding layouts enter their region before the dropout, so
    its mask costs ``sbh/t`` per rank (the paper's ``sbhp/t`` first-stage
    term once ``p`` in-flight microbatches are accounted).
    """

    def __init__(self, vocab_size: int, hidden_size: int, max_seq_length: int,
                 hidden_dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None,
                 abstract: bool = False,
                 mask_source: Optional[MaskSource] = None,
                 layout: Layout = SERIAL):
        self.vocab_size = vocab_size
        self.hidden_size = hidden_size
        self.max_seq_length = max_seq_length
        self.layout = layout
        self.word = layout.parameter(rng, (vocab_size, hidden_size),
                                     "embedding.word", 0, abstract)
        # Stored (s, 1, h) so it broadcasts over the batch dimension.
        self.position = layout.parameter(
            rng, (max_seq_length, 1, hidden_size), "embedding.position",
            None, abstract)
        mode, shard_axis = layout.stream_dropout
        self.dropout = Dropout(hidden_dropout, mode=mode, shard_axis=shard_axis,
                               tag="embedding.dropout", mask_source=mask_source)

    def forward(self, ids: Tensor) -> Tensor:
        emb = self.layout.lookup(self.word, ids)
        position = self.position
        if ids.shape[0] < self.max_seq_length:
            position = F.slice_axis(position, 0, 0, ids.shape[0])
        emb = F.add(emb, position)
        return self.dropout(self.layout.enter_stream(emb))
