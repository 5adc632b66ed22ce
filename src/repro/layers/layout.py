"""Where a model's shards live and what crosses rank boundaries.

The transformer block stack in :mod:`repro.layers` is defined once; a
:class:`Layout` owns the only things that differ between the serial
model, tensor (+ sequence) parallelism and context parallelism:

===================  =====================================================
weight placement     replicate / column split / row split / fused QKV
region boundaries    the conjugate pair around each GEMM region
                     (identity, ``f``/``f̄``, ``g``/``ḡ``)
residual stream      whole sequence or sequence shards (dropout mode,
                     entry scatter, gather before the head)
attention core       local heads, Ulysses all-to-alls or ring K/V gather
loss                 serial or vocab-parallel cross entropy
gradients            which parameters hold per-rank partial sums
===================  =====================================================

:class:`Layout` itself is the serial layout — one rank, every weight
whole, every collective an identity that never touches the tape.  The
parallel ones subclass it next to the operators they use:
:class:`repro.parallel.TensorParallel`, :class:`repro.longctx.Ulysses`
and :class:`repro.longctx.Ring`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..comm.process_group import ProcessGroup
from ..errors import ConfigError
from ..fusion.ops import softmax_cross_entropy
from ..tensor import FP16, FP32, Tensor, abstract, checkpoint, parameter
from ..tensor import functions as F
from ..tensor.backend import AbstractArray


#: Normal(0, 0.02): the GPT-2 / Megatron-LM weight initialization
INIT_STD = 0.02


def draw(rng, shape, name: str) -> np.ndarray:
    """The full (unsharded) initial value of parameter ``name``.

    ``rng`` is a NumPy ``Generator`` (Normal(0, INIT_STD) initialization) or a
    mapping from parameter names to arrays — a model being laid out from
    a serial reference model's weights.
    """
    if rng is None:
        raise ConfigError(
            f"parameter {name!r} needs an rng unless the model is abstract")
    if hasattr(rng, "normal"):
        return rng.normal(0.0, INIT_STD, size=shape)
    full = np.array(rng[name])  # a copy: shards must own their storage
    if full.shape != tuple(shape):
        raise ConfigError(
            f"reference weight {name!r} has shape {full.shape}, "
            f"expected {tuple(shape)}")
    return full


class Layout:
    """The serial layout (see the module docstring)."""

    #: the ranks the model's shards live on
    group = ProcessGroup(1)
    #: Q, K and V as one column-split ``(h, 3h)`` projection instead of
    #: three ``(h, h)`` ones
    fused_qkv = False
    #: ``(mode, shard_axis)`` of the embedding / residual dropouts ...
    stream_dropout = ("replicated", 0)
    #: ... and of the softmax dropout on the ``(b, a, s_q, s)`` scores
    core_dropout = ("replicated", 1)
    #: each rank scores its own query rows against the full key sequence
    row_blocked_scores = False
    #: chunks the residual stream's sequence dimension is cut into
    sequence_shards = 1

    # -- weight placement ----------------------------------------------------
    def place(self, full: Optional[np.ndarray], shape: Tuple[int, ...],
              axis: Optional[int], name: str) -> Tuple[list, str]:
        """Per-rank shards of weight ``name`` and their layout tag.
        ``axis`` is the dimension a weight-sharding layout splits
        (``None``: always replicated); ``full=None`` asks for shape-only
        shards."""
        world = self.group.size
        if full is None:
            return [AbstractArray(shape)] * world, "replicated"
        return [full] + [full.copy() for _ in range(world - 1)], "replicated"

    def parameter(self, rng, shape: Tuple[int, ...], name: str,
                  axis: Optional[int] = None, abstract: bool = False) -> Tensor:
        full = None if abstract else draw(rng, shape, name)
        shards, tag = self.place(full, tuple(shape), axis, name)
        return parameter(shards, dtype=FP16, layout=tag, name=name)

    # -- GEMM regions --------------------------------------------------------
    def matmul(self, x: Tensor, weight: Tensor, split: Optional[str],
               category: str) -> Tensor:
        """``x @ weight`` for a region-opening (``split="column"``) or
        region-closing (``"row"``) projection, with the layout's
        conjugate operator on the boundary side."""
        return F.matmul(x, weight, category=category)

    def decode_matmul(self, x: Tensor, weight: Tensor,
                      split: Optional[str]) -> Tensor:
        """Forward-only single-token projection: the plain tensor-parallel
        dataflow (no ``f`` — its all-reduce lives in backward — and no
        sequence scatter, one token cannot be split)."""
        return F.matmul(x, weight)

    # -- embedding, residual stream, head ------------------------------------
    def lookup(self, word: Tensor, ids: Tensor) -> Tensor:
        return F.embedding(word, ids)

    def enter_stream(self, emb: Tensor) -> Tensor:
        """Full-sequence embeddings -> the residual stream's layout."""
        return emb

    def enter_head(self, x: Tensor) -> Tensor:
        """The residual stream -> what the final layer-norm consumes."""
        return x

    def cross_entropy(self, logits: Tensor, targets: Tensor,
                      loss_mask: Optional[Tensor], fused: bool) -> Tensor:
        """(Masked) token-mean loss of the head projection's output."""
        if fused:
            # The fp32 cast is folded into the fused kernel, which saves
            # the logits at fp32 itself (same bytes, same category).
            return softmax_cross_entropy(logits, targets, loss_mask=loss_mask)
        return F.cross_entropy(F.cast(logits, FP32), targets,
                               loss_mask=loss_mask)

    def full_logits(self, logits: Tensor) -> np.ndarray:
        """Full-vocabulary logits as one array."""
        return np.asarray(logits.shards[0])

    # -- attention core ------------------------------------------------------
    def local_heads(self, num_heads: int) -> int:
        """Heads each rank's attention core works on."""
        return num_heads

    def enter_core(self, q: Tensor, k: Tensor, v: Tensor):
        return q, k, v

    def exit_core(self, ctxt: Tensor) -> Tensor:
        return ctxt

    # -- shape-only execution -------------------------------------------------
    def abstract_stream(self, model, microbatch_size: int) -> Tensor:
        """A shape-only residual-stream tensor of ``model`` (a
        ``ModelConfig``) as this layout holds it: ``(s, b, h)`` on every
        rank, with ``s`` cut into the layout's sequence shards."""
        shards = self.sequence_shards
        return abstract(
            (model.seq_length // shards, microbatch_size, model.hidden_size),
            world=self.group.size, requires_grad=True,
            layout="shard(dim=0)" if shards > 1 else "replicated")

    # -- recomputation and gradient sync -------------------------------------
    def sharded_checkpoint(self, body, x: Tensor, label: str) -> Tensor:
        """``Recompute.FULL_SHARDED``: only layouts that replicate the
        layer input across ranks have anything to shard."""
        return checkpoint(body, x, label=label)

    def partial_grad_params(self, model) -> List[Tensor]:
        """Parameters whose gradients are per-rank partial sums after
        backward; ``GPTModel.finish_grad_sync`` all-reduces them."""
        return []


#: The serial layout; stateless, so one instance serves every model.
SERIAL = Layout()
