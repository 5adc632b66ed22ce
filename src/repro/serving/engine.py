"""Batched incremental decoding over the paged KV cache.

One engine drives prefill and decode for a *ragged* batch of requests —
each at its own context length — against a concrete :class:`GPTModel`
under the serial or any tensor-parallel (TP / TP+SP) layout.  The step is
verified token-identical to the uncached :func:`repro.inference.generate`
full-forward path on every layout (``tests/test_serving.py``).

Numerics notes:

* all math runs under ``no_grad`` and calls no dropout module (so a
  model left in training mode decodes the same bits), and the
  tensor-parallel conjugate operators degenerate: ``f`` is the identity
  (its all-reduce lives in backward) and the sequence-parallel
  scatter/gather pairs become pure layout shuffles of replicated data.
  The engine therefore walks the layers' single-token projection
  surface (``Linear.decode``): the plain *tensor-parallel* dataflow —
  column matmul, shard-local attention on ``a/t`` heads, row matmul +
  ``f̄`` all-reduce — for SP models too, which is numerically identical
  without dropout (matmuls are row-independent and the all-reduce
  adds shards in the same order).  At world size 1 every one of those
  collectives is the identity, so the serial model is not a special case;
* attention is one ``F.decode_attention`` per layer per step over the
  whole ragged batch — the single paged-attention launch
  :class:`~repro.serving.perf.ServingPerfModel` prices — fed through
  one slot mapping per step: the cache is written and read once per
  (layer, rank), never per request;
* a decode step consumes exactly one token per request; positions come
  from the cache's block tables, so requests join and leave freely
  between steps (continuous batching).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..layers.embedding import token_ids, token_tensor
from ..layers.linear import Linear
from ..layers.transformer import GPTModel
from ..tensor import FP16, Tensor, no_grad
from ..tensor import functions as F
from .kv_cache import KVAdmissionFull, KVCacheFull, KVStepFull, PagedKVCache


class DecodeEngine:
    """Prefill/decode executor binding one model to one paged KV cache.

    The step is stated once (:meth:`_forward`); prefill is that step at
    ``B=1``, once per prompt token.  The engine keeps no per-step state.
    """

    def __init__(self, model: GPTModel, cache: PagedKVCache):
        world = model.group.size
        if cache.world != world:
            raise ConfigError(
                f"cache built for {cache.world} rank(s), model has {world}")
        if cache.config.num_layers != len(model.layers):
            raise ConfigError("cache and model disagree on num_layers")
        if cache.h_local * cache.world != model.config.hidden_size:
            raise ConfigError("cache and model disagree on hidden_size")
        self.model = model
        self.cache = cache
        self.world = world
        self.max_context = model.config.seq_length

    # -- request lifecycle (thin cache passthroughs) -----------------------
    def context_length(self, request_id: str) -> int:
        return self.cache.num_tokens(request_id)

    def prefill(self, request_id: str, tokens: np.ndarray) -> np.ndarray:
        """Admit a request and run its prompt; returns the ``(v,)`` logits
        for the position after the last prompt token.

        Admission is all-or-nothing: the whole prompt is checked before
        the request is admitted, and if the pool runs out mid-prompt the
        partial request is freed and :class:`KVAdmissionFull` is raised,
        so a failed admission leaves the cache exactly as it found it and
        is always safe to retry (elsewhere, or later).
        """
        tokens = token_ids(np.reshape(tokens, -1), self.model.config.vocab_size)
        if tokens.size == 0:
            raise ConfigError("prefill needs at least one prompt token")
        if tokens.size > self.max_context:
            raise ConfigError(
                f"prefill of {request_id!r}: {tokens.size} prompt token(s), "
                f"the model takes at most {self.max_context}")
        self.cache.add_request(request_id)
        logits = None
        try:
            for token in tokens:
                logits = self.decode([request_id], [token])
        except KVCacheFull as error:
            self.cache.free_request(request_id)
            raise KVAdmissionFull(
                f"prefill of {request_id!r} ({tokens.size} token(s)) does "
                f"not fit the pool") from error
        return logits[0]

    def decode(self, request_ids: Sequence[str],
               tokens: Sequence[int]) -> np.ndarray:
        """Advance every request by one token; returns ``(B, v)`` logits.

        Atomic with respect to the cache: the arguments are validated and
        the needed fresh blocks counted up front, and :class:`KVStepFull`
        is raised *before* any slot is claimed, so a failed step leaves no
        request half-advanced.
        """
        vocab = self.model.config.vocab_size
        tokens = token_ids(np.reshape(tokens, -1), vocab)
        if len(request_ids) == 0 or tokens.shape[0] != len(request_ids):
            raise ConfigError("decode needs one token per request")
        if len(set(request_ids)) != len(request_ids):
            raise ConfigError("decode advances a request once per step; "
                              f"got {list(request_ids)}")
        need = sum(1 for r in request_ids if self.cache.needs_block(r))
        if need > self.cache.free_blocks:
            raise KVStepFull(
                f"decode step needs {need} fresh block(s); "
                f"{self.cache.free_blocks} free")
        for request_id in request_ids:
            if self.cache.num_tokens(request_id) >= self.max_context:
                raise ConfigError(
                    f"request {request_id!r} is at the model's maximum "
                    "sequence length")
        positions = [self.cache.reserve_token(r) for r in request_ids]
        ids = token_tensor(tokens[None, :], vocab, world=self.world)
        with no_grad():
            return self._forward(ids, request_ids, positions)

    def finish(self, request_id: str) -> None:
        self.cache.free_request(request_id)

    def swap_out(self, request_id: str):
        return self.cache.swap_out(request_id)

    def swap_in(self, swapped) -> None:
        self.cache.swap_in(swapped)

    # -- the model step ----------------------------------------------------
    def _forward(self, ids: Tensor, request_ids: Sequence[str],
                 positions: List[int]) -> np.ndarray:
        """One token per request, request ``j`` at slot ``positions[j]``;
        returns the ``(B, v)`` logits."""
        model, cache = self.model, self.cache
        ranks = range(self.world)
        kv_layout = "replicated" if self.world == 1 else "shard(dim=2)"

        # Block tables -> physical rows once per step: the mapping is the
        # same for every layer and rank.
        slots, lengths = cache.slot_mapping(request_ids)
        newest = slots[np.cumsum(lengths) - 1]

        x = model.layout.lookup(model.embedding.word, ids)
        # The batch is ragged, so each row indexes its own position: (1, B, h).
        pos = Tensor([np.asarray(shard)[positions, 0, :][None]
                      for shard in model.embedding.position.shards],
                     dtype=FP16, layout="replicated", name="pos_rows")
        x = F.add(x, pos)

        for index, layer in enumerate(model.layers):
            h = layer.ln1(x)
            q, k, v = layer.attn.project_qkv(h, Linear.decode)
            # Per rank: the step's new rows in, then the whole batch's
            # cached K and V out, flat and ragged as (sum n_j, 1, h_local).
            cached = []
            for rank in ranks:
                cache.write_slots(index, rank, newest,
                                  np.asarray(k.shards[rank])[0],
                                  np.asarray(v.shards[rank])[0])
                cached.append(cache.gather_slots(index, rank, slots))
            keys = Tensor([k_r[:, None, :] for k_r, _ in cached],
                          dtype=FP16, layout=kv_layout)
            values = Tensor([v_r[:, None, :] for _, v_r in cached],
                            dtype=FP16, layout=kv_layout)
            ctxt = F.decode_attention(layer.attn.core.num_heads, q, keys,
                                      values, lengths)
            x = F.add(layer.attn.wo.decode(ctxt), x)
            x = F.add(layer.mlp.decode(layer.ln2(x)), x)

        return model.layout.full_logits(model.head.decode_logits(x))[0]
