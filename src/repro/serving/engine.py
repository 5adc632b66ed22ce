"""Batched incremental decoding over the paged KV cache.

One engine drives prefill and decode for a *ragged* batch of requests —
each at its own context length — against a concrete :class:`GPTModel`
under the serial or any tensor-parallel (TP / TP+SP) layout.  The step is
verified token-identical to the uncached :func:`repro.inference.generate`
full-forward path on every layout (``tests/test_serving.py``).

Numerics notes:

* all math runs under ``no_grad`` + ``evaluation`` (dropout off), so the
  tensor-parallel conjugate operators degenerate: ``f`` is the identity
  (its all-reduce lives in backward) and the sequence-parallel
  scatter/gather pairs become pure layout shuffles of replicated data.
  The engine therefore walks the layers' single-token projection
  surface (``Linear.decode``): the plain *tensor-parallel* dataflow —
  column matmul, shard-local attention on ``a/t`` heads, row matmul +
  ``f̄`` all-reduce — for SP models too, which is numerically identical
  with dropout disabled (matmuls are row-independent and the all-reduce
  adds shards in the same order).  At world size 1 every one of those
  collectives is the identity, so the serial model is not a special case;
* a decode step consumes exactly one token per request; positions come
  from the cache's block tables, so requests join and leave freely
  between steps (continuous batching).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..compiler import CaptureRecorder, PlanCache, PlanRuntime, capture_scope
from ..errors import ConfigError
from ..inference import evaluation, one_query_attention
from ..layers.embedding import token_tensor
from ..layers.linear import Linear
from ..layers.transformer import GPTModel
from ..tensor import FP16, Tensor, no_grad
from ..tensor import functions as F
from ..tensor.context import ctx as execution_context
from .kv_cache import KVAdmissionFull, KVCacheFull, KVStepFull, PagedKVCache


# -- compiled-mode external closures -----------------------------------------
# A compiled decode plan is shape-polymorphic in the context length but
# fixed in batch size; everything that varies between replays of the same
# batch-size bucket (which requests, which slots, how long each context)
# is read from the engine's :class:`PlanRuntime` holder at call time.

def _rebind_pos(rt: PlanRuntime, engine: "DecodeEngine", pos_t: Tensor):
    def rebind():
        pos_t.shards = [
            np.asarray(shard)[rt.positions, 0, :][None]
            for shard in engine.model.embedding.position.shards
        ]
    return rebind


def _cache_writes(rt: PlanRuntime, cache: PagedKVCache, k_t: Tensor,
                  v_t: Tensor, layer: int, world: int):
    def write():
        for rank in range(world):
            k_arr = np.asarray(k_t.shards[rank])
            v_arr = np.asarray(v_t.shards[rank])
            for j, request_id in enumerate(rt.request_ids):
                cache.write(request_id, layer, rank, rt.positions[j],
                            k_arr[0, j], v_arr[0, j])
    return write


def _gather_kv(rt: PlanRuntime, cache: PagedKVCache, k_t: Tensor,
               v_t: Tensor, j: int, layer: int, world: int):
    def gather():
        keys, values = [], []
        for rank in range(world):
            k, v = cache.gather(rt.request_ids[j], layer, rank)
            keys.append(k[:, None, :])
            values.append(v[:, None, :])
        k_t.shards = keys
        v_t.shards = values
    return gather


def _store_logits(rt: PlanRuntime, logits_t: Tensor, layout):
    def store():
        rt.out = layout.full_logits(logits_t)[0]
    return store


class DecodeEngine:
    """Prefill/decode executor binding one model to one paged KV cache.

    ``compiled=True`` captures the first decode step per batch size
    through :mod:`repro.compiler` and replays the static plan for every
    later step of that ragged-batch bucket — token-identical logits with
    no per-step tape construction.  Prefill reuses the ``B=1`` bucket.
    A :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`
    inherits the flag from the engine it drives.
    """

    def __init__(self, model: GPTModel, cache: PagedKVCache,
                 compiled: bool = False):
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
        self.compiled = compiled
        self.plans = PlanCache()
        #: step-varying state shared by every plan's externals (decode
        #: steps are serial, so one holder serves all batch-size buckets)
        self._rt = PlanRuntime()

    # -- request lifecycle (thin cache passthroughs) -----------------------
    def context_length(self, request_id: str) -> int:
        return self.cache.num_tokens(request_id)

    def prefill(self, request_id: str, tokens: np.ndarray) -> np.ndarray:
        """Admit a request and run its prompt; returns the ``(v,)`` logits
        for the position after the last prompt token.

        Admission is all-or-nothing: if the pool runs out mid-prompt the
        partial request is freed and :class:`KVAdmissionFull` is raised,
        so a failed admission leaves the cache exactly as it found it and
        is always safe to retry (elsewhere, or later).
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if tokens.size == 0:
            raise ConfigError("prefill needs at least one prompt token")
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

        Atomic with respect to the cache: the needed fresh blocks are
        counted up front and :class:`KVStepFull` is raised *before* any
        slot is claimed, so a failed step leaves no request half-advanced.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if len(request_ids) == 0 or tokens.shape[0] != len(request_ids):
            raise ConfigError("decode needs one token per request")
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
        with no_grad(), evaluation(self.model):
            c = execution_context()
            if self.compiled and c.memprof is None and c.capture is None:
                return self._decode_compiled(list(request_ids), tokens,
                                             positions)
            return self._forward(list(request_ids), tokens, positions)

    def _decode_compiled(self, request_ids: List[str], tokens: np.ndarray,
                         positions: List[int]) -> np.ndarray:
        rt = self._rt
        rt.request_ids = request_ids
        rt.positions = positions
        key = ("decode", len(request_ids))
        plan = self.plans.get(key)
        if plan is None:
            recorder = CaptureRecorder(f"decode_step[B={len(request_ids)}]")
            with capture_scope(recorder):
                out = self._forward(request_ids, tokens, positions)
            self.plans.put(key, recorder.finalize(runtime=rt))
            return out
        plan.bind("ids", token_tensor(tokens[None, :], world=self.world).shards)
        plan.replay()
        return rt.out

    def finish(self, request_id: str) -> None:
        self.cache.free_request(request_id)

    def swap_out(self, request_id: str):
        return self.cache.swap_out(request_id)

    def swap_in(self, swapped) -> None:
        self.cache.swap_in(swapped)

    # -- the model step ----------------------------------------------------
    def _position_rows(self, positions: List[int]) -> Tensor:
        """Per-request positional-embedding rows as a ``(1, B, h)`` tensor
        (the batch is ragged, so each row indexes its own position)."""
        rows = [np.asarray(shard)[positions, 0, :][None]
                for shard in self.model.embedding.position.shards]
        return Tensor(rows, dtype=FP16, layout="replicated", name="pos_rows")

    def _cached_kv(self, request_id: str,
                   layer: int) -> Tuple[Tensor, Tensor]:
        """One request's cached K and V as ``(n, 1, h_local)`` tensors."""
        keys, values = [], []
        for rank in range(self.world):
            k, v = self.cache.gather(request_id, layer, rank)
            keys.append(k[:, None, :])
            values.append(v[:, None, :])
        layout = "replicated" if self.world == 1 else "shard(dim=2)"
        return (Tensor(keys, dtype=FP16, layout=layout),
                Tensor(values, dtype=FP16, layout=layout))

    def _forward(self, request_ids: List[str], tokens: np.ndarray,
                 positions: List[int]) -> np.ndarray:
        model = self.model
        cap = execution_context().capture
        rt = self._rt if cap is not None else None
        if cap is not None:
            rt.request_ids = request_ids
            rt.positions = positions
        ids = token_tensor(tokens[None, :], world=self.world)
        if cap is not None:
            cap.bind_input("ids", ids)
        x = model.layout.lookup(model.embedding.word, ids)
        pos = self._position_rows(positions)
        if cap is not None:
            cap.external(_rebind_pos(rt, self, pos))
        x = F.add(x, pos)

        for index, layer in enumerate(model.layers):
            h = layer.ln1(x)
            q, k, v = layer.attn.project_qkv(h, Linear.decode)
            heads = layer.attn.core.num_heads
            if cap is not None:
                # Executes now (the capture is the step) and at replay.
                cap.external(_cache_writes(rt, self.cache, k, v, index,
                                           self.world))
            else:
                for rank in range(self.world):
                    k_arr = np.asarray(k.shards[rank])
                    v_arr = np.asarray(v.shards[rank])
                    for j, request_id in enumerate(request_ids):
                        self.cache.write(request_id, index, rank, positions[j],
                                         k_arr[0, j], v_arr[0, j])
            parts = []
            for j, request_id in enumerate(request_ids):
                keys, values = self._cached_kv(request_id, index)
                if cap is not None:
                    cap.external(_gather_kv(rt, self.cache, keys, values, j,
                                            index, self.world))
                q_j = F.slice_axis(q, 1, j, j + 1)
                parts.append(one_query_attention(heads, q_j, keys, values))
            ctxt = parts[0] if len(parts) == 1 else F.concat(parts, axis=1)
            x = F.add(layer.attn.wo.decode(ctxt), x)
            x = F.add(layer.mlp.decode(layer.ln2(x)), x)

        logits = model.head.decode_logits(x)
        if cap is not None:
            cap.external(_store_logits(rt, logits, model.layout))
            return rt.out
        return model.layout.full_logits(logits)[0]
