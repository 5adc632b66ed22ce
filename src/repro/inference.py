"""Autoregressive generation on the trained GPT, under any layout.

A small adoption surface on top of the training substrate: greedy and
top-k sampling with an ``evaluation`` context that disables dropout.
Two decode paths are provided and verified identical: :func:`generate`
recomputes the full forward per step (works under every layout), while
:func:`generate_cached` runs on the serving
:class:`~repro.serving.engine.DecodeEngine`'s paged KV cache and does
O(context) work per step (serial and tensor-parallel models).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from .errors import ConfigError
from .layers.dropout import Dropout
from .layers.embedding import token_tensor
from .layers.module import Module
from .layers.transformer import GPTModel
from .tensor import no_grad


@contextmanager
def evaluation(model: Module):
    """Disable every dropout in ``model`` for the duration of the block.

    Scoped sugar over :meth:`Module.eval`: on exit each dropout is put
    back in exactly its pre-context state (not unconditionally back to
    training), so the context nests and composes with explicit
    ``model.eval()`` calls.  For the paths that run the training forward
    (:func:`generate`, :func:`perplexity`); the serving engine's decode
    step calls no dropout module and needs no scope.
    """
    dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
    saved = [(d.p, d._train_p) for d in dropouts]
    model.eval()
    try:
        yield model
    finally:
        for d, (p, train_p) in zip(dropouts, saved):
            d.p, d._train_p = p, train_p


def _next_token_logits(model: GPTModel, ids: np.ndarray,
                       max_len: int = 10**9) -> np.ndarray:
    """Logits for the position after ``ids`` — full vocabulary, ``(b, v)``.

    Sequence-sharding layouts cut the context along ``s``, so the length
    must be a multiple of their shard count; we right-pad with dummy
    tokens (causal masking makes them invisible to earlier positions) and
    read the true last position.
    """
    sp_chunk = model.layout.sequence_shards
    length = ids.shape[0]
    if sp_chunk > 1 and length % sp_chunk != 0:
        pad = min(sp_chunk - length % sp_chunk, max_len - length)
        if length + pad > max_len or (length + pad) % sp_chunk != 0:
            raise ConfigError(
                "cannot pad the context to a sequence-parallel boundary "
                "within the model's maximum sequence length"
            )
        ids = np.concatenate(
            [ids, np.zeros((pad, ids.shape[1]), dtype=np.int64)], axis=0)
    logits = model.logits(token_tensor(ids, model.config.vocab_size, world=model.group.size))
    return model.layout.full_logits(logits)[length - 1]


def _checked_prompt(prompt, strategy: str, top_k: int,
                    temperature: float) -> np.ndarray:
    """The ``(length, batch)`` int64 prompt, once the decoding arguments
    :func:`generate` and :func:`generate_cached` share are valid."""
    if strategy not in ("greedy", "top_k"):
        raise ConfigError(f"unknown decoding strategy {strategy!r}")
    if not 0 < temperature < np.inf:
        raise ConfigError(f"temperature must be positive and finite, "
                          f"got {temperature}")
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    ids = np.asarray(prompt, dtype=np.int64)
    if ids.ndim != 2:
        raise ConfigError("prompt must be (length, batch)")
    return ids


def sample_next(logits: np.ndarray, strategy: str, top_k: int,
                temperature: float,
                rng: Optional[np.random.Generator]) -> np.ndarray:
    """One next token per row of ``(b, v)`` logits.

    Shared by :func:`generate` and :func:`generate_cached` so both decode
    paths draw from the RNG in exactly the same order — the foundation of
    their token-identity tests.  (The serving scheduler decodes greedily.)
    """
    if strategy == "greedy":
        return np.argmax(logits, axis=-1)
    scaled = logits / temperature
    k = min(top_k, scaled.shape[-1])
    nxt = np.empty(scaled.shape[0], dtype=np.int64)
    for j in range(scaled.shape[0]):
        top = np.argpartition(scaled[j], -k)[-k:]
        probs = np.exp(scaled[j][top] - scaled[j][top].max())
        probs /= probs.sum()
        nxt[j] = top[rng.choice(k, p=probs)]
    return nxt


def generate(
    model: GPTModel,
    prompt: np.ndarray,
    max_new_tokens: int,
    strategy: str = "greedy",
    top_k: int = 10,
    temperature: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Extend ``prompt`` (``(length, batch)`` int tokens) autoregressively.

    ``strategy`` is ``"greedy"`` (deterministic argmax) or ``"top_k"``
    (sample among the ``top_k`` most likely tokens at ``temperature``).
    Generation stops at the model's maximum sequence length.  With
    sequence parallelism enabled the context length must stay divisible by
    the tensor-parallel size, so SP models should generate without SP or
    at aligned lengths; a clear error is raised otherwise.
    """
    ids = _checked_prompt(prompt, strategy, top_k, temperature)
    rng = rng or np.random.default_rng(0)
    max_len = model.config.seq_length

    with no_grad(), evaluation(model):
        for _ in range(max_new_tokens):
            if ids.shape[0] >= max_len:
                break
            logits = _next_token_logits(model, ids, max_len=max_len)
            nxt = sample_next(logits, strategy, top_k, temperature, rng)
            ids = np.concatenate([ids, nxt[None, :]], axis=0)
    return ids


def perplexity(model: GPTModel, ids: np.ndarray, targets: np.ndarray) -> float:
    """``exp`` of the token-mean cross entropy on one batch (dropout off)."""
    world, vocab = model.group.size, model.config.vocab_size
    with no_grad(), evaluation(model):
        loss = model(token_tensor(ids, vocab, world=world),
                     token_tensor(targets, vocab, world=world))
    return float(np.exp(loss.item()))


# ---------------------------------------------------------------------------
# KV-cache incremental decoding
# ---------------------------------------------------------------------------

def generate_cached(model: GPTModel, prompt: np.ndarray, max_new_tokens: int,
                    strategy: str = "greedy", top_k: int = 10,
                    temperature: float = 1.0,
                    rng: Optional[np.random.Generator] = None,
                    block_size: int = 16) -> np.ndarray:
    """KV-cached autoregressive generation; same contract as
    :func:`generate` (and verified to produce identical output, greedy
    and top-k, across serial and tensor-parallel layouts).

    Delegates to the serving :class:`~repro.serving.engine.DecodeEngine`:
    the batch columns become one continuous-batching step each, over a
    :class:`~repro.serving.kv_cache.PagedKVCache` sized so generation can
    never run out of blocks.
    """
    from .serving.engine import DecodeEngine
    from .serving.kv_cache import PagedKVCache

    ids = _checked_prompt(prompt, strategy, top_k, temperature)
    if block_size < 1:
        raise ConfigError("block_size must be >= 1")
    rng = rng or np.random.default_rng(0)
    max_len = model.config.seq_length
    batch = ids.shape[1]
    blocks_per_request = -(-max_len // block_size)
    cache = PagedKVCache(model.config, tensor_parallel=model.group.size,
                         block_size=block_size,
                         num_blocks=batch * blocks_per_request)
    engine = DecodeEngine(model, cache)
    request_ids = [f"gen{j}" for j in range(batch)]
    for request_id in request_ids:
        cache.add_request(request_id)

    logits = None
    for position in range(ids.shape[0]):
        logits = engine.decode(request_ids, ids[position])
    for _ in range(max_new_tokens):
        if engine.context_length(request_ids[0]) >= max_len:
            break
        nxt = sample_next(logits, strategy, top_k, temperature, rng)
        ids = np.concatenate([ids, nxt[None, :]], axis=0)
        logits = engine.decode(request_ids, ids[-1])
    return ids
