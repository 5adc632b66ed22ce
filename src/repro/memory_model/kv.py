"""Closed-form KV-cache memory model — the inference analogue of Eqs. 1-4.

At decode time the transformer's save-vs-recompute tradeoff reappears:
each layer must either keep one key and one value vector per attended
position, or recompute them from the token history on demand (the
serving scheduler's *swap* vs *recompute-from-prompt* resume policies).
What must be kept is exact and closed-form, like the paper's activation
equations:

* one token contributes ``2 h`` elements per layer (K and V, each of
  width ``h``);
* tensor parallelism shards the head dimension, so each rank holds
  ``2 h / t`` elements per token per layer;
* a *paged* cache hands out fixed blocks of ``block_size`` token slots,
  so the resident bytes are the block-granular ceiling of the exact
  per-token formula.

All results are **bytes per rank**, matching the conventions of
:mod:`repro.memory_model.activations`.  The paged-cache tracker in
:mod:`repro.serving.kv_cache` must agree with these formulas with
exactly zero drift (asserted in ``tests/test_serving.py`` and gated by
the ``serve`` bench preset).
"""

from __future__ import annotations

from typing import Sequence, Union

from ..config import ModelConfig
from ..errors import ConfigError

#: Accounting width of one cached K/V element.  The cache stores FP16
#: (the paper's activation wire format); concrete simulation math still
#: runs in float64, exactly as activation accounting does.
KV_CACHE_DTYPE_BYTES = 2

TokenCounts = Union[int, Sequence[int]]


def kv_blocks_for_tokens(num_tokens: int, block_size: int) -> int:
    """Blocks needed to hold ``num_tokens`` token slots (ceiling)."""
    if block_size < 1:
        raise ConfigError("block_size must be >= 1")
    if num_tokens < 0:
        raise ConfigError("num_tokens must be >= 0")
    return -(-num_tokens // block_size)


def kv_block_bytes(model: ModelConfig, block_size: int,
                   tensor_parallel: int = 1) -> int:
    """Bytes per rank for one KV block spanning **all** layers.

    A block reserves ``block_size`` token slots in every layer's K and V
    store (the vLLM-style layout: one block table indexes all layers), so
    one block costs ``L * 2 * block_size * h/t * KV_CACHE_DTYPE_BYTES``
    per rank.
    """
    t = tensor_parallel
    if t < 1:
        raise ConfigError("tensor_parallel must be >= 1")
    if model.hidden_size % t != 0:
        raise ConfigError("hidden_size must divide by tensor_parallel")
    per_layer = 2 * block_size * (model.hidden_size // t) * KV_CACHE_DTYPE_BYTES
    return model.num_layers * per_layer


def kv_cache_bytes(model: ModelConfig, num_tokens: TokenCounts,
                   tensor_parallel: int = 1) -> float:
    """KV-cache bytes per rank for one or more cached sequences.

    ``num_tokens`` is a single token count or one count per request; the
    formula is exact per token::

        bytes/rank = L * 2 * tokens * h / t * KV_CACHE_DTYPE_BYTES

    The paged allocator passes each request's block-granular slot count,
    which the :class:`~repro.tensor.MemoryTracker` ``kv_cache`` category
    must match with zero drift.
    """
    t = tensor_parallel
    if t < 1:
        raise ConfigError("tensor_parallel must be >= 1")
    if model.hidden_size % t != 0:
        raise ConfigError("hidden_size must divide by tensor_parallel")
    counts = [num_tokens] if isinstance(num_tokens, int) else list(num_tokens)
    if any(c < 0 for c in counts):
        raise ConfigError("token counts must be >= 0")
    tokens = sum(counts)
    h_local = model.hidden_size // t
    return float(model.num_layers * 2 * tokens * h_local * KV_CACHE_DTYPE_BYTES)
