"""Per-layer communication volumes of the context layouts, side by side.

Per transformer layer, per rank, forward + backward **traced bytes**.
Each layout's closed form is its class's
(:meth:`~repro.longctx.layout.ContextParallel.layer_bytes`):

* **Ulysses**: 4 all-to-alls forward (Q, K, V in; context out) and 4
  backward, each logged at the local shard size ``2 s b h / p`` — so
  per-layer bytes are ``8 * 2sbh/p``: O(s/p), shrinking with the group.
* **Ring**: 2 ring gathers (K, V) of ``p-1`` hops at ``2 s b h / p``
  each, forward and backward — ``4 (p-1) * 2sbh/p``: O(s) for large
  ``p``, but in ``p-1`` latency-tolerant P2P hops.
* **All-gather sequence parallelism** (the paper's ``g``/``ḡ`` pairs,
  for comparison; not a layout here): 4 full-size collectives per layer
  at ``2 s b h`` forward+backward — O(s) regardless of the group size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import ModelConfig
from .layout import LAYOUTS, WIRE_BYTES


def sp_layer_bytes(model: ModelConfig, microbatch_size: int,
                   group_size: int) -> float:
    """All-gather-SP comparison point: the paper's Section 4.2.2 layers
    move ``4 Phi`` bytes per layer forward+backward (two ``g``/``ḡ``
    conjugate pairs of full ``2sbh`` tensors)."""
    if group_size == 1:
        return 0.0
    return 4.0 * WIRE_BYTES * float(
        model.seq_length * microbatch_size * model.hidden_size)


@dataclass(frozen=True)
class LayoutVolume:
    """One layout's per-layer traffic summary for the comparison table."""

    layout: str
    bytes_per_layer: float        # fwd+bwd, per rank, no recompute
    calls_per_layer: int          # collectives or P2P hops, fwd+bwd
    scaling: str                  # asymptotic per-rank volume in s, p


def layout_volumes(model: ModelConfig, microbatch_size: int,
                   context_parallel: int) -> Dict[str, LayoutVolume]:
    """Per-layer comm volumes of the all-gather baseline, then of each
    :data:`LAYOUTS` layout (Table 6's rows), at equal (s, b, h, p)."""
    p = context_parallel
    volumes = {"sp_allgather": LayoutVolume(
        "sp_allgather", sp_layer_bytes(model, microbatch_size, p),
        0 if p == 1 else 4, "O(sbh)")}
    volumes.update((cls.name, LayoutVolume(
        cls.name, cls.layer_bytes(model, microbatch_size, p),
        cls.calls_per_layer(p), cls.scaling)) for cls in LAYOUTS.values())
    return volumes
