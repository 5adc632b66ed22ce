"""Paged KV-cache allocator with byte-exact memory accounting.

The serving analogue of the paper's activation bookkeeping: at decode
time the per-layer K/V tensors play the role of saved activations, and
their footprint must be *known in closed form* (``memory_model.
kv_cache_bytes``) and *measured with zero drift* (every physical block
registered in the :class:`~repro.tensor.MemoryTracker` under the
``kv_cache`` category).

Layout (vLLM-style paging):

* device memory is carved into ``num_blocks`` fixed blocks of
  ``block_size`` token slots; a block reserves its slots in **every**
  layer's K and V store at once, so one per-request block table indexes
  all layers;
* each request owns a :class:`BlockTable` — an ordered list of physical
  block ids covering its token positions — and blocks return to the pool
  (and their tracker charge is released) the moment the request
  finishes, is dropped for recompute-resume, or is swapped out;
* block ids come from a :class:`~repro.allocator.FirstFitAllocator`
  managing the byte arena, so exhaustion, reuse order and the reserved
  high-water mark follow the repo's existing allocator semantics
  (equal-size aligned requests make first-fit exact: offsets are
  deterministic and ``offset // block_bytes`` is the block id).

Concrete K/V math is stored in float64 (like all simulation math) while
bytes are accounted at FP16 width — the same convention the activation
tracker uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..allocator import FirstFitAllocator
from ..config import ModelConfig
from ..errors import ConfigError, PlanningError
from ..memory_model.kv import (
    kv_block_bytes,
    kv_blocks_for_tokens,
    kv_cache_bytes,
)
from ..tensor import MemoryTracker
from ..tensor.dtypes import FP16


class KVCacheFull(PlanningError):
    """No free block: admission must wait or a running request must be
    preempted (the scheduler's save-vs-recompute decision point).

    Callers that need to react differently to the two exhaustion points
    catch the subtypes: :class:`KVAdmissionFull` (a *new* request could
    not be admitted — safe to retry elsewhere or later) versus
    :class:`KVStepFull` (an already-resident request could not grow
    mid-decode — the local scheduler's preemption trigger, never a
    router-level retry)."""


class KVAdmissionFull(KVCacheFull):
    """Admission rejection: a new (or swapped-in) request does not fit the
    pool right now.  Nothing was claimed; the request is untouched, so a
    fleet router may retry the dispatch on another replica or back off."""


class KVStepFull(KVCacheFull):
    """Mid-decode exhaustion: a *resident* request needs a fresh block and
    the pool has none.  The owning scheduler must preempt; retrying the
    same step without freeing blocks cannot succeed."""


@dataclass
class BlockTable:
    """One request's ordered map from logical block index to block id."""

    request_id: str
    block_ids: List[int] = field(default_factory=list)
    num_tokens: int = 0


@dataclass(frozen=True)
class SwappedKV:
    """Host-side copy of a preempted request's cache (the *swap* policy).

    ``data[(rank, layer)]`` holds ``(keys, values)`` arrays of shape
    ``(num_tokens, h_local)``; swap-in restores them bit-exactly.
    """

    request_id: str
    num_tokens: int
    data: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]

    @property
    def nbytes(self) -> int:
        """Accounting (FP16) bytes moved per rank by one swap direction."""
        per_rank = [v[0].shape[1] for (r, _l), v in self.data.items() if r == 0]
        h_local = per_rank[0] if per_rank else 0
        layers = sum(1 for (r, _l) in self.data if r == 0)
        return 2 * self.num_tokens * h_local * layers * FP16.nbytes


class PagedKVCache:
    """Fixed-block KV cache for one model replica (serial or TP).

    ``tracker`` charges live every granted block, per rank, under the
    ``kv_cache`` category; :meth:`drift_bytes` must therefore always be
    exactly zero against the closed-form formula — asserted in tests and
    gated by the ``serve`` bench preset.
    """

    CATEGORY = "kv_cache"

    def __init__(self, config: ModelConfig, tensor_parallel: int = 1,
                 block_size: int = 16, num_blocks: int = 64):
        if tensor_parallel < 1:
            raise ConfigError("tensor_parallel must be >= 1")
        if config.hidden_size % tensor_parallel != 0:
            raise ConfigError("hidden_size must divide by tensor_parallel")
        if block_size < 1 or num_blocks < 1:
            raise ConfigError("block_size and num_blocks must be >= 1")
        self.config = config
        self.world = tensor_parallel
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.h_local = config.hidden_size // tensor_parallel
        self.tracker = MemoryTracker()
        #: Per-rank bytes of one block across all layers (the allocator's
        #: request size, also the alignment — offsets stay block-exact).
        self.block_bytes = kv_block_bytes(config, block_size, tensor_parallel)
        self.arena = FirstFitAllocator(
            capacity=num_blocks * self.block_bytes,
            alignment=self.block_bytes)
        self._handles: Dict[int, int] = {}          # block id -> arena handle
        # Physical stores, owned for the cache's lifetime: one (2, num_blocks
        # * block_size, h_local) float64 pool per (rank, layer), K at [0] and
        # V at [1], row ``block * block_size + offset`` holding one token slot.
        # _store[rank][layer][block id] is that block's (2, block_size,
        # h_local) view of the pool -- the object the tracker charges.
        self._pool: List[List[np.ndarray]] = [
            [np.zeros((2, num_blocks * block_size, self.h_local))
             for _ in range(config.num_layers)]
            for _ in range(tensor_parallel)
        ]
        self._store: List[List[List[np.ndarray]]] = [
            [[pool[:, lo:lo + block_size]
              for lo in range(0, num_blocks * block_size, block_size)]
             for pool in pools]
            for pools in self._pool
        ]
        self._tables: Dict[str, BlockTable] = {}
        self.peak_blocks_in_use = 0

    # -- pool state --------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        return len(self._handles)

    @property
    def free_blocks(self) -> int:
        return self.num_blocks - self.blocks_in_use

    def blocks_for_tokens(self, num_tokens: int) -> int:
        return kv_blocks_for_tokens(num_tokens, self.block_size)

    def can_admit(self, num_tokens: int) -> bool:
        """Would a request needing ``num_tokens`` slots fit right now?"""
        return self.blocks_for_tokens(num_tokens) <= self.free_blocks

    def requests(self) -> List[str]:
        return list(self._tables)

    def block_table(self, request_id: str) -> BlockTable:
        table = self._tables.get(request_id)
        if table is None:
            raise ConfigError(f"unknown request {request_id!r}")
        return table

    def num_tokens(self, request_id: str) -> int:
        return self.block_table(request_id).num_tokens

    # -- block grant/release ----------------------------------------------
    def _grant_block(self) -> int:
        try:
            handle = self.arena.alloc(self.block_bytes)
        except PlanningError as error:
            raise KVStepFull(str(error)) from error
        block = self.arena.offset_of(handle) // self.block_bytes
        self._handles[block] = handle
        for rank in range(self.world):
            for layer in range(self.config.num_layers):
                self.tracker.save(rank, self._store[rank][layer][block], FP16,
                                  category=self.CATEGORY)
        self.peak_blocks_in_use = max(self.peak_blocks_in_use,
                                      self.blocks_in_use)
        return block

    def _release_block(self, block: int) -> None:
        handle = self._handles.pop(block)
        self.arena.free(handle)
        for rank in range(self.world):
            for layer in range(self.config.num_layers):
                self.tracker.release(rank, self._store[rank][layer][block])

    # -- request lifecycle -------------------------------------------------
    def add_request(self, request_id: str) -> BlockTable:
        if request_id in self._tables:
            raise ConfigError(f"request {request_id!r} already cached")
        table = BlockTable(request_id)
        self._tables[request_id] = table
        return table

    def reserve_token(self, request_id: str) -> int:
        """Claim the next token slot; grows the table by one block when
        its capacity is exhausted.  Returns the slot's position.  Raises
        :class:`KVStepFull` (leaving the table unchanged) when the pool
        is empty — the scheduler's preemption trigger."""
        table = self.block_table(request_id)
        if table.num_tokens == len(table.block_ids) * self.block_size:
            table.block_ids.append(self._grant_block())
        position = table.num_tokens
        table.num_tokens += 1
        return position

    def needs_block(self, request_id: str) -> bool:
        """Will the next :meth:`reserve_token` need a fresh block?"""
        table = self.block_table(request_id)
        return table.num_tokens == len(table.block_ids) * self.block_size

    def free_request(self, request_id: str) -> List[int]:
        """Return a finished/preempted request's blocks to the pool."""
        table = self.block_table(request_id)
        for block in table.block_ids:
            self._release_block(block)
        del self._tables[request_id]
        return table.block_ids

    # -- K/V data plane ----------------------------------------------------
    def slot_mapping(self, request_ids: Sequence[str]
                     ) -> Tuple[np.ndarray, List[int]]:
        """Block tables -> physical pool rows: the int64 slots of every
        cached token of ``request_ids``, request after request in position
        order, and each request's token count.  The same for every layer
        and rank, so a decode step computes it once; request ``j``'s
        newest token sits at ``slots[cumsum(lengths)[j] - 1]``."""
        size = self.block_size
        slots: List[int] = []
        lengths = []
        for request_id in request_ids:
            table = self.block_table(request_id)
            for i, block in enumerate(table.block_ids):
                slots.extend(range(block * size, block * size
                                   + min(size, table.num_tokens - i * size)))
            lengths.append(table.num_tokens)
        return np.array(slots, dtype=np.int64), lengths

    def write_slots(self, layer: int, rank: int, slots: np.ndarray,
                    k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Store K/V rows (``(len(slots), h_local)`` each) at ``slots``."""
        pool = self._pool[rank][layer]
        pool[0, slots] = k_rows
        pool[1, slots] = v_rows

    def gather_slots(self, layer: int, rank: int,
                     slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The cached ``(keys, values)`` rows at ``slots``, each
        ``(len(slots), h_local)``.  Copies: the caller owns them."""
        keys, values = self._pool[rank][layer].take(slots, axis=1)
        return keys, values

    def gather(self, request_id: str, layer: int,
               rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """All cached ``(keys, values)`` for a request, each
        ``(num_tokens, h_local)`` in position order."""
        return self.gather_slots(layer, rank,
                                 self.slot_mapping([request_id])[0])

    # -- preemption --------------------------------------------------------
    def swap_out(self, request_id: str) -> SwappedKV:
        """Copy a request's cache to the host and free its blocks."""
        slots, (num_tokens,) = self.slot_mapping([request_id])
        data = {
            (rank, layer): self.gather_slots(layer, rank, slots)
            for rank in range(self.world)
            for layer in range(self.config.num_layers)
        }
        self.free_request(request_id)
        return SwappedKV(request_id=request_id, num_tokens=num_tokens,
                         data=data)

    def swap_in(self, swapped: SwappedKV) -> None:
        """Restore a swapped request bit-exactly (raises
        :class:`KVAdmissionFull` untouched when blocks are short)."""
        if not self.can_admit(swapped.num_tokens):
            raise KVAdmissionFull(
                f"swap-in of {swapped.request_id!r} needs "
                f"{self.blocks_for_tokens(swapped.num_tokens)} block(s); "
                f"{self.free_blocks} free")
        self.add_request(swapped.request_id)
        for _ in range(swapped.num_tokens):
            self.reserve_token(swapped.request_id)
        slots, _ = self.slot_mapping([swapped.request_id])
        for (rank, layer), (keys, values) in swapped.data.items():
            self.write_slots(layer, rank, slots, keys, values)

    # -- accounting --------------------------------------------------------
    def expected_bytes(self) -> float:
        """Closed-form bytes per rank for the current resident requests."""
        return kv_cache_bytes(
            self.config,
            [len(t.block_ids) * self.block_size for t in self._tables.values()],
            tensor_parallel=self.world)

    def measured_bytes(self, rank: int = 0) -> int:
        """The tracker's live ``kv_cache`` bytes on one rank."""
        return self.tracker.category_breakdown(rank).get(self.CATEGORY, 0)

    def drift_bytes(self) -> float:
        """Max |tracker - formula| over ranks; must be exactly 0.0."""
        expected = self.expected_bytes()
        return max(abs(self.measured_bytes(rank) - expected)
                   for rank in range(self.world))
