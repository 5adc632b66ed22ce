"""Device-memory allocator simulation (the paper's future work).

The conclusion of the paper: "we plan to further reduce the activation
memory by resolving the issues arising from memory fragmentation for
large microbatches and non-uniform memory allocation due to pipeline
parallelism."  This module makes that concern measurable: a first-fit
free-list allocator (with block splitting and coalescing, a simplified
CUDA-caching-allocator stand-in) is replayed against the *actual*
allocation/free trace the autograd tape produces, yielding the reserved
high-water mark vs. the live high-water mark — the gap is fragmentation.

Recomputation strategies change the trace shape: checkpointing frees
activations early but re-allocates them mid-backward, interleaving
short-lived recompute buffers with long-lived gradients — exactly the
churn the paper worries about.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import PlanningError


@dataclass(frozen=True)
class TraceEvent:
    """One allocation (positive) or free (negative) of ``nbytes``."""

    kind: str          # "alloc" | "free"
    buffer_id: int
    nbytes: int
    category: str


@dataclass
class _Block:
    offset: int
    size: int


@dataclass
class AllocatorStats:
    peak_live_bytes: int = 0
    peak_reserved_bytes: int = 0
    allocations: int = 0
    frees: int = 0

    @property
    def fragmentation(self) -> float:
        """Wasted fraction at the reserved high-water mark:
        ``1 - peak_live / peak_reserved``.  Zero means the allocator never
        reserved more than the live working set."""
        if self.peak_reserved_bytes == 0:
            return 0.0
        return 1.0 - self.peak_live_bytes / self.peak_reserved_bytes


class FirstFitAllocator:
    """First-fit free-list allocator with splitting and coalescing.

    ``alignment`` rounds every request up (CUDA allocators round to 512 B
    blocks); ``capacity`` raises :class:`PlanningError` on exhaustion
    (``None`` = unbounded arena, reserved high-water mark reported)."""

    def __init__(self, capacity: Optional[int] = None, alignment: int = 512):
        if alignment < 1:
            raise PlanningError("alignment must be >= 1")
        self.capacity = capacity
        self.alignment = alignment
        self._free: List[_Block] = []
        self._allocated: Dict[int, _Block] = {}
        self._next_handle = 0
        self._top = 0          # arena high-water offset
        self._live = 0
        self.stats = AllocatorStats()

    def _round(self, nbytes: int) -> int:
        a = self.alignment
        return (max(nbytes, 1) + a - 1) // a * a

    def alloc(self, nbytes: int) -> int:
        size = self._round(nbytes)
        block = None
        best_index = None
        for i, candidate in enumerate(self._free):
            if candidate.size >= size:
                block = candidate
                best_index = i
                break
        if block is not None:
            if block.size > size:
                # The remainder starts inside the old block's extent, so
                # it keeps the block's slot and the list stays
                # offset-sorted without a re-sort.
                self._free[best_index] = _Block(block.offset + size,
                                                block.size - size)
                block = _Block(block.offset, size)
            else:
                del self._free[best_index]
        else:
            if self.capacity is not None and self._top + size > self.capacity:
                raise PlanningError(
                    f"allocator OOM: need {size} bytes above offset {self._top} "
                    f"with capacity {self.capacity} (fragmentation?)"
                )
            block = _Block(self._top, size)
            self._top += size
        handle = self._next_handle
        self._next_handle += 1
        self._allocated[handle] = block
        self._live += size
        self.stats.allocations += 1
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes, self._live)
        self.stats.peak_reserved_bytes = max(self.stats.peak_reserved_bytes, self._top)
        return handle

    def free(self, handle: int) -> None:
        block = self._allocated.pop(handle, None)
        if block is None:
            raise PlanningError(f"double free or unknown handle {handle}")
        self._live -= block.size
        self.stats.frees += 1
        self._insert_free(block)

    def _insert_free(self, block: _Block) -> None:
        """Insert a freed block keeping ``_free`` offset-sorted and
        coalesced — a bisect insert plus neighbour merges, instead of the
        former per-free append + full sort + full-list coalesce pass.
        The list invariant (sorted, adjacent-free, nothing touching the
        arena top) holds on entry, so only the insertion point can merge."""
        free = self._free
        i = bisect.bisect_left(free, block.offset, key=lambda b: b.offset)
        if i > 0 and free[i - 1].offset + free[i - 1].size == block.offset:
            merged = free[i - 1]
            merged.size += block.size
            index = i - 1
            if i < len(free) and merged.offset + merged.size == free[i].offset:
                merged.size += free[i].size
                del free[i]
        elif i < len(free) and block.offset + block.size == free[i].offset:
            merged = free[i]
            merged.offset = block.offset
            merged.size += block.size
            index = i
        else:
            free.insert(i, block)
            merged = block
            index = i
        # Shrink the arena when the top block is free (allows reserved
        # high-water to stay meaningful rather than monotone).
        if index == len(free) - 1 and merged.offset + merged.size == self._top:
            self._top = merged.offset
            free.pop()

    def offset_of(self, handle: int) -> int:
        """Arena byte offset of a live allocation (stable until freed).

        The paged KV cache derives block ids from offsets: with equal-size
        aligned requests, first-fit hands out deterministic, densely
        packed offsets, so ``offset // block_bytes`` is a stable block
        index."""
        block = self._allocated.get(handle)
        if block is None:
            raise PlanningError(f"unknown or freed handle {handle}")
        return block.offset

    @property
    def live_bytes(self) -> int:
        return self._live

    @property
    def reserved_bytes(self) -> int:
        return self._top


class CachingAllocator:
    """A CUDA-caching-allocator-style model: freed blocks are cached in
    size bins and only reused by requests that round to the same bin; the
    arena never shrinks.  This is the allocator family whose behaviour the
    paper's future-work paragraph worries about — mixed-size transients
    (recompute buffers between long-lived gradients) strand cached blocks
    that first-fit-with-coalescing would have reused.
    """

    #: round small requests to 512 B, large (>1 MiB) to 2 MiB, like the
    #: PyTorch caching allocator's split thresholds.
    SMALL_ALIGN = 512
    LARGE_ALIGN = 2 * 1024 * 1024
    LARGE_THRESHOLD = 1024 * 1024

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._bins: Dict[int, List[int]] = {}   # size -> count of cached blocks
        self._allocated: Dict[int, int] = {}    # handle -> size
        self._next_handle = 0
        self._reserved = 0
        self._live = 0
        self.stats = AllocatorStats()

    def _round(self, nbytes: int) -> int:
        a = self.LARGE_ALIGN if nbytes > self.LARGE_THRESHOLD else self.SMALL_ALIGN
        return (max(nbytes, 1) + a - 1) // a * a

    def alloc(self, nbytes: int) -> int:
        size = self._round(nbytes)
        cached = self._bins.get(size)
        if cached:
            cached.pop()
        else:
            if self.capacity is not None and self._reserved + size > self.capacity:
                raise PlanningError(
                    f"caching allocator OOM: reserved {self._reserved} + {size} "
                    f"exceeds {self.capacity} (cached blocks of other sizes "
                    "cannot be reused)"
                )
            self._reserved += size
        handle = self._next_handle
        self._next_handle += 1
        self._allocated[handle] = size
        self._live += size
        self.stats.allocations += 1
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes, self._live)
        self.stats.peak_reserved_bytes = max(self.stats.peak_reserved_bytes,
                                             self._reserved)
        return handle

    def free(self, handle: int) -> None:
        size = self._allocated.pop(handle, None)
        if size is None:
            raise PlanningError(f"double free or unknown handle {handle}")
        self._live -= size
        self.stats.frees += 1
        self._bins.setdefault(size, []).append(1)

    @property
    def live_bytes(self) -> int:
        return self._live

    @property
    def reserved_bytes(self) -> int:
        return self._reserved


def replay(trace: List[TraceEvent],
           allocator: Optional[FirstFitAllocator] = None) -> AllocatorStats:
    """Feed a tape trace through an allocator and return its stats."""
    allocator = allocator or FirstFitAllocator()
    handles: Dict[int, int] = {}
    for event in trace:
        if event.kind == "alloc":
            handles[event.buffer_id] = allocator.alloc(event.nbytes)
        else:
            handle = handles.pop(event.buffer_id, None)
            if handle is not None:
                allocator.free(handle)
    return allocator.stats


def layer_trace(model_config, microbatch_size: int, tensor_parallel: int,
                sequence_parallel: bool, recompute,
                num_layers: int = 4, num_microbatches: int = 1) -> List[TraceEvent]:
    """The rank-0 alloc/free stream of ``num_layers`` stacked abstract
    layers run fwd+bwd for ``num_microbatches`` accumulation steps."""
    from .comm.process_group import ProcessGroup
    from .layers.transformer import abstract_layer
    from .observability.memprof import MemoryLedger
    from .parallel.layout import TensorParallel
    from .tensor import instrument

    layout = TensorParallel(ProcessGroup(tensor_parallel), sequence_parallel)
    layers = [
        abstract_layer(layout, model_config, microbatch_size,
                       recompute=recompute, tag=f"frag_layer{i}")[0]
        for i in range(num_layers)
    ]
    ledger = MemoryLedger()
    with instrument(memory=ledger):
        for _ in range(num_microbatches):
            x = layout.abstract_stream(model_config, microbatch_size)
            for layer in layers:
                x = layer(x)
            x.backward()
    return ledger.trace(0)


def measure_fragmentation(model_config, microbatch_size: int, tensor_parallel: int,
                          sequence_parallel: bool, recompute,
                          num_layers: int = 4, num_microbatches: int = 1,
                          caching: bool = False) -> AllocatorStats:
    """Replay a real layer-stack trace through an allocator model.

    ``caching=False`` uses first-fit with coalescing (a compactable
    ideal); ``caching=True`` the size-binned caching model whose stranded
    blocks exhibit the fragmentation the paper's future work targets."""
    trace = layer_trace(model_config, microbatch_size, tensor_parallel,
                        sequence_parallel, recompute,
                        num_layers=num_layers, num_microbatches=num_microbatches)
    allocator = CachingAllocator() if caching else FirstFitAllocator()
    return replay(trace, allocator)
