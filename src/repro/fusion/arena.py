"""Zero-copy scratch-buffer arena for the fused kernels.

Each fused op in :mod:`repro.fusion.ops` needs a handful of temporaries
per shard.  Allocating them with ``np.empty`` every call is what the
unfused tape does implicitly on every intermediate expression; the arena
recycles them instead, keyed by ``(shape, dtype)``, so steady-state
training reuses the same few buffers across layers, ranks and steps.

The policy is **scratch-only**: outputs and saved activations are always
fresh arrays (they escape the op and may be referenced indefinitely by
the tape, the optimizer or the caller); only internal temporaries that
provably die inside one forward/backward call are taken from — and given
back to — the arena.  That makes recycling safe without any liveness
analysis.

The arena records the same :class:`~repro.allocator.TraceEvent` stream
that :meth:`repro.observability.memprof.MemoryLedger.trace` produces, so
a fused run's scratch churn can be replayed through
:func:`repro.allocator.replay` against the first-fit or caching
allocator models alongside the activation trace.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..allocator import TraceEvent

#: Category tag used for arena alloc/free events in allocator replays.
SCRATCH_CATEGORY = "fusion_scratch"


class BufferArena:
    """Recycles float64 scratch ndarrays keyed by shape.

    ``take(shape)`` returns an *uninitialised* buffer (contents are
    whatever the previous user left — callers must fully overwrite via
    ``out=`` kwargs).  ``give(*arrays)`` returns buffers to the free
    list; only base arrays the caller owns outright may be given back.
    """

    def __init__(self, trace: bool = False):
        self._free: Dict[Tuple[int, ...], List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_served = 0
        self.trace_enabled = trace
        self.trace: List[TraceEvent] = []

    def take(self, shape) -> np.ndarray:
        key = tuple(shape)
        stack = self._free.get(key)
        if stack:
            self.hits += 1
            buf = stack.pop()
        else:
            self.misses += 1
            buf = np.empty(key, dtype=np.float64)
        self.bytes_served += buf.nbytes
        if self.trace_enabled:
            self.trace.append(
                TraceEvent("alloc", id(buf), buf.nbytes, SCRATCH_CATEGORY))
        return buf

    def give(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            if not isinstance(a, np.ndarray) or a.base is not None:
                continue  # views / abstract shards never enter the pool
            if self.trace_enabled:
                self.trace.append(
                    TraceEvent("free", id(a), a.nbytes, SCRATCH_CATEGORY))
            self._free.setdefault(a.shape, []).append(a)

    @property
    def pooled_buffers(self) -> int:
        return sum(len(stack) for stack in self._free.values())

    @property
    def pooled_bytes(self) -> int:
        return sum(buf.nbytes for stack in self._free.values() for buf in stack)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_served": self.bytes_served,
            "pooled_buffers": self.pooled_buffers,
            "pooled_bytes": self.pooled_bytes,
        }

    def clear(self) -> None:
        self._free.clear()
        self.trace.clear()
        self.hits = self.misses = self.bytes_served = 0


_default_arena = BufferArena()


def default_arena() -> BufferArena:
    """The process-wide arena the fused ops draw scratch from."""
    return _default_arena


def reset_arena(trace: bool = False) -> BufferArena:
    """Install a fresh default arena (e.g. before a measured benchmark run)."""
    global _default_arena
    _default_arena = BufferArena(trace=trace)
    return _default_arena
