"""Continuous-batching inference serving on the training substrate.

The serving stack reuses the repo's verified pieces end to end: the
paged KV cache sits on :class:`~repro.allocator.FirstFitAllocator` and
charges every block in the :class:`~repro.tensor.MemoryTracker` (closed
form in :func:`repro.memory_model.kv_cache_bytes`, zero drift by
construction); the decode engine runs the serial or tensor-parallel
model token-identically to :func:`repro.inference.generate`; and the
scheduler prices its simulated clock with the kernel/collective cost
models and emits tracer spans per serving phase.
"""

from .engine import DecodeEngine
from .kv_cache import (
    KVAdmissionFull,
    KVCacheFull,
    PagedKVCache,
    SwappedKV,
)
from .perf import ServingPerfModel, simulate_static_batching
from .scheduler import (
    POLICIES,
    ContinuousBatchingScheduler,
    RequestSpec,
    RequestState,
    generate_requests,
)

__all__ = [
    "ContinuousBatchingScheduler",
    "DecodeEngine",
    "KVAdmissionFull",
    "KVCacheFull",
    "PagedKVCache",
    "POLICIES",
    "RequestSpec",
    "RequestState",
    "ServingPerfModel",
    "SwappedKV",
    "generate_requests",
    "simulate_static_batching",
]
