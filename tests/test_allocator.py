"""Allocator simulation (the paper's future-work fragmentation study)
and the first-fit allocator's sorted free list, differential-tested
against the former append+sort+scan implementation."""

import numpy as np
import pytest

from repro.allocator import (
    CachingAllocator,
    FirstFitAllocator,
    TraceEvent,
    layer_trace,
    measure_fragmentation,
    replay,
)
from repro.config import PAPER_CONFIGS
from repro.errors import PlanningError
from repro.layers import Recompute
from repro.observability import MemoryLedger
from repro.tensor import FP32

M22 = PAPER_CONFIGS["22B"].model


class TestFirstFit:
    def test_alloc_free_roundtrip(self):
        a = FirstFitAllocator(alignment=1)
        h = a.alloc(100)
        assert a.live_bytes == 100 and a.reserved_bytes == 100
        a.free(h)
        assert a.live_bytes == 0 and a.reserved_bytes == 0  # top shrinks

    def test_reuses_freed_block(self):
        a = FirstFitAllocator(alignment=1)
        h1 = a.alloc(100)
        h2 = a.alloc(50)
        a.free(h1)
        a.alloc(80)  # fits in the freed 100-block
        assert a.reserved_bytes == 150

    def test_splits_large_free_block(self):
        a = FirstFitAllocator(alignment=1)
        h1 = a.alloc(100)
        sentinel = a.alloc(10)
        a.free(h1)
        a.alloc(40)
        a.alloc(60)  # remainder of the split block
        assert a.reserved_bytes == 110

    def test_coalesces_adjacent_frees(self):
        a = FirstFitAllocator(alignment=1)
        h1, h2, h3 = a.alloc(50), a.alloc(50), a.alloc(10)
        a.free(h1)
        a.free(h2)  # coalesce into one 100-block
        a.alloc(100)
        assert a.reserved_bytes == 110

    def test_capacity_oom(self):
        a = FirstFitAllocator(capacity=100, alignment=1)
        a.alloc(80)
        with pytest.raises(PlanningError):
            a.alloc(30)

    def test_double_free_rejected(self):
        a = FirstFitAllocator()
        h = a.alloc(10)
        a.free(h)
        with pytest.raises(PlanningError):
            a.free(h)

    def test_alignment_rounding(self):
        a = FirstFitAllocator(alignment=512)
        a.alloc(1)
        assert a.reserved_bytes == 512


class TestCaching:
    def test_reuses_same_size_bin_only(self):
        a = CachingAllocator()
        h = a.alloc(1000)
        a.free(h)
        a.alloc(1000)           # same bin: no growth
        assert a.reserved_bytes == 1024
        a.alloc(2000)           # different bin: grows
        assert a.reserved_bytes == 1024 + 2048

    def test_stranded_bins_fragment(self):
        a = CachingAllocator()
        h = a.alloc(10 * 2**20)  # large block
        a.free(h)
        a.alloc(4 * 2**20)       # different size: cached block is stranded
        assert a.reserved_bytes == 14 * 2**20
        assert a.live_bytes == 4 * 2**20
        assert a.stats.fragmentation > 0.25  # 1 - 10/14

    def test_large_requests_round_to_2mb(self):
        a = CachingAllocator()
        a.alloc(3 * 2**20 + 1)
        assert a.reserved_bytes == 4 * 2**20

    def test_capacity_counts_stranded_cache(self):
        a = CachingAllocator(capacity=6 * 2**20)
        h = a.alloc(4 * 2**20)
        a.free(h)                 # 4 MiB cached but unusable for 2 MiB bin
        a.alloc(2 * 2**20)        # reserved hits capacity
        with pytest.raises(PlanningError):
            a.alloc(2 * 2**20)

    def test_double_free_rejected(self):
        a = CachingAllocator()
        h = a.alloc(10)
        a.free(h)
        with pytest.raises(PlanningError):
            a.free(h)


class TestTraceReplay:
    def test_rolled_back_buffers_replay_to_zero_live_bytes(self):
        """A rollback drops an aborted attempt's charges; the trace must
        free them too, or an allocator replay keeps them live for good."""
        ledger = MemoryLedger()
        kept, *dropped = (np.zeros(4) for _ in range(3))
        ledger.save(0, kept, FP32)
        mark = ledger.mark()
        for buffer in dropped:
            ledger.save(0, buffer, FP32)
        ledger.rollback(mark)
        ledger.release(0, kept)
        assert ledger.live_bytes(0) == 0
        allocator = FirstFitAllocator()
        replay(ledger.trace(0), allocator)
        assert allocator.live_bytes == 0

    def test_tracker_emits_balanced_trace(self):
        trace = layer_trace(M22, 4, 8, True, Recompute.SELECTIVE, num_layers=2)
        allocs = sum(1 for e in trace if e.kind == "alloc")
        frees = sum(1 for e in trace if e.kind == "free")
        assert allocs == frees > 0

    def test_replay_peak_matches_tracker_live_peak(self):
        """First-fit at 1-byte alignment reserves exactly the live peak on
        a full fwd+bwd trace (allocations are freed in near-LIFO order)."""
        trace = layer_trace(M22, 4, 8, False, Recompute.NONE, num_layers=2)
        stats = replay(trace, FirstFitAllocator(alignment=1))
        live_peak = 0
        live = 0
        for e in trace:
            live += e.nbytes if e.kind == "alloc" else -e.nbytes
            live_peak = max(live_peak, live)
        assert stats.peak_live_bytes == live_peak
        assert stats.fragmentation < 0.01

    def test_unknown_free_ignored(self):
        stats = replay([TraceEvent("free", 42, 100, "x")])
        assert stats.frees == 0


class TestFragmentationStudy:
    def test_first_fit_does_not_fragment_these_traces(self):
        for sp, rc in [(False, Recompute.NONE), (True, Recompute.SELECTIVE),
                       (False, Recompute.FULL)]:
            stats = measure_fragmentation(M22, 4, 8, sp, rc, num_layers=4)
            assert stats.fragmentation < 0.01

    def test_caching_allocator_fragments_under_selective_recompute(self):
        """The future-work phenomenon: recompute transients strand cached
        size bins that a coalescing allocator would reuse."""
        selective = measure_fragmentation(M22, 4, 8, True, Recompute.SELECTIVE,
                                          num_layers=4, caching=True)
        baseline = measure_fragmentation(M22, 4, 8, False, Recompute.NONE,
                                         num_layers=4, caching=True)
        assert selective.fragmentation > 0.03
        assert baseline.fragmentation < 0.01

    def test_more_microbatches_more_allocator_churn(self):
        """"memory fragmentation for large microbatches": accumulating
        microbatches multiplies the alloc/free churn."""
        one, three = (measure_fragmentation(M22, 4, 8, True,
                                            Recompute.SELECTIVE, num_layers=2,
                                            num_microbatches=n, caching=True)
                      for n in (1, 3))
        assert three.allocations > one.allocations

    def test_recompute_lowers_live_peak_despite_fragmentation(self):
        full = measure_fragmentation(M22, 4, 8, False, Recompute.FULL,
                                     num_layers=4, caching=True)
        none = measure_fragmentation(M22, 4, 8, False, Recompute.NONE,
                                     num_layers=4, caching=True)
        assert full.peak_reserved_bytes < none.peak_reserved_bytes


class _ReferenceFirstFit(FirstFitAllocator):
    """The pre-optimisation free path: append, full sort, full-list
    coalesce scan.  Kept as the differential-test oracle for the sorted
    insert in :meth:`FirstFitAllocator._insert_free`."""

    def free(self, handle: int) -> None:
        block = self._allocated.pop(handle, None)
        if block is None:
            raise PlanningError(f"double free or unknown handle {handle}")
        self._live -= block.size
        self.stats.frees += 1
        self._free.append(block)
        self._free.sort(key=lambda b: b.offset)
        merged = []
        for blk in self._free:
            if merged and merged[-1].offset + merged[-1].size == blk.offset:
                merged[-1].size += blk.size
            else:
                merged.append(blk)
        if merged and merged[-1].offset + merged[-1].size == self._top:
            self._top = merged[-1].offset
            merged.pop()
        self._free = merged


class TestFirstFitDifferential:
    def test_sorted_insert_matches_reference(self):
        """Random alloc/free interleavings: the bisect-insert free list
        must equal the former sort-and-scan implementation block for
        block (offsets, sizes, arena top, stats) after every event."""
        for trial in range(25):
            local = np.random.default_rng(trial)
            fast = FirstFitAllocator(alignment=64)
            slow = _ReferenceFirstFit(alignment=64)
            live = []
            for _ in range(300):
                if live and local.random() < 0.45:
                    i = int(local.integers(len(live)))
                    hf, hs = live.pop(i)
                    fast.free(hf)
                    slow.free(hs)
                else:
                    n = int(local.integers(1, 4096))
                    live.append((fast.alloc(n), slow.alloc(n)))
                assert [(b.offset, b.size) for b in fast._free] == \
                    [(b.offset, b.size) for b in slow._free], trial
                assert fast._top == slow._top
            assert fast.stats == slow.stats
            assert fast.stats.peak_reserved_bytes > 0  # not vacuously equal

    def test_free_list_stays_sorted_and_coalesced(self):
        a = FirstFitAllocator(alignment=1)
        handles = [a.alloc(10) for _ in range(8)]
        keep = a.alloc(5)
        for h in handles[::2]:
            a.free(h)
        for h in handles[1::2]:
            a.free(h)
        offsets = [b.offset for b in a._free]
        assert offsets == sorted(offsets)
        for left, right in zip(a._free, a._free[1:]):
            assert left.offset + left.size < right.offset
        a.free(keep)
        assert a.reserved_bytes == 0 and a._free == []
