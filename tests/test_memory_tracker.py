"""Memory tracker: dedup, refcounting, categories, per-rank accounting."""

import numpy as np

from repro.tensor import FP16, FP32, MASK, MemoryTracker


class TestTracker:
    def test_basic_charge_and_release(self):
        mt = MemoryTracker()
        buf = np.zeros(10)
        mt.save(0, buf, FP16)
        assert mt.live_bytes(0) == 20
        mt.release(0, buf)
        assert mt.live_bytes(0) == 0

    def test_dtype_width(self):
        mt = MemoryTracker()
        a, b = np.zeros(10), np.zeros(10)  # keep alive: dedup is by identity
        mt.save(0, a, FP32)
        mt.save(0, b, MASK)
        assert mt.live_bytes(0) == 40 + 10

    def test_dedup_same_buffer_same_rank(self):
        mt = MemoryTracker()
        buf = np.zeros(8)
        mt.save(0, buf, FP16, category="a")
        mt.save(0, buf, FP16, category="b")  # refcount, not double charge
        assert mt.live_bytes(0) == 16
        mt.release(0, buf)
        assert mt.live_bytes(0) == 16  # still one ref
        mt.release(0, buf)
        assert mt.live_bytes(0) == 0

    def test_replicated_buffer_charged_per_rank(self):
        mt = MemoryTracker()
        buf = np.zeros(8)
        for rank in range(4):
            mt.save(rank, buf, FP16)
        assert mt.live_bytes() == 4 * 16
        assert mt.live_bytes(2) == 16

    def test_peak_tracks_high_water(self):
        mt = MemoryTracker()
        a, b = np.zeros(10), np.zeros(20)
        mt.save(0, a, FP16)
        mt.save(0, b, FP16)
        mt.release(0, a)
        assert mt.live_bytes(0) == 40
        assert mt.peak_bytes(0) == 60

    def test_dropped_buffer_cannot_lend_its_id_to_the_next_charge(self):
        """The entry owns its buffer while charged.  Keyed by a bare
        ``id``, a charged array dropped without ``release`` handed its id
        to the very next allocation, whose ``save`` then bumped the stale
        entry's refcount instead of charging 128 B."""
        mt = MemoryTracker()
        dropped = np.zeros((64, 64))
        mt.save(0, dropped, FP16)
        del dropped
        fresh = np.empty((8, 8))
        mt.save(0, fresh, FP16)
        assert mt.live_bytes(0) == 8192 + 128

    def test_release_unknown_buffer_is_noop(self):
        mt = MemoryTracker()
        mt.release(0, np.zeros(5))
        assert mt.live_bytes(0) == 0

    def test_category_breakdown(self):
        mt = MemoryTracker()
        a, b = np.zeros(10), np.zeros(10)
        mt.save(0, a, FP16, category="softmax_output")
        mt.save(0, b, MASK, category="dropout_mask")
        breakdown = mt.category_breakdown(0)
        assert breakdown == {"softmax_output": 20, "dropout_mask": 10}

    def test_snapshot(self):
        mt = MemoryTracker()
        a, b = np.zeros(10), np.zeros(5)
        mt.save(0, a, FP16)
        mt.save(1, b, FP16)
        snap = mt.snapshot()
        assert snap.live_bytes == {0: 20, 1: 10}
        assert snap.peak_bytes == {0: 20, 1: 10}
