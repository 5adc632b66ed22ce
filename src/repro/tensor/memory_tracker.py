"""Activation-memory accounting.

"Activations" here means exactly what the paper means (Section 4): any
tensor created in the forward pass that must be kept for gradient
computation during back-propagation — excluding model parameters and
optimizer state, but including dropout masks.

The tracker charges a buffer to a rank the first time that rank's autograd
tape saves it and releases the charge when the last tape reference on that
rank drops (backward consumed it, or the graph was discarded).  Buffers are
deduplicated per rank by identity: when the Q, K and V projections all save
their shared input, it is counted once — matching the paper's "we only need
to store their shared input with size 2sbh".

Identity-based dedup needs a charged buffer alive until it is released (a
freed buffer's ``id`` is recycled and would swallow the next charge), so
each entry owns a reference to its buffer for as long as it is charged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .backend import size_of
from .dtypes import DType


@dataclass
class _BufferEntry:
    buffer: object  # held so that ``id(buffer)`` stays this buffer's
    nbytes: int
    category: str
    born: int  # the tracker's sequence number at the first charge
    refcount: int = 1


@dataclass(frozen=True)
class WatermarkEvent:
    """One peak-watermark crossing: rank ``rank`` set a new peak at time
    ``t`` (simulated seconds when a tracer clock is wired in, otherwise
    the tracker's own monotone save/release sequence number).

    ``by_category`` is the live-bytes composition *at crossing time*
    (non-zero categories only) — the snapshot-at-peak that previously had
    to be reconstructed after the fact.  Its values sum exactly to
    ``live_bytes``."""

    t: float
    rank: int
    peak_bytes: int
    live_bytes: int
    by_category: Dict[str, int] = field(default_factory=dict)


@dataclass
class MemorySnapshot:
    """Point-in-time view of per-rank saved-activation bytes."""

    live_bytes: Dict[int, int] = field(default_factory=dict)
    peak_bytes: Dict[int, int] = field(default_factory=dict)
    by_category: Dict[int, Dict[str, int]] = field(default_factory=dict)


class MemoryTracker:
    """Tracks live and peak saved-activation bytes per rank."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], _BufferEntry] = {}
        self._live: Dict[int, int] = defaultdict(int)
        self._peak: Dict[int, int] = defaultdict(int)
        self._category_live: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._clock: Optional[Callable[[], float]] = None
        self._seq = 0
        self._watermarks: List[WatermarkEvent] = []

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Timestamp watermark events with ``clock()`` (e.g. a tracer's
        simulated clock) instead of the internal sequence number."""
        self._clock = clock

    def _now(self) -> float:
        return float(self._seq) if self._clock is None else self._clock()

    # -- recording ---------------------------------------------------------
    def save(self, rank: int, buffer, dtype: DType, category: str = "activation") -> None:
        """Charge ``buffer`` (array-like) to ``rank`` at ``dtype`` width."""
        self._seq += 1
        key = (rank, id(buffer))
        entry = self._entries.get(key)
        if entry is not None:
            entry.refcount += 1
            return
        nbytes = size_of(buffer) * dtype.nbytes
        self._entries[key] = _BufferEntry(buffer=buffer, nbytes=nbytes,
                                          category=category, born=self._seq)
        self._live[rank] += nbytes
        self._category_live[rank][category] += nbytes
        if self._live[rank] > self._peak[rank]:
            self._peak[rank] = self._live[rank]
            self._watermarks.append(WatermarkEvent(
                t=self._now(), rank=rank, peak_bytes=self._peak[rank],
                live_bytes=self._live[rank],
                by_category={k: v for k, v in self._category_live[rank].items()
                             if v != 0}))

    def release(self, rank: int, buffer) -> None:
        """Drop one tape reference to ``buffer`` on ``rank``."""
        self._seq += 1
        key = (rank, id(buffer))
        entry = self._entries.get(key)
        if entry is None:
            return  # buffer was never charged (e.g. a parameter)
        entry.refcount -= 1
        if entry.refcount == 0:
            del self._entries[key]
            self._live[rank] -= entry.nbytes
            self._category_live[rank][entry.category] -= entry.nbytes

    def mark(self) -> int:
        """A point of the save/release stream for :meth:`rollback`."""
        return self._seq

    def rollback(self, mark: int) -> List[Tuple[int, int]]:
        """Drop, whatever its refcount, every live buffer first charged
        after ``mark``; returns the dropped keys.  A step attempt aborted
        mid-forward never releases what it saved — its tape is garbage —
        so its charges would stay live (and its buffers held) for good.
        Peaks already set stand: those bytes were live."""
        self._seq += 1
        dropped = [key for key, entry in self._entries.items()
                   if entry.born > mark]
        for key in dropped:
            entry = self._entries.pop(key)
            self._live[key[0]] -= entry.nbytes
            self._category_live[key[0]][entry.category] -= entry.nbytes
        return dropped

    # -- queries -----------------------------------------------------------
    def live_bytes(self, rank: Optional[int] = None) -> int:
        if rank is None:
            return sum(self._live.values())
        return self._live.get(rank, 0)

    def peak_bytes(self, rank: Optional[int] = None) -> int:
        if rank is None:
            return max(self._peak.values(), default=0)
        return self._peak.get(rank, 0)

    def category_breakdown(self, rank: int) -> Dict[str, int]:
        return {k: v for k, v in self._category_live[rank].items() if v != 0}

    def watermark_events(self, rank: Optional[int] = None) -> List[WatermarkEvent]:
        """The timestamped peak-watermark timeline (not just the final
        peak): one event per time a rank's live bytes set a new peak.
        The tracer turns these into Perfetto counter events."""
        if rank is None:
            return list(self._watermarks)
        return [w for w in self._watermarks if w.rank == rank]

    def snapshot(self) -> MemorySnapshot:
        return MemorySnapshot(
            live_bytes=dict(self._live),
            peak_bytes=dict(self._peak),
            by_category={r: dict(cats) for r, cats in self._category_live.items()},
        )
