"""Operation log: per-op FLOP, memory-traffic and communication records.

Every autograd function reports what it did — GEMM FLOPs, bytes of memory
traffic for bandwidth-bound ops, collective type and payload for
communication — tagged with the execution phase (forward / backward /
recompute).  One instrumented run of a layer graph therefore yields
everything the analysis needs:

* FLOP totals by phase -> model vs hardware FLOPs (paper Appendix A),
* per-op records -> the roofline timing model (``repro.perf_model``),
* recompute-phase totals -> recomputation overhead (Table 4, Figure 8).

All quantities are **per rank** (the ranks are symmetric, so functions log
rank 0's share).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional


class Phase(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    RECOMPUTE = "recompute"


class OpKind(str, Enum):
    GEMM = "gemm"
    ELEMENTWISE = "elementwise"
    COLLECTIVE = "collective"
    P2P = "p2p"


@dataclass(frozen=True)
class CommInfo:
    """One collective/p2p call: NCCL-style op over ``group_size`` ranks.

    ``nbytes`` is the per-rank payload (the size of the local input buffer
    for all-reduce / reduce-scatter, of the local shard for all-gather).
    ``scope`` names the process group ("tp", "pp", "dp") so the cost model
    can pick the right link.
    """

    op: str
    nbytes: int
    group_size: int
    scope: str = "tp"


@dataclass(frozen=True)
class OpRecord:
    name: str
    kind: OpKind
    phase: Phase
    flops: float = 0.0
    bytes_moved: float = 0.0
    comm: Optional[CommInfo] = None
    overlapped: bool = False  # hidden behind compute (e.g. bwd weight-grad AR)
    cover: int = 0  # log offset of the record hiding this transfer (0: none)
    #: Emitted by a fused kernel (repro.fusion): ``bytes_moved`` already
    #: reflects the eliminated round trips, so the cost model must not
    #: apply its unfused-log fusion discount a second time.
    fused: bool = False


class OpLog:
    """Accumulates :class:`OpRecord` entries from one instrumented run."""

    def __init__(self) -> None:
        self.records: List[OpRecord] = []

    def add(self, record: OpRecord) -> None:
        self.records.append(record)

    # -- aggregate queries ---------------------------------------------------
    def flops(self, phase: Optional[Phase] = None, kind: Optional[OpKind] = None) -> float:
        return sum(
            r.flops
            for r in self.records
            if (phase is None or r.phase == phase) and (kind is None or r.kind == kind)
        )

    def comm_records(self, phase: Optional[Phase] = None) -> List[OpRecord]:
        return [
            r
            for r in self.records
            if r.comm is not None and (phase is None or r.phase == phase)
        ]

    def clear(self) -> None:
        self.records.clear()
