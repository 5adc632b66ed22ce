"""Pipeline schedules (1F1B, interleaved) and event-driven simulation."""

from .schedule import (
    Op,
    OpKind,
    ScheduleTable,
    StorageWindow,
    op_dependency,
    rank_of_group,
    schedule_table,
    validate_schedule,
)
from .simulator import PipelineCosts, SimResult, simulate
from .overlap import (
    OverlapResult,
    OverlapSegment,
    longctx_overlap_report,
    longctx_overlap_segments,
    schedule_overlap,
)
from .timeline import TimelineCosts, figure10, render_timeline

__all__ = [
    "Op", "OpKind", "OverlapResult", "OverlapSegment", "PipelineCosts",
    "ScheduleTable", "SimResult", "StorageWindow", "TimelineCosts", "figure10",
    "longctx_overlap_report", "longctx_overlap_segments", "op_dependency",
    "rank_of_group",
    "render_timeline", "simulate", "schedule_overlap", "schedule_table",
    "validate_schedule",
]
