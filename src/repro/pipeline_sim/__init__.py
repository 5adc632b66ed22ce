"""Pipeline schedules (1F1B, interleaved) and event-driven simulation."""

from .schedule import (
    Op,
    OpKind,
    ScheduleTable,
    op_dependency,
    rank_of_group,
    schedule_table,
    validate_schedule,
)
from .simulator import PipelineCosts, simulate
from .overlap import (
    OverlapSegment,
    longctx_overlap_report,
    schedule_overlap,
)
from .timeline import TimelineCosts, figure10, render_timeline

__all__ = [
    "Op", "OpKind", "OverlapSegment", "PipelineCosts", "ScheduleTable",
    "TimelineCosts", "figure10", "longctx_overlap_report", "op_dependency",
    "rank_of_group",
    "render_timeline", "simulate", "schedule_overlap", "schedule_table",
    "validate_schedule",
]
