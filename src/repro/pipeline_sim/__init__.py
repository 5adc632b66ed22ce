"""Pipeline schedules (1F1B, interleaved) and their pricing."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "schedule": ("Op", "OpKind", "ScheduleTable", "op_dependency",
                 "rank_of_group", "schedule_table", "validate_schedule"),
    "overlap": ("OverlapSegment", "longctx_overlap_report",
                "schedule_overlap"),
    "timeline": ("TimelineCosts", "figure10", "render_timeline"),
})

__all__ = [
    "Op", "OpKind", "OverlapSegment", "ScheduleTable",
    "TimelineCosts", "figure10", "longctx_overlap_report", "op_dependency",
    "rank_of_group",
    "render_timeline", "schedule_overlap", "schedule_table",
    "validate_schedule",
]
