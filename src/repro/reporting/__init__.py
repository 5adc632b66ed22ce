"""Table/figure formatting for the CLI and the reports."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "figures": ("ascii_bars", "csv_series", "stacked_ascii_bars"),
    "report": ("full_report",),
    "tables": ("format_table", "ms", "pct", "seconds"),
})

__all__ = [
    "ascii_bars", "csv_series", "format_table", "full_report",
    "ms", "pct", "seconds", "stacked_ascii_bars",
]
