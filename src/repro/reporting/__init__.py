"""Table/figure formatting for the CLI and the reports."""

from .figures import ascii_bars, csv_series, grouped_ascii_bars, stacked_ascii_bars
from .report import full_report
from .tables import format_table, ms, pct, seconds

__all__ = [
    "ascii_bars", "csv_series", "format_table", "full_report",
    "grouped_ascii_bars", "ms", "pct", "seconds", "stacked_ascii_bars",
]
