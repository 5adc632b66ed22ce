"""Plain-text table formatting for benchmark and CLI output."""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Aligned monospace table; all cells are str()-ed."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def line(row: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def pct(value: float, digits: int = 1) -> str:
    return f"{100 * value:.{digits}f}%"


def ms(seconds: float) -> str:
    return f"{1e3 * seconds:.2f}"


def seconds(value: float) -> str:
    return f"{value:.2f}"
