"""Text renderings of the paper's figures: ASCII bars and CSV series.

The CLI prints the same series the paper plots; CSV output allows
external plotting without adding a plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def ascii_bars(labels: Sequence[str], values: Sequence[float],
               width: int = 50, fmt=lambda v: f"{v:.3g}",
               title: Optional[str] = None,
               max_value: Optional[float] = None) -> str:
    """Horizontal bar chart, one bar per (label, value)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    top = max_value if max_value is not None else max(values, default=1.0)
    top = top or 1.0
    label_w = max((len(l) for l in labels), default=0)
    lines: List[str] = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(width * value / top))
        lines.append(f"{label.ljust(label_w)} |{bar} {fmt(value)}")
    return "\n".join(lines)


def csv_series(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Comma-separated series for external plotting."""
    lines = [",".join(headers)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines)


def stacked_ascii_bars(labels: Sequence[str],
                       components: Sequence[tuple],
                       title: Optional[str] = None) -> str:
    """Stacked horizontal bars (e.g. Figure 8's fwd/bwd/recompute split).

    ``components`` is ``[(name, symbol, values), ...]``; each bar stacks
    the components in order using their symbols, 50 characters at the
    largest total.
    """
    totals = [sum(vals[i] for _, _, vals in components) for i in range(len(labels))]
    top = max(totals, default=1.0) or 1.0
    label_w = max((len(l) for l in labels), default=0)
    lines: List[str] = [title] if title else []
    legend = "  ".join(f"{sym}={name}" for name, sym, _ in components)
    lines.append(f"[{legend}]")
    for i, label in enumerate(labels):
        bar = ""
        for _name, sym, vals in components:
            bar += sym * max(0, round(50 * vals[i] / top))
        lines.append(f"{label.ljust(label_w)} |{bar} {totals[i]:.3g}")
    return "\n".join(lines)
