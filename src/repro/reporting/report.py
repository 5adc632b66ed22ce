"""Full reproduction report: regenerate every table/figure in one pass.

``python -m repro report`` (or :func:`full_report`) walks all the
experiments and emits a single markdown-ish document mirroring
EXPERIMENTS.md, computed fresh from the current code — useful after
changing the cost model or hardware spec to see every downstream number
at once.
"""

from __future__ import annotations

from typing import List


def full_report() -> str:
    """Every experiment's current output, concatenated with headers."""
    # Imported lazily: experiments itself imports repro.reporting.
    from ..experiments import PAPER_MENU

    parts: List[str] = [
        "# Reproduction report\n"
        "Generated by `python -m repro report` — every number computed "
        "fresh from the simulator.\n"
    ]
    for item in PAPER_MENU:
        if item.title is not None:
            parts.append(f"## {item.kind.capitalize()} {item.number} — "
                         f"{item.title}\n\n{item.report()}\n")
    return "\n".join(parts)
