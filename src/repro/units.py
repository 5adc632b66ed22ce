"""Unit constants and human-readable formatting helpers.

All memory quantities in this library are expressed in **bytes** and all
times in **seconds** unless a name explicitly says otherwise (``_ms``,
``_gb`` ...).  The paper reports memory in GB (decimal gigabytes when quoting
formula results such as ``sbhp = 2.73 GB`` for the 530B model, which uses
GB = 2**30 bytes in the Megatron codebase; we follow the binary convention
and call it out where it matters).
"""

from __future__ import annotations

KIB = 1024
MIB = 1024**2
GIB = 1024**3
TIB = 1024**4

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000
TERA = 1_000_000_000_000


def fmt_bytes(n_bytes: float) -> str:
    """Format a byte count with a binary suffix, e.g. ``'2.73 GiB'``."""
    n = float(n_bytes)
    for suffix, scale in (("TiB", TIB), ("GiB", GIB), ("MiB", MIB), ("KiB", KIB)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {suffix}"
    return f"{n:.0f} B"


def fmt_flops(n_flops: float) -> str:
    """Format a FLOP count with a decimal suffix, e.g. ``'7.83 TFLOP'``."""
    n = float(n_flops)
    for suffix, scale in (("PFLOP", 1e15), ("TFLOP", TERA), ("GFLOP", GIGA), ("MFLOP", MEGA)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {suffix}"
    return f"{n:.0f} FLOP"


def fmt_count(n: float) -> str:
    """Format a large count, e.g. a parameter count: ``'530.0B'``."""
    n = float(n)
    for suffix, scale in (("T", 1e12), ("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.1f}{suffix}"
    return f"{n:.0f}"
