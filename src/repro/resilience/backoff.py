"""Seeded exponential backoff with deterministic jitter.

Retry storms are the classic way a fleet turns one fault into many:
every client that saw the same timeout retries at the same instant.
Production routers decorrelate retries with *jittered* exponential
backoff — but naive ``random()`` jitter breaks this repository's
determinism standard (a rerun would retry at different times and produce
a different report).

:func:`backoff_delay` squares the two requirements: the delay is a pure
function of ``(seed, attempt, request_id)``, hashed through SHA-256 so
it is stable across process restarts, interpreter versions and
``PYTHONHASHSEED`` — yet *decorrelated* across requests, because two
request ids land in different places of the jitter window.  Equal seeds
therefore reproduce a fleet run byte-for-byte, while within a run the
retry times spread out exactly like production jitter.
"""

from __future__ import annotations

import hashlib
import math

from ..errors import ConfigError


def backoff_jitter(seed: int, attempt: int, request_id: str) -> float:
    """The deterministic jitter coordinate in ``[0, 1)``.

    A pure function of its arguments: SHA-256 of the triple, mapped to a
    64-bit fraction.  No interpreter state (``hash()``, RNG globals) is
    consulted, so the value survives process restarts unchanged.
    """
    payload = f"{seed}:{attempt}:{request_id}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


#: Every backoff ladder doubles per retry; the fleet's delays are drawn
#: from the upper half of their envelope.
BACKOFF_FACTOR = 2.0
JITTER = 0.5


def backoff_envelope(base_s: float, attempt: int,
                     cap_s: float = math.inf) -> float:
    """The exponential envelope of retry ``attempt`` (0-based),
    ``base_s * BACKOFF_FACTOR**attempt``, clamped to ``cap_s`` without
    overflowing on huge attempt counts."""
    if attempt * math.log(BACKOFF_FACTOR) >= math.log(cap_s / base_s):
        return cap_s
    return min(cap_s, base_s * BACKOFF_FACTOR ** attempt)


def backoff_delay(seed: int, attempt: int, request_id: str,
                  base_s: float = 0.005, cap_s: float = 0.5) -> float:
    """Jittered exponential backoff, deterministic at equal seeds.

    The returned delay is drawn deterministically from
    ``[envelope * (1 - JITTER), envelope]`` of :func:`backoff_envelope`
    using :func:`backoff_jitter` — so delays grow exponentially, never
    exceed the cap, and two requests backing off from the same fault
    retry at different (but reproducible) times.
    """
    if attempt < 0:
        raise ConfigError(f"attempt must be >= 0, got {attempt}")
    if base_s <= 0 or cap_s <= 0:
        raise ConfigError("need base_s > 0 and cap_s > 0")
    return backoff_envelope(base_s, attempt, cap_s) * (
        1.0 - JITTER * backoff_jitter(seed, attempt, request_id))
