"""Exception hierarchy for the repro library.

Every library-specific error derives from :class:`ReproError`, so callers
can catch one base class.  The tree:

* :class:`ReproError`
    * :class:`ConfigError` — invalid model / parallelism configuration;
    * :class:`ShapeError` — inconsistent tensor shapes;
    * :class:`AutogradError` — tape misuse (double backward, missing grads);
    * :class:`PlanningError` — no recomputation plan fits the budget;
    * :class:`ScheduleError` — invalid pipeline schedule;
    * :class:`CheckpointCorruptError` — checkpoint content hash mismatch;
    * :class:`CommError` — invalid collective usage, and the base of the
      runtime communication *faults* raised by the resilience layer
      (:mod:`repro.resilience`):

        * :class:`RankFailure` — a simulated rank crashed;
        * :class:`CollectiveTimeout` — a collective exceeded the watchdog
          timeout (dropped message, hang, extreme straggler);
        * :class:`CorruptionDetected` — payload checksum mismatch after
          transport (bit flip in flight).

All of these are re-exported from the top-level :mod:`repro` package.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """Invalid model or parallelism configuration."""


class ShapeError(ReproError):
    """Tensor shapes are inconsistent with the requested operation."""


class CommError(ReproError):
    """Invalid collective-communication usage (rank/shape mismatch...),
    and the base class of injected runtime communication faults."""


class AutogradError(ReproError):
    """Misuse of the autograd tape (double backward, missing grads...)."""


class PlanningError(ReproError):
    """No recomputation plan fits the requested memory budget."""


class ScheduleError(ReproError):
    """Invalid pipeline schedule construction or execution."""


class CompilerError(ReproError):
    """Misuse of the step compiler (nested capture, bad plan binding...)."""


class CheckpointCorruptError(ReproError):
    """A checkpoint's content hash does not match its stored checksum."""


class RankFailure(CommError):
    """A simulated rank crashed (process exit, ECC error, node loss).

    ``permanent`` distinguishes a lost node — the surviving group must
    shrink around it — from a transient crash that a restart plus
    rollback-to-checkpoint survives at full world size.
    """

    def __init__(self, rank: int, permanent: bool = False):
        self.rank = rank
        self.permanent = permanent
        super().__init__(
            f"rank {rank} failed"
            + (" permanently (node lost)" if permanent else " (transient crash)")
        )


class CollectiveTimeout(CommError):
    """A collective exceeded the watchdog timeout, NCCL-style.

    Raised for dropped/hung collectives and for stragglers slow enough
    that the operation cannot complete inside the timeout window.
    ``timeout_s`` is the simulated detection latency in seconds.
    """

    def __init__(self, op: str = "?", timeout_s: float = 0.0):
        self.op = op
        self.timeout_s = timeout_s
        super().__init__(
            f"collective {op!r} exceeded the watchdog timeout "
            f"({timeout_s:.3g} simulated seconds)"
        )


class CorruptionDetected(CommError):
    """A collective payload failed its post-transport checksum (bit flip)."""

    def __init__(self, op: str = "?", rank: int = 0):
        self.op = op
        self.rank = rank
        super().__init__(
            f"payload checksum mismatch on collective {op!r} "
            f"(corrupted shard from rank {rank})"
        )
