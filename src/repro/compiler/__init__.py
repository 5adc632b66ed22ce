"""Static-graph step compiler: capture one step, replay forever.

``repro.compiler`` traces one full train step through the
live tape/:class:`~repro.tensor.tensor.FnCtx` machinery and captures it
as a :class:`~repro.compiler.plan.StepPlan` — a topologically ordered
closure schedule with preplanned first-fit arena offsets, a static
collective schedule, and recompute segments carried as opaque composite
calls.  Replaying the
plan skips tape construction, the autograd graph walk and all per-step
Python bookkeeping while remaining bitwise-identical to eager mode
(losses, gradients, tracked peak bytes, priced cost model — all
byte-for-byte).

One driver: ``Trainer(compiled=True)``.  It states its step once: tape
ops record through the context hooks, and everything else the step does
goes through :func:`effect`, so the same body runs eagerly, under a
capture, or is skipped for a replay (:meth:`PlanCache.run`).
"""

from .cache import PlanCache
from .capture import CaptureRecorder, capture_scope, effect

__all__ = [
    "CaptureRecorder",
    "PlanCache",
    "capture_scope",
    "effect",
]
