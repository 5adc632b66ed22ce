"""Plan caching: capture once per (config, layout, shape) key.

Drivers key plans on everything that changes the op stream — the model
config and layout are implicit in the driver instance; batch shape and
microbatch count are explicit key components.  A hit replays; a miss
captures eagerly (the capture step *is* a correct step, so a miss costs
one eager step, never a wasted one).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .capture import CaptureRecorder, capture_scope
from .plan import StepPlan


class PlanCache:
    """A keyed store of :class:`StepPlan` with hit/miss accounting."""

    def __init__(self) -> None:
        self._plans: Dict[Any, StepPlan] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key) -> Optional[StepPlan]:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
        return plan

    def put(self, key, plan: StepPlan) -> None:
        self._plans[key] = plan

    def run(self, key, label: str, inputs: Dict[Any, "Tensor"], body) -> None:
        """One step of a driver whose step is ``body()`` over ``inputs``.

        Hit: rebind the plan's input registers to this step's shards and
        replay.  Miss: run ``body()`` under a recorder labelled ``label``
        (the capture *is* the step) and store the plan under ``key``.
        """
        plan = self.get(key)
        if plan is not None:
            for name, tensor in inputs.items():
                plan.bind(name, tensor.shards)
            plan.replay()
            return
        recorder = CaptureRecorder(label)
        for name, tensor in inputs.items():
            recorder.bind_input(name, tensor)
        with capture_scope(recorder):
            body()
        self.put(key, recorder.finalize())

    def plans(self):
        """All cached plans in insertion order (for stats/introspection)."""
        return list(self._plans.values())

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key) -> bool:
        return key in self._plans

    def clear(self) -> None:
        self._plans.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"plans": len(self._plans), "hits": self.hits,
                "misses": self.misses}
