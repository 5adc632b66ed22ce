"""Static step plans: the captured program and its replay loop.

A :class:`StepPlan` owns a flat tuple of zero-argument closures (the
program), the input registers a driver rebinds between replays, and a
precomputed :class:`MemoryPlan` (static arena offsets for every charged
activation, planned once through the first-fit allocator).

Replay is one tight loop — no tape, no graph walk, no Python-side
bookkeeping allocations beyond what the kernels themselves produce.
The entry that last reads a register drops it: between steps only the
inputs, parameters, effect arguments (the loss) and outputs nothing
reads keep their shards, and :attr:`StepPlan.gradients` holds ``None``.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from ..errors import CompilerError
from ..tensor import context as _tctx


class StepPlan:
    """An executable, immutable capture of one step."""

    def __init__(self, label: str, program: Tuple, meta: Tuple,
                 inputs: Dict[Any, "Tensor"], memory, released: Tuple,
                 gradients: Sequence):
        self.label = label
        self._program = program
        self._meta = meta
        self.inputs = inputs
        self.memory = memory
        #: the forward registers a replay drops after their last reader,
        #: and the gradient registers, which it drops so too
        self.released = released
        self.gradients = gradients
        self.replays = 0

    # -- binding -------------------------------------------------------------
    def bind(self, key, shards) -> None:
        """Rebind input register ``key`` to fresh per-rank ``shards``."""
        register = self.inputs.get(key)
        if register is None:
            raise CompilerError(
                f"plan {self.label!r} has no input {key!r}; "
                f"known inputs: {sorted(map(repr, self.inputs))}")
        if not isinstance(shards, list):
            shards = list(shards)
        register.shards = shards

    # -- execution -----------------------------------------------------------
    def replay(self) -> None:
        """Execute the captured program in place of an eager step."""
        C = _tctx._CTX
        prev_ge, prev_ph = C.grad_enabled, C.phase
        try:
            for closure in self._program:
                closure()
        finally:
            C.grad_enabled, C.phase = prev_ge, prev_ph
        self.replays += 1

    # -- introspection --------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return len(self._program)

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind, _fn in self._meta:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def collective_schedule(self) -> Tuple[Tuple[int, str, str], ...]:
        """The plan's collective ops in execution order.

        One ``(op_index, phase_kind, fn_name)`` triple per program entry
        whose function is a tensor/sequence-parallel conjugate operator
        (the ``ProcessGroup`` seam) — the static collective schedule the
        replayed step will issue.
        """
        rows = []
        for index, (kind, fn) in enumerate(self._meta):
            if fn is None or kind == "external":
                continue
            module = type(fn).__module__
            if module.endswith(".mappings") or module.endswith(".collectives"):
                rows.append((index, kind, fn.name))
        return tuple(rows)

    def stats(self) -> Dict[str, Any]:
        """Plan statistics for the CLI / bench gate (canonical-serializable)."""
        counts = self.op_counts()
        return {
            "label": self.label,
            "ops": self.num_ops,
            "forward_ops": counts.get("forward", 0),
            "backward_ops": counts.get("backward", 0),
            "release_ops": counts.get("release", 0),
            "seed_ops": counts.get("seed", 0),
            "external_ops": counts.get("external", 0),
            "collectives": len(self.collective_schedule()),
            "inputs": len(self.inputs),
            "arena_bytes": self.memory.arena_bytes,
            "planned_buffers": self.memory.num_buffers,
            "replays": self.replays,
        }
