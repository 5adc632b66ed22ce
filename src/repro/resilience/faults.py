"""Deterministic fault model for the simulated training cluster.

A :class:`FaultPlan` is a fixed, seeded schedule of :class:`FaultSpec`
events: "at training step 3, on the 2nd collective call, rank 1 crashes".
Because the plan is data — not live randomness — a faulty run is exactly
reproducible, and the recovery machinery can be held to the repository's
determinism standard: a run interrupted by any plan must finish with
weights bitwise-identical to the uninterrupted run at the same seed.

Fault kinds (the failure modes routine on a 2000+-GPU cluster like the
paper's Selene runs):

* ``RANK_CRASH`` — a rank disappears mid-collective (process exit, ECC
  error, node loss).  ``permanent=True`` means the node does not come
  back and the data-parallel group must shrink around it.
* ``STRAGGLER`` — one rank runs ``slowdown``× slower; ring collectives
  move at the slowest participant's pace
  (:meth:`~repro.comm.cost_model.CollectiveCostModel.time`).
* ``DROPPED_COLLECTIVE`` — a message is lost; the collective hangs until
  the watchdog timeout fires.
* ``BIT_FLIP`` — one bit of a payload flips in flight; the receiver-side
  checksum detects the mismatch on completion.

The serving fleet (:mod:`repro.fleet`) reuses the same plan machinery
with its own fault vocabulary, where ``step`` is the fleet decode round
and ``rank`` is the replica id:

* ``REPLICA_CRASH`` — a serving replica dies mid-decode; its device KV
  pool is lost, its in-flight requests must be recovered on survivors
  (``permanent=True`` retires the replica; otherwise it restarts empty);
* ``DISPATCH_LOSS`` — a router->replica dispatch message is lost; the
  router detects it after the watchdog timeout and retries with backoff;
* ``SLOW_REPLICA`` — a replica decodes ``slowdown``x slower from this
  round on; the router flags it via the watchdog straggler check and
  drains its in-flight requests to healthy replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError


class FaultKind(str, Enum):
    RANK_CRASH = "rank_crash"
    STRAGGLER = "straggler"
    DROPPED_COLLECTIVE = "dropped_collective"
    BIT_FLIP = "bit_flip"
    # Serving-fleet faults (repro.fleet): rank = replica id, step = round.
    REPLICA_CRASH = "replica_crash"
    DISPATCH_LOSS = "dispatch_loss"
    SLOW_REPLICA = "slow_replica"


#: The fault vocabulary :class:`FaultPlan.random` draws from by default
#: (the training-cluster kinds; the fleet passes :data:`FLEET_KINDS`).
TRAINING_KINDS = (FaultKind.RANK_CRASH, FaultKind.STRAGGLER,
                  FaultKind.DROPPED_COLLECTIVE, FaultKind.BIT_FLIP)

#: Serving-fleet fault vocabulary for seeded random fleet plans.
FLEET_KINDS = (FaultKind.REPLICA_CRASH, FaultKind.DISPATCH_LOSS,
               FaultKind.SLOW_REPLICA)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``call_index`` counts collective calls within the step: the fault
    fires on the first eligible collective at or after that index, which
    pins it deterministically inside forward, backward, or the gradient
    all-reduce.  ``rank`` is the data-parallel replica for crashes and
    the shard index for stragglers / bit flips.
    """

    step: int
    kind: FaultKind
    rank: int = 0
    call_index: int = 0
    slowdown: float = 8.0          # STRAGGLER only: multiplicative delay
    permanent: bool = False        # RANK_CRASH only: node never returns

    def __post_init__(self) -> None:
        if self.step < 0 or self.rank < 0 or self.call_index < 0:
            raise ConfigError("fault step/rank/call_index must be >= 0")
        if self.kind in (FaultKind.STRAGGLER, FaultKind.SLOW_REPLICA) \
                and self.slowdown < 1.0:
            raise ConfigError(f"straggler slowdown must be >= 1, got {self.slowdown}")


class FaultPlan:
    """An ordered, immutable schedule of faults to inject.

    Build one explicitly from :class:`FaultSpec` entries, or randomly
    (but deterministically) with :meth:`random`.  An empty plan is the clean path: zero faults ever fire.
    """

    def __init__(self, faults: Iterable[FaultSpec] = ()):
        self.faults: Tuple[FaultSpec, ...] = tuple(
            sorted(faults, key=lambda f: (f.step, f.call_index)))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    @property
    def is_empty(self) -> bool:
        return not self.faults

    @classmethod
    def random(cls, seed: int, num_steps: int, fault_rate: float,
               world_size: int = 2,
               kinds: Optional[Sequence[FaultKind]] = None,
               permanent_crash_fraction: float = 0.0,
               max_call_index: int = 6) -> "FaultPlan":
        """A seeded random plan: each step injects one fault with
        probability ``fault_rate``.  Straggler slowdowns are drawn above
        the default detection threshold so every injected fault is
        detectable; ``permanent_crash_fraction`` of crashes are node
        losses (only meaningful with ``world_size > 1``)."""
        if not (0.0 <= fault_rate <= 1.0):
            raise ConfigError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if world_size < 1:
            raise ConfigError("world_size must be >= 1")
        kinds = tuple(kinds) if kinds else TRAINING_KINDS
        rng = np.random.default_rng(seed)
        faults: List[FaultSpec] = []
        for step in range(num_steps):
            if rng.random() >= fault_rate:
                continue
            kind = kinds[int(rng.integers(len(kinds)))]
            permanent = (kind in (FaultKind.RANK_CRASH,
                                  FaultKind.REPLICA_CRASH)
                         and world_size > 1
                         and rng.random() < permanent_crash_fraction)
            faults.append(FaultSpec(
                step=step, kind=kind,
                rank=int(rng.integers(world_size)),
                call_index=int(rng.integers(max_call_index)),
                slowdown=float(6.0 + 10.0 * rng.random()),
                permanent=permanent,
            ))
        return cls(faults)
