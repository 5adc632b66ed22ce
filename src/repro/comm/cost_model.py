"""Alpha-beta cost model for ring collectives.

The paper reasons explicitly with the ring decomposition ("a ring
all-reduce is composed of two steps: a reduce-scatter followed by an
all-gather", Section 4.2.2), so we model collective time the standard way:

* ring all-reduce of ``S`` bytes over ``n`` ranks moves ``2 (n-1)/n * S``
  bytes per rank in ``2(n-1)`` latency-bound steps;
* ring all-gather / reduce-scatter each move ``(n-1)/n * S`` bytes in
  ``(n-1)`` steps.

Hence all-reduce and (reduce-scatter + all-gather) use identical bandwidth —
the paper's equal-bandwidth claim — but the pair pays one extra *per-call*
fixed cost (kernel launch + NCCL bookkeeping), reproducing the paper's
observation that "the execution of reduce-scatter and all-gather combined
is slower than an all-reduce alone".

``nbytes`` below is always the **full logical tensor size** being
communicated (the all-reduce input size; the all-gather output size).
The one exception is ``all_to_all``, whose natural unit is the per-rank
local shard: each rank keeps ``1/n`` of its shard and sends the other
``(n-1)/n`` in ``n-1`` pairwise exchanges, so ``nbytes`` there is the
local shard size — which is exactly what the tracer logs for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CommError
from ..hardware import ClusterSpec, LinkSpec
from ..tensor.oplog import CommInfo


def logged_nbytes(op: str, shard_nbytes: int, world: int) -> int:
    """The ``nbytes`` convention above, from one rank's *input* shard: only
    an all-gather is sized by its output (``world`` input shards).  The
    autograd wrappers, the tracer's data-plane hook and the fault
    injector's watchdog all size a collective through here."""
    return shard_nbytes * world if op == "all_gather" else shard_nbytes


@dataclass(frozen=True)
class CollectiveCostModel:
    """Maps a :class:`~repro.tensor.oplog.CommInfo` to seconds."""

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    #: Fixed cost of issuing one collective (kernel launch + proto setup).
    call_overhead: float = 12e-6

    def link_for(self, info: CommInfo) -> LinkSpec:
        """Pick the physical link a group's ring bottlenecks on.

        Tensor-parallel groups are mapped within a node (the Megatron
        placement the paper uses, t=8 on 8-GPU nodes) as long as they fit;
        pipeline, data-parallel and serving-fleet (replica-to-replica KV
        migration) traffic crosses nodes whenever there is more than one
        node.
        """
        node = self.cluster.node
        if info.scope == "tp" and info.group_size <= node.gpus_per_node:
            return node.intra_node_link
        if self.cluster.num_nodes == 1:
            return node.intra_node_link
        return self.cluster.inter_node_link

    def time(self, info: CommInfo, slowdown: float = 1.0) -> float:
        """Seconds for one collective described by ``info``.

        ``slowdown`` models a straggler: a ring collective moves at the
        pace of its slowest participant, so one rank running ``k`` times
        slower multiplies the whole transfer (latency steps and volume)
        by ``k``.  The fixed per-call cost is local and unaffected.
        """
        n = info.group_size
        if n < 1:
            raise CommError(f"bad group size {n}")
        if slowdown < 1.0:
            raise CommError(f"straggler slowdown must be >= 1, got {slowdown}")
        if n == 1:
            return 0.0
        link = self.link_for(info)
        s = float(info.nbytes)
        if info.op == "all_reduce":
            steps, volume = 2 * (n - 1), 2.0 * (n - 1) / n * s
        elif info.op in ("all_gather", "reduce_scatter"):
            steps, volume = (n - 1), 1.0 * (n - 1) / n * s
        elif info.op == "broadcast":
            steps, volume = (n - 1), 1.0 * (n - 1) / n * s
        elif info.op == "all_to_all":
            # Pairwise exchange: each rank sends (n-1)/n of its local
            # shard (``s`` bytes) in n-1 steps.
            steps, volume = (n - 1), 1.0 * (n - 1) / n * s
        elif info.op == "p2p":
            steps, volume = 1, s
        else:
            raise CommError(f"unknown collective op {info.op!r}")
        return (self.call_overhead
                + slowdown * (steps * link.latency + volume / link.bandwidth))

    def all_reduce_time(self, nbytes: int, group_size: int) -> float:
        return self.time(CommInfo("all_reduce", nbytes, group_size, "tp"))

    def all_gather_time(self, nbytes: int, group_size: int, scope: str = "tp") -> float:
        return self.time(CommInfo("all_gather", nbytes, group_size, scope))

    def reduce_scatter_time(self, nbytes: int, group_size: int, scope: str = "tp") -> float:
        return self.time(CommInfo("reduce_scatter", nbytes, group_size, scope))

    def all_to_all_time(self, nbytes: int, group_size: int, scope: str = "cp") -> float:
        """``nbytes`` is the per-rank local shard size (see module docs)."""
        return self.time(CommInfo("all_to_all", nbytes, group_size, scope))

    def p2p_time(self, nbytes: int, scope: str = "pp") -> float:
        return self.time(CommInfo("p2p", nbytes, 2, scope))
