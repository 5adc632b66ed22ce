"""Recomputation planning: "it is ideal to only checkpoint enough
activations to allow a given model-parallel configuration to train given
the constraints of device memory" (paper Section 5).

The planner walks a ladder of strategies from cheapest to most expensive
recompute overhead and returns the first that fits:

1. sequence parallelism, no recomputation;
2. sequence parallelism + selective recomputation (the paper's method);
3. selective recomputation everywhere + **full** recomputation on the
   smallest prefix of layers that fits (the per-layer granularity knob
   Section 5 notes is too coarse on its own — e.g. MT-NLG has only three
   layers per device);
4. full recomputation of every layer.

Each candidate is also priced by the kernel cost model so the chosen
plan's estimated per-layer overhead vs. the no-recompute baseline is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..config import ExperimentConfig
from ..errors import ConfigError, PlanningError
from ..layers.transformer import Recompute
from ..memory_model.pipeline import stage_memory
from ..memory_model.weights import weight_and_optimizer_bytes
from ..perf_model.gpu import KernelCostModel
from ..perf_model.layer_timing import layer_times

#: Device memory held back for fragmentation.
RESERVE_BYTES = 4 * 1024**3


def fits(total_bytes: float, device_memory_bytes: float) -> bool:
    """The planner's fit rule: ``total_bytes`` (weights, optimizer state
    and the first stage's peak activations) within device memory less
    :data:`RESERVE_BYTES`."""
    return total_bytes <= device_memory_bytes - RESERVE_BYTES


@dataclass(frozen=True)
class PlanOption:
    """One candidate strategy with its memory footprint and time overhead."""

    description: str
    sequence_parallel: bool
    recompute: Recompute
    recompute_num_layers: int       # layers (of L) fully recomputed
    activation_bytes: float         # stage 0's peak (StageMemory.total)
    static_bytes: float
    overhead_fraction: float        # per-layer combined-time vs no-recompute

    @property
    def total_bytes(self) -> float:
        return self.activation_bytes + self.static_bytes


def enumerate_options(config: ExperimentConfig,
                      allow_sequence_parallel: bool = True,
                      full_layer_step: int = 1) -> List[PlanOption]:
    """All candidate plans, cheapest overhead first.

    The FULL family is a ladder: full recomputation of ``full_layer_step``,
    ``2 * full_layer_step``, ... layers (selective elsewhere), and always
    the all-layers rung ``L`` whether or not the step divides ``L``.
    """
    if full_layer_step < 1:
        raise ConfigError(
            f"full_layer_step must be >= 1, got {full_layer_step}")
    cost = KernelCostModel()
    model, par, train = config.model, config.parallel, config.training
    static = weight_and_optimizer_bytes(config)

    sp_options = [True, False] if allow_sequence_parallel else [False]
    strategies = (Recompute.NONE, Recompute.SELECTIVE, Recompute.FULL)
    # One abstract trace and one stage-0 peak per distinct layer; a rung
    # is arithmetic on these.
    combined = {
        (sp, rc): layer_times(model, train.micro_batch_size,
                              par.tensor_parallel, sequence_parallel=sp,
                              recompute=rc, cost=cost).combined
        for sp in sp_options for rc in strategies
    }
    memory = {(sp, rc): stage_memory(config, 0, rc, sp)
              for sp in sp_options for rc in strategies}
    # One global baseline — the fastest no-recompute layout — so options
    # across SP settings are comparable.
    baseline_combined = min(combined[sp, Recompute.NONE] for sp in sp_options)

    def mixed_bytes(sp: bool, full_layers: int) -> float:
        """Full recomputation of ``full_layers`` layers, selective
        elsewhere: the layer terms mix, and one rebuilt layer peaks."""
        selective, full = memory[sp, Recompute.SELECTIVE], memory[sp, Recompute.FULL]
        frac = full_layers / model.num_layers
        return replace(selective,
                       layers=(1 - frac) * selective.layers + frac * full.layers,
                       transient=full.transient).total

    def overhead(sp: bool, rc: Recompute, full_layers: int = 0) -> float:
        this = combined[sp, rc]
        if rc == Recompute.FULL and full_layers < model.num_layers:
            frac = full_layers / model.num_layers
            this = frac * this + (1 - frac) * combined[sp, Recompute.SELECTIVE]
        return this / baseline_combined - 1.0

    rungs = [*range(full_layer_step, model.num_layers, full_layer_step),
             model.num_layers]
    options: List[PlanOption] = []
    for sp in sp_options:
        sp_label = "SP + " if sp else ""
        options.append(PlanOption(
            description=f"{sp_label}no recomputation",
            sequence_parallel=sp, recompute=Recompute.NONE,
            recompute_num_layers=0,
            activation_bytes=memory[sp, Recompute.NONE].total,
            static_bytes=static, overhead_fraction=overhead(sp, Recompute.NONE),
        ))
        options.append(PlanOption(
            description=f"{sp_label}selective recomputation",
            sequence_parallel=sp, recompute=Recompute.SELECTIVE,
            recompute_num_layers=0,
            activation_bytes=memory[sp, Recompute.SELECTIVE].total,
            static_bytes=static,
            overhead_fraction=overhead(sp, Recompute.SELECTIVE),
        ))
        for n in rungs:
            options.append(PlanOption(
                description=(
                    f"{sp_label}full recomputation of {n}/{model.num_layers} "
                    f"layers (selective elsewhere)"
                    if n < model.num_layers
                    else f"{sp_label}full recomputation"
                ),
                sequence_parallel=sp, recompute=Recompute.FULL,
                recompute_num_layers=n,
                activation_bytes=mixed_bytes(sp, n),
                static_bytes=static,
                overhead_fraction=overhead(sp, Recompute.FULL, full_layers=n),
            ))
    options.sort(key=lambda o: o.overhead_fraction)
    return options


def plan(config: ExperimentConfig,
         device_memory_bytes: float = 80 * 1024**3,
         allow_sequence_parallel: bool = True,
         full_layer_step: int = 1) -> PlanOption:
    """The cheapest-overhead strategy that :func:`fits` device memory."""
    capacity = device_memory_bytes - RESERVE_BYTES
    if not capacity > 0:  # also rejects NaN
        raise ConfigError(
            f"device_memory_bytes must exceed the reserve "
            f"({RESERVE_BYTES / 2**30:.1f} GiB), got "
            f"{device_memory_bytes / 2**30:.1f} GiB")
    options = enumerate_options(config,
                                allow_sequence_parallel=allow_sequence_parallel,
                                full_layer_step=full_layer_step)
    for option in options:
        if fits(option.total_bytes, device_memory_bytes):
            return option
    tightest = min(options, key=lambda o: o.total_bytes)
    raise PlanningError(
        f"no recomputation strategy fits: smallest footprint is "
        f"{tightest.total_bytes/2**30:.1f} GiB ({tightest.description}) "
        f"against a capacity of {capacity/2**30:.1f} GiB — increase model "
        f"parallelism"
    )


#: Deterministic tie-break order for :func:`choose_context_layout`.  On
#: equal priced seconds (e.g. ring vs the baseline at p=2, where the
#: fill hop costs exactly the full collective) prefer the layouts whose
#: per-rank volume shrinks with the group — they stay cheap if the
#: sequence grows.
CONTEXT_LAYOUT_PREFERENCE = ("ring", "ulysses", "sp_allgather")


@dataclass(frozen=True)
class ContextLayoutChoice:
    """Outcome of pricing the context layouts for one model shape."""

    layout: str                          # winner
    context_parallel: int
    seconds_per_layer: dict              # layout -> priced comm seconds
    excluded: dict                       # layout -> reason string

    @property
    def seconds(self) -> float:
        return self.seconds_per_layer[self.layout]


def choose_context_layout(model, microbatch_size: int,
                          context_parallel: int) -> ContextLayoutChoice:
    """Pick the cheapest context layout by priced per-layer comm seconds.

    Candidates are the all-gather sequence-parallel baseline (four
    full-``2sbh`` collectives per layer), Ulysses (eight ``2sbh/p``
    all-to-alls) and ring attention (``4(p-1)`` ``2sbh/p`` P2P hops),
    priced as **exposed** per-layer seconds on the same ``"cp"``-scope
    links by :class:`~repro.comm.CollectiveCostModel` (each layout's by
    its class's ``exposed_seconds``).  The baseline's
    collectives and Ulysses' all-to-alls block (the core cannot start
    until the re-shard lands); ring hops are prefetched one chunk ahead
    of the blockwise core, so in steady state only launch + link
    latency is exposed — each gather pays full price for its pipeline
    fill hop only.

    Short sequences are overhead-bound, so the baseline's four calls
    win; as ``seq_length`` grows its full-tensor volume dominates and
    the O(s/p) layouts take over — Ulysses first (fewer launches),
    ring once volume dwarfs even the shard-sized all-to-alls, and ring
    whenever ``num_heads`` is not divisible by the group (Ulysses
    shards heads; ring shards sequence only).  Ties break
    deterministically via :data:`CONTEXT_LAYOUT_PREFERENCE`.
    """
    from ..comm.cost_model import CollectiveCostModel
    from ..longctx.layout import LAYOUTS

    p = context_parallel
    if p < 1:
        raise PlanningError(f"context_parallel must be >= 1, got {p}")
    if model.seq_length % p:
        raise PlanningError(
            f"seq_length {model.seq_length} not divisible by "
            f"context_parallel {p}")
    comm = CollectiveCostModel()
    full = 2 * model.seq_length * microbatch_size * model.hidden_size
    if p > 1:
        seconds = {"sp_allgather": (
            2 * comm.all_gather_time(full, p, scope="cp")
            + 2 * comm.reduce_scatter_time(full, p, scope="cp"))}
        for cls in LAYOUTS.values():
            seconds[cls.name] = cls.exposed_seconds(
                comm, cls.shard_bytes(model, microbatch_size, p), p)
    else:
        seconds = dict.fromkeys(("sp_allgather", *LAYOUTS), 0.0)

    excluded = {cls.name: why for cls in LAYOUTS.values()
                if (why := cls.unfit(model, p))}
    candidates = [k for k in seconds if k not in excluded]
    winner = min(candidates,
                 key=lambda k: (seconds[k],
                                CONTEXT_LAYOUT_PREFERENCE.index(k)))
    return ContextLayoutChoice(
        layout=winner, context_parallel=p, seconds_per_layer=seconds,
        excluded=excluded)


@dataclass(frozen=True)
class FleetCapacity:
    """KV-token capacity of a serving fleet (:mod:`repro.fleet`).

    The serving analogue of the memory-budget plan above: instead of
    fitting activations into device memory, the router must fit resident
    requests into the fleet's aggregate paged-KV pool.  ``shrink``
    re-fits the plan after a permanent replica loss, the same move
    :func:`replan_after_shrink` makes for an elastic data-parallel
    shrink.
    """

    num_replicas: int
    num_blocks: int               # per replica
    block_size: int
    max_batch: int                # per replica

    def __post_init__(self) -> None:
        if (self.num_replicas < 0 or self.num_blocks < 1
                or self.block_size < 1 or self.max_batch < 1):
            raise PlanningError("fleet capacity needs positive dimensions")

    @property
    def tokens_per_replica(self) -> int:
        return self.num_blocks * self.block_size

    @property
    def token_capacity(self) -> int:
        """Aggregate KV tokens the fleet can hold resident."""
        return self.num_replicas * self.tokens_per_replica

    @property
    def max_resident_requests(self) -> int:
        return self.num_replicas * self.max_batch

    def saturated_by(self, offered_tokens: int) -> bool:
        """Would ``offered_tokens`` of resident context overflow the
        fleet?  The router's load-shedding trigger."""
        return offered_tokens > self.token_capacity

    def shrink(self, by: int = 1) -> "FleetCapacity":
        """Capacity after permanently losing ``by`` replicas."""
        if by < 0 or by > self.num_replicas:
            raise PlanningError(
                f"cannot shrink a fleet of {self.num_replicas} by {by}")
        return FleetCapacity(self.num_replicas - by, self.num_blocks,
                             self.block_size, self.max_batch)


def plan_fleet_capacity(num_replicas: int, num_blocks: int, block_size: int,
                        max_batch: int) -> FleetCapacity:
    """The fleet-level admission budget the router plans against."""
    return FleetCapacity(num_replicas=num_replicas, num_blocks=num_blocks,
                         block_size=block_size, max_batch=max_batch)


def replan_after_shrink(config: ExperimentConfig,
                        surviving_data_parallel: int) -> PlanOption:
    """Re-fit the recomputation plan after an elastic data-parallel shrink.

    When a permanently failed rank is removed, each surviving replica
    must absorb the dead replica's share of the global batch (more
    microbatches in flight, and under pipelining potentially a deeper
    activation working set), so the strategy chosen for the original
    group may no longer be the right one.  This re-runs the Section 5
    ladder against the surviving configuration's memory budget and
    returns the new cheapest-overhead plan.
    """
    if surviving_data_parallel < 1:
        raise PlanningError("cannot replan for an empty data-parallel group")
    shrunk = config.with_(data_parallel=surviving_data_parallel)
    return plan(shrunk)
