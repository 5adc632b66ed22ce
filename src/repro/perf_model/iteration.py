"""End-to-end iteration time (paper Table 5 and the Section 6.3 data-
parallel extension).

Per-layer forward/backward times come from the abstract-execution op log
(:mod:`repro.perf_model.layer_timing`); embedding and LM-head costs are
measured the same way; the 1F1B / interleaved schedule is then priced by
:func:`~repro.pipeline_sim.simulator.price` to get the iteration
makespan, to which an optional unoverlapped data-parallel gradient
all-reduce is added ("we do not use any overlapping of gradient
all-reduces with back-propagation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..comm.process_group import ProcessGroup
from ..config import ExperimentConfig, ModelConfig
from ..flops_model import Utilization, utilization
from ..hardware import selene_like
from ..layers.embedding import GPTEmbedding
from ..layers.transformer import LMHead, Recompute
from ..memory_model.weights import parameters_per_rank
from ..parallel.layout import TensorParallel
from ..tensor import INT64, OpLog, abstract, instrument
from .gpu import KernelCostModel, PhaseTimes
from .layer_timing import layer_times, traced_records
from ..pipeline_sim.schedule import level_plan
from ..pipeline_sim.simulator import price

#: Achieved fraction of link bandwidth for the large bucketed data-parallel
#: gradient all-reduce.  Calibrated once against the paper's only DP data
#: point (530B, 8-way DP: iteration 37.83 s -> 39.15 s).
DP_ALLREDUCE_EFFICIENCY = 0.40

#: Memory traffic of the mixed-precision Adam step, bytes per parameter:
#: read fp32 grad + master + both moments (16), write master + moments +
#: fp16 weight (14) — a bandwidth-bound ~30 B/param sweep.
OPTIMIZER_BYTES_PER_PARAM = 30


def embedding_oplog(model: ModelConfig, microbatch_size: int,
                    tensor_parallel: int, sequence_parallel: bool) -> OpLog:
    """Op log of one abstract forward/backward of the input embedding."""
    t, log = tensor_parallel, OpLog()
    layout = TensorParallel(ProcessGroup(t, scope="tp"), sequence_parallel)
    with instrument(oplog=log):
        emb = GPTEmbedding(model.vocab_size, model.hidden_size,
                           model.seq_length, abstract=True, layout=layout)
        emb(abstract((model.seq_length, microbatch_size), world=t,
                     dtype=INT64)).backward()
    return log


def head_oplog(model: ModelConfig, microbatch_size: int,
               tensor_parallel: int, sequence_parallel: bool) -> OpLog:
    """Op log of one abstract forward/backward of final LN + LM head +
    loss."""
    t, log = tensor_parallel, OpLog()
    layout = TensorParallel(ProcessGroup(t, scope="tp"), sequence_parallel)
    with instrument(oplog=log):
        head = LMHead(model.hidden_size, model.vocab_size, abstract=True,
                      layout=layout)
        x = layout.abstract_stream(model, microbatch_size)
        targets = abstract((model.seq_length, microbatch_size), world=t,
                           dtype=INT64)
        head(x, targets).backward()
    return log


def end_times(config: ExperimentConfig, sequence_parallel: bool,
              cost: KernelCostModel) -> Tuple[PhaseTimes, PhaseTimes]:
    """Abstract-priced forward/backward of the input embedding and of the
    head, each traced once per process as :func:`layer_times` traces a
    layer."""
    key = (config.model, config.training.micro_batch_size,
           config.parallel.tensor_parallel, sequence_parallel)
    return tuple(cost.phase_times(traced_records(trace, *key))
                 for trace in (embedding_oplog, head_oplog))


@dataclass(frozen=True)
class IterationResult:
    """One Table 5 cell with its context."""

    config_name: str
    sequence_parallel: bool
    recompute: Recompute
    iteration_time: float
    pipeline_time: float
    dp_allreduce_time: float
    optimizer_time: float
    bubble_fraction: float
    per_layer: PhaseTimes
    util: Utilization

    @property
    def mfu(self) -> float:
        return self.util.mfu

    @property
    def hfu(self) -> float:
        return self.util.hfu


def iteration_time(
    config: ExperimentConfig,
    sequence_parallel: bool = True,
    recompute: Recompute = Recompute.SELECTIVE,
    cost: Optional[KernelCostModel] = None,
    data_parallel: int = 1,
) -> IterationResult:
    """Simulate one training iteration of ``config``.

    ``data_parallel > 1`` scales the global batch with the replica count
    (the Section 6.3 convention: "the batch size is also multiplied by the
    data parallel size", so microbatch count per replica is unchanged)
    and appends the unoverlapped gradient all-reduce.
    """
    plain = [0.0] * config.parallel.pipeline_parallel
    return _iterations(config, [(sequence_parallel, recompute, plain)], cost,
                       data_parallel)[0]


def _iterations(config: ExperimentConfig,
                variants: Sequence[Tuple[bool, Recompute, Sequence[float]]],
                cost: Optional[KernelCostModel],
                data_parallel: int = 1) -> List[IterationResult]:
    """The one iteration body, run for each ``(sequence_parallel,
    recompute, stored_full_fraction)`` variant of one configuration.

    ``stored_full_fraction[stage]`` is the share of that pipeline stage's
    backward passes that skip their recompute segment (Appendix C;
    mean-field — the stage's backward duration shrinks proportionally).
    All zeros is the plain schedule: ``x - 0.0`` keeps every bit.

    Every variant prices the schedule's :func:`level_plan` (a function of
    ``(p, n, m)`` only) through the simulator's one pricing body.  The
    plan and the layer, embedding and head traces are kept for the
    process; nothing priced under ``cost`` is."""
    model, par, train = config.model, config.parallel, config.training
    if cost is None:
        num_gpus = par.model_parallel_size * data_parallel
        cost = KernelCostModel(cluster=selene_like(num_gpus))

    p, m = par.pipeline_parallel, par.interleave_stages
    num_groups = p * m
    layers_per_group = model.num_layers // num_groups
    plan = level_plan(p, train.num_microbatches(1), m)  # per replica

    dp_time = 0.0
    if data_parallel > 1:
        grad_bytes = parameters_per_rank(config) * 4  # fp32 main grads
        link = cost.cluster.inter_node_link
        n = data_parallel
        dp_time = (2 * (n - 1) / n * grad_bytes
                   / (link.bandwidth * DP_ALLREDUCE_EFFICIENCY)
                   + 2 * (n - 1) * link.latency)

    optimizer_time = (parameters_per_rank(config) * OPTIMIZER_BYTES_PER_PARAM
                      / (cost.gpu.hbm_bandwidth * cost.hbm_efficiency))
    util_cfg = config if data_parallel == 1 else _scaled_config(config, data_parallel)

    def one(sequence_parallel: bool, recompute: Recompute,
            stored_full_fraction: Sequence[float]) -> IterationResult:
        lt = layer_times(model, train.micro_batch_size, par.tensor_parallel,
                         sequence_parallel=sequence_parallel,
                         recompute=recompute, cost=cost)
        emb, head = end_times(config, sequence_parallel, cost)

        # seconds per group: its layers, plus the embedding on the first
        # group and the head on the last
        fwd = [layers_per_group * lt.forward] * num_groups
        fwd[0] += emb.forward
        fwd[-1] += head.forward
        bwd = [layers_per_group * lt.backward_total
               - stored_full_fraction[group % p] * layers_per_group * lt.recompute
               for group in range(num_groups)]
        bwd[0] += emb.backward_total
        bwd[-1] += head.backward_total

        s, b, h = model.seq_length, train.micro_batch_size, model.hidden_size
        p2p_bytes = 2 * s * b * h // (par.tensor_parallel if sequence_parallel else 1)
        p2p = cost.comm.p2p_time(p2p_bytes, scope="pp") if p > 1 else 0.0

        makespan, busy = price(plan, fwd, bwd, p2p)[:2]
        total = makespan + dp_time + optimizer_time
        util = utilization(util_cfg, total, recompute=recompute,
                           peak_flops_per_gpu=cost.gpu.peak_flops)
        return IterationResult(
            config_name=model.name or "model",
            sequence_parallel=sequence_parallel,
            recompute=recompute,
            iteration_time=total,
            pipeline_time=makespan,
            dp_allreduce_time=dp_time,
            optimizer_time=optimizer_time,
            # idle share of the makespan, averaged over ranks
            bubble_fraction=(1.0 - sum(busy) / (len(busy) * makespan)
                             if makespan else 0.0),
            per_layer=lt,
            util=util,
        )

    return [one(*variant) for variant in variants]


def _scaled_config(config: ExperimentConfig, data_parallel: int) -> ExperimentConfig:
    from ..config import ExperimentConfig as EC, TrainingConfig
    from dataclasses import replace
    return EC(
        model=config.model,
        parallel=replace(config.parallel, data_parallel=data_parallel),
        training=TrainingConfig(
            micro_batch_size=config.training.micro_batch_size,
            global_batch_size=config.training.global_batch_size * data_parallel,
        ),
    )


@dataclass(frozen=True)
class Table5Row:
    config_name: str
    full_recompute_time: float
    present_work_time: float
    mfu: float
    hfu: float

    @property
    def throughput_increase(self) -> float:
        """Table 5's "Throughput Increase": how much faster present work is."""
        return self.full_recompute_time / self.present_work_time - 1.0


def table5_row(config: ExperimentConfig) -> Table5Row:
    """One row of Table 5: full recompute (no SP) vs present work (SP +
    selective recompute), with the latter's MFU/HFU."""
    plain = [0.0] * config.parallel.pipeline_parallel
    full, present = _iterations(
        config, [(False, Recompute.FULL, plain),
                 (True, Recompute.SELECTIVE, plain)], None)
    return Table5Row(
        config_name=config.model.name or "model",
        full_recompute_time=full.iteration_time,
        present_work_time=present.iteration_time,
        mfu=present.mfu,
        hfu=present.hfu,
    )
