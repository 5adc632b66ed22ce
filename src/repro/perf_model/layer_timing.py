"""Per-layer timing (paper Table 4 and Figure 8).

A single transformer layer is executed **abstractly** (shape-only) with
the op log attached; forward and backward run through the real autograd
graph — including checkpoint re-execution for the recompute strategies —
and the resulting op records are priced by the kernel cost model.
The paper measured the same thing on hardware ("experiments were done on
the 22B model with just one layer").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..comm import collectives
from ..comm.process_group import ProcessGroup
from ..config import ModelConfig
from ..layers.transformer import Recompute, abstract_layer
from ..parallel.layout import TensorParallel
from ..tensor import OpLog, ctx, instrument
from ..tensor.oplog import OpRecord, Phase
from .gpu import KernelCostModel, PhaseTimes


def layer_oplog(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int,
    sequence_parallel: bool = False,
    recompute: Recompute = Recompute.NONE,
    fuse_sp_gather: bool = True,
    fused: bool = False,
) -> OpLog:
    """Run one abstract layer forward+backward, at the layer's default
    (the paper's) dropout rates, and return its op log.

    ``fused=True`` runs the layer through :mod:`repro.fusion`'s fused
    kernels: the log then carries one ``fused=True`` elementwise record
    per fused chain (true combined traffic, priced without the unfused
    fusion discount), so one roofline pass replaces N.
    """
    layer, x = abstract_layer(
        TensorParallel(ProcessGroup(tensor_parallel), sequence_parallel,
                       fuse_sp_gather),
        model, microbatch_size, recompute=recompute, tag="timed_layer",
        fused=fused)
    log = OpLog()
    with instrument(oplog=log):
        y = layer(x)
        y.backward()
    return log


@lru_cache(maxsize=128)  # a pass keeps 18 layers (~15 KB) and 16 ends (~4 KB)
def _records(trace: Callable[..., OpLog], *key) -> Tuple[OpRecord, ...]:
    """The memo behind :func:`traced_records`: frozen records in a tuple,
    so no caller can change what the next one prices."""
    return tuple(trace(*key).records)


def traced_records(trace: Callable[..., OpLog], *key) -> Sequence[OpRecord]:
    """The records of ``trace(*key)`` (:func:`layer_oplog`, the ends'
    tracers), traced once per process, or afresh under an observer (see
    :func:`_unobserved`), so it sees every op."""
    return _records(trace, *key) if _unobserved() else trace(*key).records


def _unobserved() -> bool:
    """Whether nothing would see a trace's ops: no memory tracker, op
    log, tracer, memory profiler, capture or collective hook installed,
    grad on and the forward phase.  Only then may a trace be shared."""
    c = ctx()
    return (c.grad_enabled and c.phase is Phase.FORWARD and c.memory is None
            and c.oplog is None and c.tracer is None and c.memprof is None
            and c.capture is None and collectives.active_trace_hook() is None
            and collectives.active_fault_injector() is None)


def layer_times(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int,
    sequence_parallel: bool = False,
    recompute: Recompute = Recompute.NONE,
    cost: Optional[KernelCostModel] = None,
) -> PhaseTimes:
    """Forward / backward / recompute seconds for one transformer layer.

    A layer is traced once per process and priced under any number of
    cost models (Tables 4/5, Figure 8, Appendix C, the planner and
    ``calibrate`` share the same few layers).  Under an observer (see
    :func:`_unobserved`) the layer is traced afresh, so it sees every op."""
    cost = cost or KernelCostModel()
    return cost.phase_times(traced_records(
        layer_oplog, model, microbatch_size, tensor_parallel,
        sequence_parallel, recompute))


@dataclass(frozen=True)
class Table4Row:
    experiment: str
    times: PhaseTimes


#: The five experiments of Table 4 as (label, sequence_parallel, recompute).
TABLE4_EXPERIMENTS = (
    ("Baseline no recompute", False, Recompute.NONE),
    ("Sequence Parallelism", True, Recompute.NONE),
    ("Baseline with recompute", False, Recompute.FULL),
    ("Selective Recompute", False, Recompute.SELECTIVE),
    ("Selective + Sequence", True, Recompute.SELECTIVE),
)


def table4(model: ModelConfig, microbatch_size: int, tensor_parallel: int,
           cost: Optional[KernelCostModel] = None) -> List[Table4Row]:
    """All five rows of Table 4 (the paper runs the 22B model, b=4, t=8)."""
    cost = cost or KernelCostModel()
    return [
        Table4Row(label, layer_times(
            model, microbatch_size, tensor_parallel,
            sequence_parallel=sp, recompute=rc, cost=cost,
        ))
        for label, sp, rc in TABLE4_EXPERIMENTS
    ]


#: Figure 8's four schemes per model: (label, sequence_parallel, recompute).
FIGURE8_SCHEMES = (
    ("baseline", False, Recompute.NONE),
    ("full recompute", False, Recompute.FULL),
    ("selective recompute", False, Recompute.SELECTIVE),
    ("present work", True, Recompute.SELECTIVE),
)


def figure8(model: ModelConfig, microbatch_size: int,
            tensor_parallel: int) -> Dict[str, PhaseTimes]:
    """Per-layer forward/backward/recompute breakdown (one Figure 8 group)."""
    cost = KernelCostModel()
    return {
        label: layer_times(model, microbatch_size, tensor_parallel,
                           sequence_parallel=sp, recompute=rc, cost=cost)
        for label, sp, rc in FIGURE8_SCHEMES
    }
