"""Autodiff substrate: tensors, functions, checkpointing, instrumentation."""

from .backend import AbstractArray, is_abstract
from .checkpoint import checkpoint
from .context import (
    ctx,
    enable_grad,
    get_rng_state,
    instrument,
    is_grad_enabled,
    no_grad,
    phase,
    seed,
    set_rng_state,
)
from .dtypes import BF16, FP16, FP32, INT32, INT64, MASK, DType
from .memory_tracker import MemorySnapshot, MemoryTracker, WatermarkEvent
from .oplog import CommInfo, OpKind, OpLog, OpRecord, Phase
from .tensor import (
    Function,
    Tensor,
    abstract,
    apply,
    free_graph,
    from_numpy,
    parameter,
    run_backward,
    shard_along,
)
from . import functions

__all__ = [
    "AbstractArray", "BF16", "CommInfo", "DType", "FP16", "FP32", "Function",
    "INT32", "INT64", "MASK", "MemorySnapshot", "MemoryTracker", "OpKind",
    "OpLog", "OpRecord", "Phase", "Tensor", "abstract", "apply", "checkpoint",
    "ctx", "enable_grad", "free_graph", "from_numpy", "functions",
    "get_rng_state", "instrument", "is_abstract", "is_grad_enabled", "no_grad",
    "parameter", "phase", "run_backward", "seed",
    "set_rng_state", "shard_along", "WatermarkEvent",
]
