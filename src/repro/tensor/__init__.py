"""Autodiff substrate: tensors, functions, checkpointing, instrumentation."""

from .backend import AbstractArray
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
from .dtypes import FP16, FP32, INT64, MASK
from .memory_tracker import MemoryTracker
from .oplog import OpLog
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
    "AbstractArray", "FP16", "FP32", "Function", "INT64", "MASK",
    "MemoryTracker", "OpLog", "Tensor", "abstract", "apply", "checkpoint",
    "ctx", "enable_grad", "free_graph", "from_numpy", "functions",
    "get_rng_state", "instrument", "is_grad_enabled", "no_grad",
    "parameter", "phase", "run_backward", "seed",
    "set_rng_state", "shard_along",
]
