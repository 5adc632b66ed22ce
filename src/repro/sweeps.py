"""Parameter sweeps over the validated models.

The paper evaluates four fixed configurations; these sweeps explore the
surrounding design space with the same machinery — which strategies fit
as sequence length, tensor-parallel width or microbatch size change, and
where the paper's crossovers fall.  Results are plain lists of dicts, and
every sweep has a CSV rendering for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .config import ExperimentConfig, ModelConfig
from .errors import ConfigError
from .layers.transformer import Recompute
from .memory_model import (
    per_layer_activation_bytes,
    total_activation_bytes,
    weight_and_optimizer_bytes,
)
from .flops_model import attention_memory_factor
from .perf_model import KernelCostModel, layer_times
from .reporting import csv_series

STRATEGIES = (
    ("baseline", False, Recompute.NONE),
    ("seq_parallel", True, Recompute.NONE),
    ("selective", False, Recompute.SELECTIVE),
    ("sp_selective", True, Recompute.SELECTIVE),
    ("full", False, Recompute.FULL),
)


def sequence_length_sweep(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int,
    seq_lengths: Sequence[int] = (1024, 2048, 4096, 8192, 16384, 32768),
) -> List[Dict[str, float]]:
    """Per-layer activation bytes of every strategy as context grows.

    Shows Eq. 6's headline: selective recomputation turns the quadratic
    ``5as^2b`` term linear, so its share of the saving grows with ``s``.
    """
    rows = []
    for s in seq_lengths:
        scaled = model.scaled(seq_length=s)
        row: Dict[str, float] = {"seq_length": s,
                                 "attention_factor": attention_memory_factor(scaled)}
        for label, sp, rc in STRATEGIES:
            row[label] = per_layer_activation_bytes(
                scaled, microbatch_size, tensor_parallel, sp, rc)
        rows.append(row)
    return rows


def tensor_parallel_sweep(
    model: ModelConfig,
    microbatch_size: int,
    sizes: Sequence[int] = (1, 2, 4, 8, 16),
) -> List[Dict[str, float]]:
    """How each strategy's per-layer memory scales with ``t``.

    The point of Eq. 2 vs Eq. 4: without SP the ``10sbh`` replicated term
    is a floor that widening ``t`` cannot cross; with SP everything
    divides by ``t``.
    """
    rows = []
    for t in sizes:
        if model.num_heads % t or (4 * model.hidden_size) % t:
            continue
        row: Dict[str, float] = {"tensor_parallel": t}
        for label, sp, rc in STRATEGIES:
            row[label] = per_layer_activation_bytes(
                model, microbatch_size, t, sp, rc)
        rows.append(row)
    return rows


def strategy_fit_sweep(
    config: ExperimentConfig,
    seq_lengths: Sequence[int],
    device_memory_bytes: float = 80 * 1024**3,
) -> List[Dict[str, object]]:
    """For each context length, which strategies fit the device.

    A planner-flavoured view of the long-context regime: the baseline
    falls off a cliff, SP+selective keeps fitting far longer.
    """
    if not device_memory_bytes > 0:  # also rejects NaN
        raise ConfigError(f"device_memory_bytes must be > 0, got "
                          f"{device_memory_bytes / 2**30:g} GiB")
    rows = []
    static = weight_and_optimizer_bytes(config)
    for s in seq_lengths:
        model = config.model.scaled(seq_length=s)
        scaled = ExperimentConfig(model=model, parallel=config.parallel,
                                  training=config.training)
        row: Dict[str, object] = {"seq_length": s}
        for label, sp, rc in STRATEGIES:
            total = static + total_activation_bytes(
                scaled, recompute=rc, sequence_parallel=sp)
            row[label] = bool(total <= device_memory_bytes)
        rows.append(row)
    return rows


def recompute_overhead_sweep(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int,
    seq_lengths: Sequence[int] = (1024, 2048, 4096, 8192),
    cost: Optional[KernelCostModel] = None,
) -> List[Dict[str, float]]:
    """Per-layer time overhead of selective vs full recomputation as the
    attention share grows with context length."""
    cost = cost or KernelCostModel()
    rows = []
    for s in seq_lengths:
        scaled = model.scaled(seq_length=s)
        base = layer_times(scaled, microbatch_size, tensor_parallel,
                           sequence_parallel=True, recompute=Recompute.NONE,
                           cost=cost)
        rows.append({
            "seq_length": s,
            "selective_overhead": layer_times(
                scaled, microbatch_size, tensor_parallel,
                sequence_parallel=True, recompute=Recompute.SELECTIVE,
                cost=cost).overhead_vs(base),
            "full_overhead": layer_times(
                scaled, microbatch_size, tensor_parallel,
                sequence_parallel=False, recompute=Recompute.FULL,
                cost=cost).combined / base.combined - 1.0,
        })
    return rows


def crossover_sequence_length(model: ModelConfig) -> int:
    """The context length where ``5as/h`` passes 34 — past it the
    attention core dominates activation memory (Section 5's regime)."""
    # 5 a s / h = 34  =>  s = 34 h / (5 a)
    return int(round(34 * model.hidden_size / (5 * model.num_heads)))


def to_csv(rows: List[Dict[str, object]]) -> str:
    """Render any sweep's rows as CSV (column order from the first row)."""
    if not rows:
        return ""
    headers = list(rows[0].keys())
    return csv_series(headers, [[r[h] for h in headers] for r in rows])
