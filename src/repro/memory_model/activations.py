"""Closed-form per-layer activation memory (paper Section 4, Equations
1-4 and 6; a pipeline rank's peak is :mod:`.pipeline`).

All results are **bytes per rank** (per GPU).  These formulas are
cross-validated against the instrumented simulator in
``tests/test_memory_crosscheck.py``: running the real layer graph and
counting saved bytes reproduces every row of Table 2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from ..config import ModelConfig
from ..errors import ConfigError
from ..layers.transformer import Recompute

RecomputeLike = Union[Recompute, str]


def per_layer_activation_bytes(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int = 1,
    sequence_parallel: bool = False,
    recompute: RecomputeLike = Recompute.NONE,
) -> float:
    """Activation bytes per transformer layer per rank (Table 2).

    ==============================  ======================================
    no parallelism                  ``sbh (34 + 5 as/h)``            (Eq 1)
    tensor parallel                 ``sbh (10 + 24/t + 5as/(ht))``   (Eq 2)
    tensor + sequence parallel      ``sbh/t (34 + 5 as/h)``          (Eq 4)
    TP + selective recompute        ``sbh (10 + 24/t)``
    TP + SP + selective recompute   ``sbh 34/t``
    full recompute                  ``2 sbh`` (``2 sbh / t`` with SP)
    ==============================  ======================================
    """
    recompute = Recompute(recompute)
    s, b, h, a = model.seq_length, microbatch_size, model.hidden_size, model.num_heads
    t = tensor_parallel
    if t < 1:
        raise ConfigError("tensor_parallel must be >= 1")
    if sequence_parallel and t == 1:
        # SP without TP degenerates to the serial layout.
        sequence_parallel = False
    sbh = s * b * h

    if recompute == Recompute.FULL_SHARDED:
        # Section 5's rejected alternative: "further reduced to 2sbhL/t if
        # we only store a portion of activations in each tensor parallel
        # rank" — at the price of an extra all-gather per layer.
        return 2.0 * sbh / t
    if recompute == Recompute.FULL:
        # Only the layer input is stored; sequence parallelism shards it.
        return 2.0 * sbh / (t if sequence_parallel else 1)

    attn_score_term = 5.0 * a * s / h if recompute == Recompute.NONE else 0.0
    if sequence_parallel:
        return sbh / t * (34.0 + attn_score_term)
    return sbh * (10.0 + (24.0 + attn_score_term) / t)


def per_layer_breakdown(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int = 1,
    sequence_parallel: bool = False,
    recompute: RecomputeLike = Recompute.NONE,
) -> Dict[str, float]:
    """Per-layer bytes split into the paper's Section 4.1 constituents."""
    recompute = Recompute(recompute)
    s, b, h, a = model.seq_length, microbatch_size, model.hidden_size, model.num_heads
    t = tensor_parallel
    sbh = float(s * b * h)
    rep = sbh / t if sequence_parallel else sbh  # "replicated-region" divisor
    if recompute == Recompute.FULL_SHARDED:
        return {"checkpoint_input": 2.0 * sbh / t}
    if recompute == Recompute.FULL:
        return {"checkpoint_input": 2.0 * sbh / (t if sequence_parallel else 1)}
    core = 0.0 if recompute == Recompute.SELECTIVE else 5.0 * a * s * s * b / t
    return {
        "layernorm_inputs": 4.0 * rep,
        "attn_qkv_input": 2.0 * rep,
        "attn_qkv_outputs": 6.0 * sbh / t,   # Q, K, V (selective: checkpoint inputs)
        "attn_core": core,                   # softmax out + mask + dropout out
        "attn_proj_input": 2.0 * sbh / t,
        "attn_dropout_mask": 1.0 * rep,
        "mlp_fc1_input": 2.0 * rep,
        "mlp_gelu_input": 8.0 * sbh / t,
        "mlp_fc2_input": 8.0 * sbh / t,
        "mlp_dropout_mask": 1.0 * rep,
    }


#: How Equation 1-4 constituents regroup to the granularity the
#: instrumented simulator's :class:`~repro.tensor.MemoryTracker` save-site
#: categories can observe.  Two collisions force grouping: the tracker's
#: single ``dropout_mask`` category covers the attention-core mask and
#: both residual-dropout masks, and ``attn_core`` is itself 4/5 data
#: (softmax output ``2as^2b/t`` + dropout output ``2as^2b/t``) and 1/5
#: mask (``as^2b/t``), so the mask fifth moves into the mask group.
ATTN_CORE_MASK_FRACTION = 1.0 / 5.0


def per_layer_term_groups(
    model: ModelConfig,
    microbatch_size: int,
    tensor_parallel: int = 1,
    sequence_parallel: bool = False,
    recompute: RecomputeLike = Recompute.NONE,
) -> Dict[str, float]:
    """Analytic per-layer bytes per *observable* term group.

    Same total as :func:`per_layer_breakdown`, regrouped so each group
    corresponds exactly to a set of measured tracker categories
    (:func:`term_group_categories`) — the basis of the per-term drift
    check in :mod:`repro.observability.analysis`.  Under p-way context
    parallelism (Ulysses, ring) the groups are these with ``p`` for
    ``t`` and sequence parallelism on; ring attention overrides one
    (:meth:`~repro.longctx.layout.ContextParallel.term_groups`).
    """
    recompute = Recompute(recompute)
    bd = per_layer_breakdown(model, microbatch_size, tensor_parallel,
                             sequence_parallel, recompute)
    if recompute in (Recompute.FULL, Recompute.FULL_SHARDED):
        return {"checkpoint_input": bd["checkpoint_input"]}
    core_mask = ATTN_CORE_MASK_FRACTION * bd["attn_core"]
    return {
        "layernorm_inputs": bd["layernorm_inputs"],
        "attn_qkv_input": bd["attn_qkv_input"],
        "attn_qkv_and_core": (bd["attn_qkv_outputs"]
                              + bd["attn_core"] - core_mask),
        "attn_proj_input": bd["attn_proj_input"],
        "dropout_masks": (bd["attn_dropout_mask"] + bd["mlp_dropout_mask"]
                          + core_mask),
        "mlp_fc1_input": bd["mlp_fc1_input"],
        "mlp_gelu_input": bd["mlp_gelu_input"],
        "mlp_fc2_input": bd["mlp_fc2_input"],
    }


def term_group_categories(recompute: RecomputeLike) -> Dict[str, tuple]:
    """Which measured tracker categories make up each term group.

    Under selective recomputation the Q/K/V tensors are charged by the
    checkpointed attention core as ``checkpoint_input`` ("selective:
    checkpoint inputs"), so that category joins the attention group;
    under full recomputation ``checkpoint_input`` is the whole layer
    input and is the only group.
    """
    recompute = Recompute(recompute)
    if recompute in (Recompute.FULL, Recompute.FULL_SHARDED):
        return {"checkpoint_input": ("checkpoint_input",)}
    attention = ("attn_qk", "attn_context", "softmax_output")
    if recompute == Recompute.SELECTIVE:
        attention = attention + ("checkpoint_input",)
    return {
        "layernorm_inputs": ("layernorm_input",),
        "attn_qkv_input": ("attn_qkv_input",),
        "attn_qkv_and_core": attention,
        "attn_proj_input": ("attn_proj_input",),
        "dropout_masks": ("dropout_mask",),
        "mlp_fc1_input": ("mlp_fc1_input",),
        "mlp_gelu_input": ("gelu_input",),
        "mlp_fc2_input": ("mlp_fc2_input",),
    }


@dataclass(frozen=True)
class Table2Row:
    """One technique row of Table 2 with its per-layer byte count."""

    technique: str
    bytes_per_layer: float
    formula: str


def table2(model: ModelConfig, microbatch_size: int, tensor_parallel: int,
           extended: bool = False) -> list:
    """All six rows of Table 2 (+ the rejected sharded-checkpoint variant
    when ``extended``) for a given model/batch/TP size."""
    t = tensor_parallel
    mk = per_layer_activation_bytes
    b = microbatch_size
    rows = [
        Table2Row("no parallelism",
                  mk(model, b), "sbh(34 + 5as/h)"),
        Table2Row("tensor parallel (baseline)",
                  mk(model, b, t), "sbh(10 + 24/t + 5as/ht)"),
        Table2Row("tensor + sequence parallel",
                  mk(model, b, t, sequence_parallel=True), "sbh(34/t + 5as/ht)"),
        Table2Row("tensor parallel + selective recompute",
                  mk(model, b, t, recompute=Recompute.SELECTIVE), "sbh(10 + 24/t)"),
        Table2Row("tensor + sequence parallel + selective recompute",
                  mk(model, b, t, sequence_parallel=True, recompute=Recompute.SELECTIVE),
                  "sbh(34/t)"),
        Table2Row("full activation recomputation",
                  mk(model, b, t, recompute=Recompute.FULL), "sbh(2)"),
    ]
    if extended:
        rows.append(Table2Row(
            "full recompute, sharded inputs (rejected: extra AG/layer)",
            mk(model, b, t, recompute=Recompute.FULL_SHARDED), "sbh(2/t)"))
    return rows


def memory_fraction_of_tp_baseline(
    model: ModelConfig, microbatch_size: int, tensor_parallel: int,
    sequence_parallel: bool, recompute: RecomputeLike,
) -> float:
    """Figure 7's y-axis: per-layer bytes as a fraction of the
    tensor-parallel no-recompute baseline (Equation 2)."""
    baseline = per_layer_activation_bytes(model, microbatch_size, tensor_parallel)
    value = per_layer_activation_bytes(
        model, microbatch_size, tensor_parallel,
        sequence_parallel=sequence_parallel, recompute=recompute,
    )
    return value / baseline
